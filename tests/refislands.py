"""Reference statement reader: twelve matchers tried in priority order.

This is the statement reader ``ssi.islands`` had before its one
dispatching rule, kept as the differential reference for it
(``tests/test_islands.py``). Each matcher takes a cursor, repeats the same
preamble and returns a node or None; ``reference_rules()`` registers them
in their old order, with the unchanged ``"raw"`` fallback last. The span
helpers that did not change are imported from ``ssi.islands``.
"""

from reftokens import skip_trivia
from ssi import tokens as tk
from ssi.islands import (
    BlockNode,
    BreakNode,
    ContinueNode,
    DeclarationNode,
    DoWhileNode,
    ForNode,
    GotoNode,
    Hole,
    IfNode,
    LabelNode,
    ReturnNode,
    RuleRegistry,
    SwitchNode,
    WhileNode,
    _balanced_end,
    _match_fallback,
    _statement_span,
    _substatement,
)


def _else_part(toks, k, limit, file_id):
    k = skip_trivia(toks, k, limit)
    if k >= limit or not tk.is_keyword(toks[k], "if"):
        return _substatement(toks, k, limit, file_id)
    start = j = k
    while True:
        head = _keyword_paren(toks, j, limit, "if")
        if head is None:
            j = _statement_span(toks, skip_trivia(toks, j + 1, limit), limit)
            break
        _, p = _substatement(toks, head[1], limit, file_id)
        q = skip_trivia(toks, p, limit)
        if q < limit and tk.is_keyword(toks[q], "else"):
            r = skip_trivia(toks, q + 1, limit)
            if r < limit and tk.is_keyword(toks[r], "if"):
                j = r
                continue
            _, p = _substatement(toks, r, limit, file_id)
        j = p
        break
    return Hole(file_id, start, j), j


def _keyword_paren(toks, i, limit, word):
    if i >= limit or not tk.is_keyword(toks[i], word):
        return None
    j = skip_trivia(toks, i + 1, limit)
    if j >= limit or not tk.is_punct(toks[j], "("):
        return None
    return j, _balanced_end(toks, j, limit)


def _match_if(cur):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if (head := _keyword_paren(toks, i, limit, "if")) is None:
        return None
    j, cond_end = head
    cond = Hole(fid, j + 1, cond_end - 1)
    then, k = _substatement(toks, cond_end, limit, fid)
    orelse = None
    k2 = skip_trivia(toks, k, limit)
    if k2 < limit and tk.is_keyword(toks[k2], "else"):
        orelse, k = _else_part(toks, k2 + 1, limit, fid)
    return IfNode(fid, toks[i].line, i, k, cond=cond, then=then, orelse=orelse)


def _match_while(cur):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if (head := _keyword_paren(toks, i, limit, "while")) is None:
        return None
    j, cend = head
    body, k = _substatement(toks, cend, limit, fid)
    return WhileNode(fid, toks[i].line, i, k, cond=Hole(fid, j + 1, cend - 1), body=body)


def _match_do(cur):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if i >= limit or not tk.is_keyword(toks[i], "do"):
        return None
    body, k = _substatement(toks, i + 1, limit, fid)
    k = skip_trivia(toks, k, limit)
    if (head := _keyword_paren(toks, k, limit, "while")) is None:
        return None
    j, cend = head
    k2 = skip_trivia(toks, cend, limit)
    if k2 < limit and tk.is_punct(toks[k2], ";"):
        k2 += 1
    return DoWhileNode(fid, toks[i].line, i, k2, body=body, cond=Hole(fid, j + 1, cend - 1))


def _match_for(cur):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if (head := _keyword_paren(toks, i, limit, "for")) is None:
        return None
    j, pend = head
    parts = tk.split_top_level(toks, j + 1, pend - 1, ";")
    while len(parts) < 3:
        parts.append((pend - 1, pend - 1))
    body, k = _substatement(toks, pend, limit, fid)
    (a0, a1), (b0, b1), (c0, c1) = parts[:3]
    return ForNode(
        fid, toks[i].line, i, k,
        init=Hole(fid, a0, a1), cond=Hole(fid, b0, b1), step=Hole(fid, c0, c1),
        body=body,
    )


def _match_return(cur):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if i >= limit or not tk.is_keyword(toks[i], "return"):
        return None
    end = _statement_span(toks, i + 1, limit)
    expr_end = end - 1 if end > i + 1 and tk.is_punct(toks[end - 1], ";") else end
    expr = Hole(fid, i + 1, expr_end)
    if all(t.kind in tk.TRIVIA for t in toks[expr.start : expr.end]):
        expr = None
    return ReturnNode(fid, toks[i].line, i, end, expr=expr)


def _match_simple_kw(word, cls):
    def match(cur):
        toks, limit, fid = cur.tokens, cur.limit, cur.file_id
        i = cur.peek_index()
        if i >= limit or not tk.is_keyword(toks[i], word):
            return None
        j = skip_trivia(toks, i + 1, limit)
        end = j + 1 if j < limit and tk.is_punct(toks[j], ";") else i + 1
        return cls(fid, toks[i].line, i, end)

    return match


def _match_goto(cur):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if i >= limit or not tk.is_keyword(toks[i], "goto"):
        return None
    j = skip_trivia(toks, i + 1, limit)
    if j >= limit or toks[j].kind != tk.IDENTIFIER:
        return None
    end = _statement_span(toks, j, limit)
    return GotoNode(fid, toks[i].line, i, end, label=toks[j].text)


def _match_label(cur):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if i >= limit:
        return None
    t = toks[i]
    if tk.is_keyword(t, "default"):
        j = skip_trivia(toks, i + 1, limit)
        if j < limit and tk.is_punct(toks[j], ":"):
            return LabelNode(fid, t.line, i, j + 1, is_default=True)
        return None
    if tk.is_keyword(t, "case"):
        j = tk.top_level(toks, i + 1, limit, (":", ";"))
        if j < limit and tk.is_punct(toks[j], ":"):
            return LabelNode(fid, t.line, i, j + 1, case_expr=Hole(fid, i + 1, j))
        return None
    if t.kind == tk.IDENTIFIER:
        j = skip_trivia(toks, i + 1, limit)
        if j < limit and tk.is_punct(toks[j], ":"):
            return LabelNode(fid, t.line, i, j + 1, name=t.text)
    return None


def _match_block(cur):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if i >= limit or not tk.is_punct(toks[i], "{"):
        return None
    end = _balanced_end(toks, i, limit)
    return BlockNode(fid, toks[i].line, i, end, body=Hole(fid, i + 1, end - 1))


def _match_switch(cur):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if (head := _keyword_paren(toks, i, limit, "switch")) is None:
        return None
    j, send = head
    k = skip_trivia(toks, send, limit)
    if k >= limit or not tk.is_punct(toks[k], "{"):
        return None
    bend = _balanced_end(toks, k, limit)
    return SwitchNode(
        fid, toks[i].line, i, bend,
        subject=Hole(fid, j + 1, send - 1), body=Hole(fid, k + 1, bend - 1),
    )


def _match_declaration(cur):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if i >= limit:
        return None
    t = toks[i]
    if t.kind != tk.KEYWORD or t.text not in tk.DECL_KEYWORDS:
        return None
    end = _statement_span(toks, i, limit)
    return DeclarationNode(fid, t.line, i, end)


MATCHERS = (
    ("label", _match_label),
    ("if", _match_if),
    ("while", _match_while),
    ("do-while", _match_do),
    ("for", _match_for),
    ("switch", _match_switch),
    ("return", _match_return),
    ("break", _match_simple_kw("break", BreakNode)),
    ("continue", _match_simple_kw("continue", ContinueNode)),
    ("goto", _match_goto),
    ("block", _match_block),
    ("declaration", _match_declaration),
)


def reference_rules() -> RuleRegistry:
    """The twelve matchers at priorities 100-111, then the fallback."""
    rules = RuleRegistry(defaults=False)
    for n, (name, fn) in enumerate(MATCHERS):
        rules.register(name, fn, priority=100 + n)
    rules.register("raw", _match_fallback, priority=1000)
    return rules
