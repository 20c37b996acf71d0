"""Compositional statement parsing with holes.

Statement rules match coarse shapes (a keyword followed by balanced delimiter
spans) and never descend into the spans they capture. One rule reads every
built-in statement, picking the reader by the statement's first token. The
captured spans are Holes: they are re-parsed only when execution actually
reaches them, so code that never runs is never analyzed beyond delimiter
balance. This is what makes the parser indifferent to unresolvable headers,
unknown macros, or outright garbage in untaken branches.

Brace-less dependent statements (``if (x) y = 1;``) are supported when the
dependent statement is itself terminated by a top-level ``;``. ``else if``
chains are captured as a single else-hole and rediscovered lazily, so rules
never recurse into one another.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from . import macros as mc
from . import tokens as tk
from .errors import NoRuleMatched, UnbalancedDelimiter


@dataclass
class Hole:
    """A delimited, unanalyzed token range ``[start, end)`` of one file."""

    file_id: str
    start: int
    end: int
    nodes: list | None = field(default=None, repr=False)  # memoized parse
    compiled: object = field(default=None, repr=False)  # closure or params; see Interp._code

    def is_empty_of_code(self, tokens: list[tk.Token]) -> bool:
        return all(t.kind in tk.TRIVIA for t in tokens[self.start : self.end])


@dataclass
class Node:
    file_id: str
    line: int
    start: int
    end: int  # token span [start, end)


@dataclass
class IfNode(Node):
    cond: Hole = None
    then: Hole = None
    orelse: Hole | None = None


@dataclass
class WhileNode(Node):
    cond: Hole = None
    body: Hole = None


@dataclass
class DoWhileNode(Node):
    body: Hole = None
    cond: Hole = None


@dataclass
class ForNode(Node):
    init: Hole = None
    cond: Hole = None
    step: Hole = None
    body: Hole = None


@dataclass
class ReturnNode(Node):
    expr: Hole | None = None


@dataclass
class BreakNode(Node):
    pass


@dataclass
class ContinueNode(Node):
    pass


@dataclass
class BlockNode(Node):
    body: Hole = None


@dataclass
class SwitchNode(Node):
    subject: Hole = None
    body: Hole = None


@dataclass
class GotoNode(Node):
    label: str = ""


@dataclass
class LabelNode(Node):
    name: str | None = None
    case_expr: Hole | None = None
    is_default: bool = False


@dataclass
class DeclarationNode(Node):
    """A statement that unambiguously starts with a type or storage keyword."""

    compiled: object = field(default=None, repr=False)  # see Interp._code


@dataclass
class ExpressionStatementNode(Node):
    """A ``;``-terminated statement; may turn out to be a typedef-led
    declaration once the interpreter's type environment is consulted."""

    compiled: object = field(default=None, repr=False)  # see Interp._code


@dataclass
class RawNode(Node):
    directive: bool = False


@dataclass
class FunctionDefNode(Node):
    name: str = ""
    params: Hole = None
    body: Hole = None


def _balanced_end(toks, j, limit):
    """Index after the bracket that closes the one at ``toks[j]``."""
    end = tk.closing(toks, j, limit)
    if end == limit:
        raise UnbalancedDelimiter(
            f"unbalanced {toks[j].text!r} opened at line {toks[j].line}",
            line=toks[j].line)
    return end + 1


def _statement_span(toks, i, limit):
    """End (exclusive) of a plain statement: through the next ``;`` at
    delimiter depth 0, stopping before a ``}`` that closes an enclosing
    block. A stray leading ``}`` is consumed alone to guarantee progress."""
    depth = 0
    j = i
    while j < limit:
        t = toks[j]
        if t.kind == tk.PUNCT:
            c = t.text
            if c in "([{":
                depth += 1
            elif c == "}":
                if depth == 0:
                    return j + 1 if j == i else j
                depth -= 1
            elif c in ")]":
                if depth > 0:
                    depth -= 1
            elif c == ";" and depth == 0:
                return j + 1
        j += 1
    return limit


def _substatement(toks, k, limit, file_id):
    """Hole + end index for a dependent statement: a braced block's contents
    or a simple ``;``-terminated span."""
    k = tk.skip_trivia(toks, k, limit)
    if k < limit and tk.is_punct(toks[k], "{"):
        end = _balanced_end(toks, k, limit)
        return Hole(file_id, k + 1, end - 1), end
    end = _statement_span(toks, k, limit)
    return Hole(file_id, k, end), end


def _else_part(toks, k, limit, file_id):
    """Hole + end for what follows ``else``; an ``if`` chain is captured
    whole, to be re-parsed lazily as a nested if."""
    k = tk.skip_trivia(toks, k, limit)
    if k >= limit or not tk.is_keyword(toks[k], "if"):
        return _substatement(toks, k, limit, file_id)
    start = j = k  # at an 'if' keyword
    while True:
        head = _keyword_paren(toks, j, limit)
        if head is None:
            j = _statement_span(toks, tk.skip_trivia(toks, j + 1, limit), limit)
            break
        _, p = _substatement(toks, head[1], limit, file_id)
        q = tk.skip_trivia(toks, p, limit)
        if q < limit and tk.is_keyword(toks[q], "else"):
            r = tk.skip_trivia(toks, q + 1, limit)
            if r < limit and tk.is_keyword(toks[r], "if"):
                j = r
                continue
            _, p = _substatement(toks, r, limit, file_id)
        j = p
        break
    return Hole(file_id, start, j), j


def _keyword_paren(toks, i, limit):
    """(index of ``(``, index after its ``)``) when the keyword at ``i`` is
    followed by a parenthesized span, else None."""
    j = tk.skip_trivia(toks, i + 1, limit)
    if j >= limit or not tk.is_punct(toks[j], "("):
        return None
    return j, _balanced_end(toks, j, limit)


def _read_if(toks, i, limit, fid):
    if (head := _keyword_paren(toks, i, limit)) is None:
        return None
    j, cond_end = head
    cond = Hole(fid, j + 1, cond_end - 1)
    then, k = _substatement(toks, cond_end, limit, fid)
    orelse = None
    k2 = tk.skip_trivia(toks, k, limit)
    if k2 < limit and tk.is_keyword(toks[k2], "else"):
        orelse, k = _else_part(toks, k2 + 1, limit, fid)
    return IfNode(fid, toks[i].line, i, k, cond=cond, then=then, orelse=orelse)


def _read_while(toks, i, limit, fid):
    if (head := _keyword_paren(toks, i, limit)) is None:
        return None
    j, cend = head
    body, k = _substatement(toks, cend, limit, fid)
    return WhileNode(fid, toks[i].line, i, k, cond=Hole(fid, j + 1, cend - 1), body=body)


def _read_do(toks, i, limit, fid):
    body, k = _substatement(toks, i + 1, limit, fid)
    k = tk.skip_trivia(toks, k, limit)
    if k >= limit or not tk.is_keyword(toks[k], "while") \
            or (head := _keyword_paren(toks, k, limit)) is None:
        return None
    j, cend = head
    k2 = tk.skip_trivia(toks, cend, limit)
    if k2 < limit and tk.is_punct(toks[k2], ";"):
        k2 += 1
    return DoWhileNode(fid, toks[i].line, i, k2, body=body, cond=Hole(fid, j + 1, cend - 1))


def _read_for(toks, i, limit, fid):
    if (head := _keyword_paren(toks, i, limit)) is None:
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


def _read_switch(toks, i, limit, fid):
    if (head := _keyword_paren(toks, i, limit)) is None:
        return None
    j, send = head
    k = tk.skip_trivia(toks, send, limit)
    if k >= limit or not tk.is_punct(toks[k], "{"):
        return None
    bend = _balanced_end(toks, k, limit)
    return SwitchNode(
        fid, toks[i].line, i, bend,
        subject=Hole(fid, j + 1, send - 1), body=Hole(fid, k + 1, bend - 1),
    )


def _read_return(toks, i, limit, fid):
    end = _statement_span(toks, i + 1, limit)
    expr_end = end - 1 if end > i + 1 and tk.is_punct(toks[end - 1], ";") else end
    expr = Hole(fid, i + 1, expr_end)
    if expr.is_empty_of_code(toks):
        expr = None
    return ReturnNode(fid, toks[i].line, i, end, expr=expr)


def _read_jump(toks, i, limit, fid):
    """``break`` or ``continue``, with the ``;`` after it if there is one."""
    j = tk.skip_trivia(toks, i + 1, limit)
    end = j + 1 if j < limit and tk.is_punct(toks[j], ";") else i + 1
    cls = BreakNode if toks[i].text == "break" else ContinueNode
    return cls(fid, toks[i].line, i, end)


def _read_goto(toks, i, limit, fid):
    j = tk.skip_trivia(toks, i + 1, limit)
    if j >= limit or toks[j].kind != tk.IDENTIFIER:
        return None
    end = _statement_span(toks, j, limit)
    return GotoNode(fid, toks[i].line, i, end, label=toks[j].text)


def _read_case(toks, i, limit, fid):
    j = tk.top_level(toks, i + 1, limit, (":", ";"))
    if j < limit and tk.is_punct(toks[j], ":"):
        return LabelNode(fid, toks[i].line, i, j + 1, case_expr=Hole(fid, i + 1, j))
    return None


def _read_default(toks, i, limit, fid):
    j = tk.skip_trivia(toks, i + 1, limit)
    if j < limit and tk.is_punct(toks[j], ":"):
        return LabelNode(fid, toks[i].line, i, j + 1, is_default=True)
    return None


_KEYWORD_READERS = {
    "if": _read_if, "while": _read_while, "do": _read_do, "for": _read_for,
    "switch": _read_switch, "return": _read_return, "break": _read_jump,
    "continue": _read_jump, "goto": _read_goto, "case": _read_case,
    "default": _read_default,
}


def _match_statement(cur: tk.Cursor):
    """The statement at the cursor, read by its first code token: a
    directive, a block, a keyword's statement, a declaration or a label.
    None for anything else, or for a keyword whose statement's shape the
    tokens after it do not have (``if`` without ``(``)."""
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if i >= limit:
        return None
    t = toks[i]
    if t.kind == tk.KEYWORD:
        if (read := _KEYWORD_READERS.get(t.text)) is not None:
            return read(toks, i, limit, fid)
        if t.text in tk.DECL_KEYWORDS:
            return DeclarationNode(fid, t.line, i, _statement_span(toks, i, limit))
    elif t.kind == tk.PUNCT:
        if t.text == "{":
            end = _balanced_end(toks, i, limit)
            return BlockNode(fid, t.line, i, end, body=Hole(fid, i + 1, end - 1))
    elif t.kind == tk.IDENTIFIER:
        j = tk.skip_trivia(toks, i + 1, limit)
        if j < limit and tk.is_punct(toks[j], ":"):
            return LabelNode(fid, t.line, i, j + 1, name=t.text)
    elif t.kind == tk.DIRECTIVE:
        return RawNode(fid, t.line, i, i + 1, directive=True)
    return None


def _match_fallback(cur: tk.Cursor):
    toks, limit, fid = cur.tokens, cur.limit, cur.file_id
    i = cur.peek_index()
    if i >= limit:
        return None
    if tk.is_punct(toks[i], "}"):
        return RawNode(fid, toks[i].line, i, i + 1)
    end = _statement_span(toks, i, limit)
    return ExpressionStatementNode(fid, toks[i].line, i, end)


class RuleRegistry:
    """Ordered statement matchers; the first match by (priority, insertion
    order) wins. The built-in ``"statement"`` rule is at priority 100 and
    the ``"raw"`` fallback at 1000, so a user rule below 100 shadows the
    built-ins for exactly the tokens it consumes, and one between them
    sees only what no built-in reads."""

    def __init__(self, defaults: bool = True):
        self._entries: list[tuple[int, int, str, object]] = []
        self._seq = 0
        if defaults:
            self.register("statement", _match_statement, priority=100)
            self.register("raw", _match_fallback, priority=1000)

    def register(self, name: str, matcher, priority: int = 500):
        bisect.insort(self._entries, (priority, self._seq, name, matcher))
        self._seq += 1

    def __iter__(self):
        return iter(self._entries)


def parse_next_statement(cursor: tk.Cursor, rules: RuleRegistry, on_parse=None):
    """Produce exactly one statement Node at the cursor and the advanced
    cursor. Rules capture balanced spans without recursing into them."""
    if cursor.at_end():
        raise NoRuleMatched("cursor at end of input")
    for _prio, _seq, _name, matcher in rules:
        node = matcher(cursor)
        if node is not None:
            if on_parse:
                on_parse(node)
            return node, cursor.advanced_to(node.end)
    raise NoRuleMatched(f"no rule matched at token {cursor.peek_index()}")


def parse_hole_as_block(corpus: "Corpus", hole: Hole, rules: RuleRegistry, on_parse=None):
    """Parse the statements inside a hole, memoized per hole.

    Called only when execution reaches the hole; nested holes stay unparsed.
    """
    if hole.nodes is not None:
        return hole.nodes
    toks = corpus.tokens(hole.file_id)
    cur = tk.Cursor(toks, hole.start, limit=hole.end, file_id=hole.file_id)
    nodes = []
    while not cur.at_end():
        node, cur = parse_next_statement(cur, rules, on_parse)
        nodes.append(node)
    hole.nodes = nodes
    return nodes


class Corpus:
    """The tokenized source files of one module, in deterministic order."""

    def __init__(self):
        self.files: list[str] = []  # corpus files in order; no scratch buffers
        self._tokens: dict[str, list[tk.Token]] = {}
        self._sources: dict[str, str] = {}
        self.macros: dict[str, mc.MacroDef] = {}
        self._fn_cache: dict[str, FunctionDefNode | None] = {}

    @classmethod
    def from_sources(cls, named_sources) -> "Corpus":
        corpus = cls()
        for file_id, text in named_sources.items():
            corpus.add_file(file_id, text)
        return corpus

    @classmethod
    def from_paths(cls, paths) -> "Corpus":
        corpus = cls()
        for p in paths:
            with open(p, "rb") as f:
                data = f.read()
            corpus.add_file(str(getattr(p, "name", p)), data.decode("latin-1"))
        return corpus

    def add_file(self, file_id: str, text):
        if isinstance(text, (bytes, bytearray)):
            text = bytes(text).decode("latin-1")
        if file_id not in self.files:
            self.files.append(file_id)
        toks = self._tokens[file_id] = tk.FileTokens(self.add_scratch(file_id, text))
        self.macros.update(mc.scan_defines(toks, file_id))

    def add_scratch(self, file_id: str, text: str) -> list[tk.Token]:
        """Register tokens for a transient buffer (snippets); scratch files
        are reachable by file id but excluded from corpus scans, and have
        no index."""
        toks = tk.tokenize(text, file_id)
        self._tokens[file_id] = toks
        self._sources[file_id] = text
        return toks

    def tokens(self, file_id: str) -> list[tk.Token]:
        """A file's tokens: a ``tokens.FileTokens`` for a corpus file."""
        return self._tokens[file_id]

    def source(self, file_id: str) -> str:
        return self._sources[file_id]

    def find_function(self, name: str) -> FunctionDefNode | None:
        if name in self._fn_cache:
            return self._fn_cache[name]
        node = find_function_definition(self, name)
        self._fn_cache[name] = node
        return node


def find_function_definition(corpus: Corpus, name: str) -> FunctionDefNode | None:
    """The first use of ``name``, in file order, that a balanced paren span
    and then a balanced ``{`` span follow, at any depth.

    Only the positions of ``name`` in each file's index are visited; the
    parameter list and body stay holes until executed.
    """
    if name in corpus.macros:
        return None
    for file_id in corpus.files:
        toks = corpus.tokens(file_id)
        n = len(toks)
        for i in toks.names.get(name, ()):
            prev = tk.code_before(toks, i)
            if prev >= 0 and toks[prev].kind == tk.PUNCT and toks[prev].text in (".", "->", "#"):
                continue
            j = tk.skip_trivia(toks, i + 1, n)
            if j >= n or not tk.is_punct(toks[j], "(") or (close := tk.closing(toks, j, n)) == n:
                continue
            k = tk.skip_trivia(toks, close + 1, n)
            if k >= n or not tk.is_punct(toks[k], "{") or (bend := tk.closing(toks, k, n)) == n:
                continue
            return FunctionDefNode(
                file_id, toks[i].line, i, bend + 1,
                name=name,
                params=Hole(file_id, j + 1, close),
                body=Hole(file_id, k + 1, bend),
            )
    return None
