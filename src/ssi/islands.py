"""Compositional statement parsing with holes.

Statement rules match coarse shapes (a keyword followed by balanced delimiter
spans) and never descend into the spans they capture. One rule reads every
built-in statement, picking the reader by the statement's first token. The
captured spans are Holes: they are re-parsed only when execution actually
reaches them, so code that never runs is never analyzed beyond delimiter
balance. This is what makes the parser indifferent to unresolvable headers,
unknown macros, or outright garbage in untaken branches.

Rules read a file's code tokens (``tokens.FileTokens``), its preprocessor
lines kept beside them, so a directive inside a body, a struct, a parameter
list or an expression is read with every arm live: a rule's next token is
the next in the list, and a hole is empty when its span is. Text is read
from the source by offsets (``Corpus.text``).

File scope is read once, when a corpus file is added: one walk splits the
file into top-level items, and its record (``SourceFile``) keeps them with
the first definition of each function, the first body of each struct or
union tag and the ``MODULE_*`` strings; every file-scope lookup answers from
the records.

Brace-less dependent statements (``if (x) y = 1;``) are supported when the
dependent statement is itself terminated by a top-level ``;``. ``else if``
chains are captured as a single else-hole and rediscovered lazily, so rules
never recurse into one another.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from pathlib import Path

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
    compiled: object = field(default=None, repr=False)  # see Interp._code, Interp._body


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
    """A stray ``}``."""


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
    if k < limit and tk.is_punct(toks[k], "{"):
        end = _balanced_end(toks, k, limit)
        return Hole(file_id, k + 1, end - 1), end
    end = _statement_span(toks, k, limit)
    return Hole(file_id, k, end), end


def _else_part(toks, k, limit, file_id):
    """Hole + end for what follows ``else``; an ``if`` chain is captured
    whole, to be re-parsed lazily as a nested if."""
    if k >= limit or not tk.is_keyword(toks[k], "if"):
        return _substatement(toks, k, limit, file_id)
    start = j = k  # at an 'if' keyword
    while True:
        head = _keyword_paren(toks, j, limit)
        if head is None:
            j = _statement_span(toks, j + 1, limit)
            break
        _, p = _substatement(toks, head[1], limit, file_id)
        if p < limit and tk.is_keyword(toks[p], "else"):
            if p + 1 < limit and tk.is_keyword(toks[p + 1], "if"):
                j = p + 1
                continue
            _, p = _substatement(toks, p + 1, limit, file_id)
        j = p
        break
    return Hole(file_id, start, j), j


def _keyword_paren(toks, i, limit):
    """(index of ``(``, index after its ``)``) when the keyword at ``i`` is
    followed by a parenthesized span, else None."""
    if i + 1 >= limit or not tk.is_punct(toks[i + 1], "("):
        return None
    return i + 1, _balanced_end(toks, i + 1, limit)


def _read_if(toks, i, limit, fid):
    if (head := _keyword_paren(toks, i, limit)) is None:
        return None
    j, cond_end = head
    cond = Hole(fid, j + 1, cond_end - 1)
    then, k = _substatement(toks, cond_end, limit, fid)
    orelse = None
    if k < limit and tk.is_keyword(toks[k], "else"):
        orelse, k = _else_part(toks, k + 1, limit, fid)
    return IfNode(fid, toks[i].line, i, k, cond=cond, then=then, orelse=orelse)


def _read_while(toks, i, limit, fid):
    if (head := _keyword_paren(toks, i, limit)) is None:
        return None
    j, cend = head
    body, k = _substatement(toks, cend, limit, fid)
    return WhileNode(fid, toks[i].line, i, k, cond=Hole(fid, j + 1, cend - 1), body=body)


def _read_do(toks, i, limit, fid):
    body, k = _substatement(toks, i + 1, limit, fid)
    if k >= limit or not tk.is_keyword(toks[k], "while") \
            or (head := _keyword_paren(toks, k, limit)) is None:
        return None
    j, cend = head
    end = cend + 1 if cend < limit and tk.is_punct(toks[cend], ";") else cend
    return DoWhileNode(fid, toks[i].line, i, end, body=body, cond=Hole(fid, j + 1, cend - 1))


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
    if send >= limit or not tk.is_punct(toks[send], "{"):
        return None
    bend = _balanced_end(toks, send, limit)
    return SwitchNode(
        fid, toks[i].line, i, bend,
        subject=Hole(fid, j + 1, send - 1), body=Hole(fid, send + 1, bend - 1),
    )


def _read_return(toks, i, limit, fid):
    end = _statement_span(toks, i + 1, limit)
    expr_end = end - 1 if end > i + 1 and tk.is_punct(toks[end - 1], ";") else end
    expr = Hole(fid, i + 1, expr_end) if expr_end > i + 1 else None
    return ReturnNode(fid, toks[i].line, i, end, expr=expr)


def _read_jump(toks, i, limit, fid):
    """``break`` or ``continue``, with the ``;`` after it if there is one."""
    end = i + 2 if i + 1 < limit and tk.is_punct(toks[i + 1], ";") else i + 1
    cls = BreakNode if toks[i].text == "break" else ContinueNode
    return cls(fid, toks[i].line, i, end)


def _read_goto(toks, i, limit, fid):
    if i + 1 >= limit or toks[i + 1].kind != tk.IDENTIFIER:
        return None
    end = _statement_span(toks, i + 1, limit)
    return GotoNode(fid, toks[i].line, i, end, label=toks[i + 1].text)


def _read_case(toks, i, limit, fid):
    j = tk.top_level(toks, i + 1, limit, (":", ";"))
    if j < limit and tk.is_punct(toks[j], ":"):
        return LabelNode(fid, toks[i].line, i, j + 1, case_expr=Hole(fid, i + 1, j))
    return None


def _read_default(toks, i, limit, fid):
    if i + 1 < limit and tk.is_punct(toks[i + 1], ":"):
        return LabelNode(fid, toks[i].line, i, i + 2, is_default=True)
    return None


_KEYWORD_READERS = {
    "if": _read_if, "while": _read_while, "do": _read_do, "for": _read_for,
    "switch": _read_switch, "return": _read_return, "break": _read_jump,
    "continue": _read_jump, "goto": _read_goto, "case": _read_case,
    "default": _read_default,
}


def _match_statement(cur: tk.Cursor):
    """The statement at the cursor, read by its first token: a block, a
    keyword's statement, a declaration or a label.
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
        if i + 1 < limit and tk.is_punct(toks[i + 1], ":"):
            return LabelNode(fid, t.line, i, i + 2, name=t.text)
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


MODULE_FIELDS = ("MODULE_DESCRIPTION", "MODULE_AUTHOR", "MODULE_LICENSE")
_TAGGED = ("struct", "union", "enum")
_NO_BODY_AFTER = ("=", ",", *_TAGGED)  # a ``{`` after one opens no item's body


class SourceFile:
    """One file as read: its source and tokens, and its top-level ``items``,
    each ``(start, head end, end, definition or None)``, with the first
    definition of each function name, the ``(open, close)`` of each struct
    or union tag's first body, nested ones included, the
    ``MODULE_*("…")`` strings by field, and, for a corpus file, its own
    ``#define``s (``Corpus.add_file``)."""

    __slots__ = ("source", "tokens", "items", "functions", "tags", "module", "defines")

    def __init__(self, file_id: str, source: str):
        self.source, self.tokens = source, tk.FileTokens(source)
        self.items, self.functions, self.tags, self.defines = [], {}, {}, {}
        self.module: dict[str, list[str]] = {k: [] for k in MODULE_FIELDS}
        self._read_items(file_id)

    def _read_items(self, file_id):
        """One walk over the items. An item ends after a ``;`` or ``}`` at
        its top level, or with a body: a ``{`` after none of ``=``, ``,``,
        ``struct``, ``union``, ``enum`` and such a keyword's tag. A bracket
        that never closes is stepped past alone, any other jumped to its
        closer, so a body, garbage in it included, hides nothing after it."""
        toks, module = self.tokens, self.module
        closers, n = toks.closers, len(toks)
        i = 0
        while i < n:
            start, body = i, None
            before = last = toks[i]  # the two tokens before; none yet
            while i < n:
                t = toks[i]
                i += 1
                if t.kind == tk.PUNCT:
                    if t.text == ";" or t.text == "}":
                        break
                    if t.text in "([{" and (close := closers[i - 1]) < n:
                        if t.text == "{" and last.text not in _NO_BODY_AFTER and not (
                                last.kind == tk.IDENTIFIER and before.text in _TAGGED):
                            body, i = i - 1, close + 1
                            break
                        i, t = close + 1, toks[close]
                elif t.text in module and i + 1 < n and toks[i].text == "(" \
                        and toks[i + 1].kind == tk.STRING and len(toks[i + 1].text) >= 2:
                    module[t.text].append(toks[i + 1].text[1:-1])
                before, last = last, t
            head = i if body is None else body
            fdef = None if body is None else _definition(toks, file_id, start, body, i)
            if fdef is not None:
                self.functions.setdefault(fdef.name, fdef)
            self.items.append((start, head, i, fdef))
            tag_bodies(toks, start, head, self.tags)


def _definition(toks, file_id, start, body, end) -> FunctionDefNode | None:
    """The function the item ``toks[start:end]`` with its body at ``body``
    defines: the first identifier of its head, not after ``.``, ``->`` or
    ``#``, that a ``(…)`` follows whose declarator ends at the body."""
    for i in range(start, body - 1):
        t = toks[i]
        if t.kind != tk.IDENTIFIER or not tk.is_punct(toks[i + 1], "(") or \
                i and toks[i - 1].kind == tk.PUNCT and toks[i - 1].text in (".", "->", "#"):
            continue
        close = toks.closers[i + 1]
        if close < body and _declarator_end(toks, i, close + 1) == body:
            return FunctionDefNode(file_id, t.line, i, end, name=t.text,
                                   params=Hole(file_id, i + 2, close),
                                   body=Hole(file_id, body + 1, end - 1))
    return None


def tag_bodies(toks, start, stop, found) -> dict[str, tuple[int, int]]:
    """``found``, with the ``(open, close)`` of each ``struct tag {…}`` or
    ``union tag {…}`` in ``toks[start:stop]`` whose tag it lacks added,
    nested ones too; a body that never closes is none."""
    n = len(toks)
    for k in range(start, stop - 2):
        t = toks[k]
        if t.kind == tk.KEYWORD and (t.text == "struct" or t.text == "union") \
                and toks[k + 1].kind == tk.IDENTIFIER and tk.is_punct(toks[k + 2], "{") \
                and (close := tk.closing(toks, k + 2, n)) < n:
            found.setdefault(toks[k + 1].text, (k + 2, close))
    return found


class Corpus:
    """The source files of one module, in deterministic order, each read
    once into its record (``SourceFile``), from which every file-scope
    lookup answers; a snippet has a record too, but no lookup reads it."""

    def __init__(self):
        self.files: list[str] = []  # corpus files in order; no scratch buffers
        self.records: dict[str, SourceFile] = {}  # files and snippets by id
        self.macros: dict[str, mc.MacroDef] = {}

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
            corpus.add_file(str(getattr(p, "name", p)), Path(p).read_bytes())
        return corpus

    def add_file(self, file_id: str, text):
        """Read a corpus file into a new record, or a file read again into
        its record, and rebuild ``macros`` in place from every file's own
        ``#define``s in file order, so that one a file dropped is gone."""
        if isinstance(text, (bytes, bytearray)):
            text = bytes(text).decode("latin-1")
        tokens = self.add_scratch(file_id, text)
        self.records[file_id].defines = mc.scan_defines(tokens, file_id)
        if file_id not in self.files:
            self.files.append(file_id)
        self.macros.clear()
        for fid in self.files:
            self.macros.update(self.records[fid].defines)

    def add_scratch(self, file_id: str, text: str) -> tk.FileTokens:
        """Read a transient buffer (snippets); scratch files are reachable
        by file id but excluded from corpus lookups."""
        record = self.records[file_id] = SourceFile(file_id, text)
        return record.tokens

    def tokens(self, file_id: str) -> tk.FileTokens:
        """A file's code tokens, with their index."""
        return self.records[file_id].tokens

    def source(self, file_id: str) -> str:
        return self.records[file_id].source

    def text(self, file_id: str, first: tk.Token, last: tk.Token) -> str:
        """The source of a file from token ``first`` through token
        ``last``, with what lies between them."""
        return self.records[file_id].source[first.byte_offset : last.byte_offset + len(last.text)]

    def find_function(self, name: str) -> FunctionDefNode | None:
        """The first definition of ``name`` in file order; None for a macro."""
        if name in self.macros:
            return None
        for file_id in self.files:
            fdef = self.records[file_id].functions.get(name)
            if fdef is not None:
                return fdef
        return None

    def module_info(self) -> dict[str, list[str]]:
        """The ``MODULE_*`` strings by field, in file order."""
        return {k: [s for fid in self.files for s in self.records[fid].module[k]]
                for k in MODULE_FIELDS}


# The public name of the lookup: ``find_function_definition(corpus, name)``.
find_function_definition = Corpus.find_function


def _declarator_end(toks, i, k) -> int:
    """The index after the declarator of the name at ``toks[i]``, whose
    parameter list ends before ``k``: past the ``)`` of each ``(*`` around
    them and the ``[…]`` and ``(…)`` suffixes after it, when a type
    specifier, a name or a ``*`` stands before the outermost ``(``; else
    ``k``."""
    n, a, end = len(toks), i - 1, k
    while True:
        p = a
        while p >= 0 and tk.is_punct(toks[p], "*"):
            p -= 1
        if p == a or p < 0 or not tk.is_punct(toks[p], "(") or tk.closing(toks, p, n) != end:
            break
        end += 1
        while end < n and toks[end].kind == tk.PUNCT and toks[end].text in ("[", "("):
            end = tk.closing(toks, end, n) + 1
        a = p - 1
    t = toks[a] if end > k and a >= 0 else None
    return end if t and (t.kind == tk.IDENTIFIER or t.text in tk.DECL_KEYWORDS
                         or t.text == "*") else k
