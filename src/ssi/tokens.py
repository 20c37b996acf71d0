"""Lossless tokenization of C-family source text.

The tokenizer is total: any byte sequence tokenizes without error, unknown
bytes become ``unknown-byte`` tokens, and concatenating the ``text`` of every
token reproduces the input exactly. That round-trip property is what lets
later stages skip, lazily re-parse, or quote verbatim any region of source
they never analyzed.

``tokenize`` walks the matches of one compiled pattern, ``_TOKEN``, whose
alternatives are tried in order at each position: newline, a whitespace run,
identifier, number, ``//`` and ``/* */`` comments, string and char literals,
a preprocessor line, punctuators longest first, and any one character. A
token's kind is looked up from its text (keywords, punctuators) in
``_KIND_OF_TEXT``, else from its first character in ``_KIND_OF_FIRST``.

A preprocessor line is one ``directive`` token, as C11 5.1.1.2 reads it: a
``#`` with only blanks before it on its line, through the newline that ends
the line. A backslash with only blanks after it continues the line, and a
comment or literal that spans lines stays inside. The pattern takes any
``#`` that is not ``##`` this way; a ``#`` after other tokens on its line is
then tokenized again, as a punctuator and the plain tokens after it
(``plain_tokens``), which is also how a macro's body is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import UnbalancedDelimiter
from .values import Record

IDENTIFIER = "identifier"
KEYWORD = "keyword"
NUMBER = "number-literal"
STRING = "string-literal"
CHAR = "char-literal"
PUNCT = "punctuator"
COMMENT = "comment"
WHITESPACE = "whitespace"
NEWLINE = "newline"
UNKNOWN = "unknown-byte"
DIRECTIVE = "directive"

TRIVIA = frozenset((COMMENT, WHITESPACE, NEWLINE))

KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Static_assert
    """.split()
)

# The keywords that can start a declaration.
BASE_TYPE_KEYWORDS = frozenset(
    "void char short int long float double signed unsigned _Bool".split()
)
QUALIFIER_KEYWORDS = frozenset(
    "const volatile static extern register inline restrict".split()
)
DECL_KEYWORDS = BASE_TYPE_KEYWORDS | QUALIFIER_KEYWORDS | {
    "struct", "union", "enum", "typedef"}

# The tokenizer takes the longest punctuator that matches.
PUNCTUATORS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##",
    "[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
    "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",", "#", "\\",
)

# ASCII classes only. The last branch takes any one character, so the
# matches tile the source. An unterminated comment runs to the end, an
# unterminated literal to its newline (a backslash escapes any character, a
# newline too).
_BLANKS = " \t\r\f\v"
_COMMENTS = r"//[^\n]*|/\*(?:.*?\*/|.*)"
_LITERALS = r""""(?:[^"\\\n]|\\.)*(?:"|\\\Z)?|'(?:[^'\\\n]|\\.)*(?:'|\\\Z)?"""
_WORDS = "|".join((r"\n|[ \t\r\f\v]+|[A-Za-z_][A-Za-z0-9_]*|[0-9][A-Za-z0-9_.]*",
                   _COMMENTS, _LITERALS))
_PUNCTUATION = "|".join(re.escape(p) for p in sorted(PUNCTUATORS, key=len, reverse=True)) + "|."
# A preprocessor line reads comments and literals whole, so the newline that
# ends it is one the plain pattern makes a newline token of.
_LINE = "|".join((r"#(?!#)(?:[^\n\"'/\\]+", _COMMENTS, _LITERALS,
                  r"\\[ \t\r\f\v]*\n|[^\n])*+\n?"))
_PLAIN = re.compile(_WORDS + "|" + _PUNCTUATION, re.S)
_TOKEN = re.compile(_WORDS + "|" + _LINE + "|" + _PUNCTUATION, re.S)
# A ``/`` that is no punctuator starts a comment; a first character in
# neither table makes an unknown byte. A lone ``#`` is looked up by its first
# character, as a directive that ``tokenize`` checks the place of.
_KIND_OF_TEXT = {"\n": NEWLINE, **dict.fromkeys(KEYWORDS, KEYWORD),
                 **dict.fromkeys((p for p in PUNCTUATORS if p != "#"), PUNCT)}
_KIND_OF_FIRST = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", IDENTIFIER),
    **dict.fromkeys("0123456789", NUMBER), **dict.fromkeys(_BLANKS, WHITESPACE),
    "/": COMMENT, '"': STRING, "'": CHAR, "#": DIRECTIVE,
}


class Token(Record):
    __slots__ = ("kind", "text", "byte_offset", "line", "column", "synthetic")

    def __init__(self, kind: str, text: str, byte_offset: int, line: int,
                 column: int, synthetic: bool = False):
        self.kind = kind
        self.text = text
        self.byte_offset = byte_offset
        self.line = line        # 1-based
        self.column = column    # 1-based
        self.synthetic = synthetic  # product of macro expansion, offsets borrowed


def tokenize(source, file_id: str = "<memory>") -> list[Token]:
    """Tokenize ``source`` (str or bytes) into a lossless token sequence.

    ``file_id`` is accepted for symmetry with the rest of the pipeline; the
    tokens themselves carry only positions.
    """
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("latin-1")
    tokens: list[Token] = []
    append = tokens.append
    kind_of_text, kind_of_first = _KIND_OF_TEXT.get, _KIND_OF_FIRST.get
    offset, line, line_start = 0, 1, 0
    for text in _TOKEN.findall(source):
        kind = kind_of_text(text) or kind_of_first(text[0], UNKNOWN)
        # A ``#`` with more than blanks before it on its line is no directive.
        if kind is DIRECTIVE and source[line_start:offset].strip(_BLANKS):
            tokens += _after_mid_line_hash(source, offset, offset + len(text), line, line_start)
        else:
            append(Token(kind, text, offset, line, offset - line_start + 1))
        # Only a newline, a comment, a literal (through a backslash-newline)
        # or a preprocessor line can hold a newline.
        if "\n" in text:
            line += text.count("\n")
            line_start = offset + text.rindex("\n") + 1
        offset += len(text)
    return tokens


def plain_tokens(text: str, start: int, end: int, base: int, line: int,
                 line_start: int) -> list[Token]:
    """The tokens of ``text[start:end]`` by the pattern that makes no
    directive tokens, so a ``#`` is a punctuator. A token at ``text[p]`` is
    placed at byte ``base + p`` and counts its column from ``line_start``,
    the index in ``text`` where ``line``, the line of ``text[start]``,
    begins. ``end`` is a newline's end or the end of the source."""
    tokens = []
    append = tokens.append
    offset = start
    for t in _PLAIN.findall(text, start, end):
        kind = _KIND_OF_TEXT.get(t) or _KIND_OF_FIRST.get(t[0], UNKNOWN)
        append(Token(PUNCT if kind is DIRECTIVE else kind, t, base + offset, line,
                     offset - line_start + 1))
        if "\n" in t:
            line += t.count("\n")
            line_start = offset + t.rindex("\n") + 1
        offset += len(t)
    return tokens


def _after_mid_line_hash(source, start, end, line, line_start):
    """The tokens of ``source[start:end]``, the rest of a line from a ``#``
    with tokens before it: plain tokens, up to a ``#`` that starts a line
    continued from this one, which begins a directive through ``end``."""
    tokens = plain_tokens(source, start, end, 0, line, line_start)
    at_line_start = False
    for i, t in enumerate(tokens):
        if at_line_start and t.text == "#":
            tokens[i:] = [Token(DIRECTIVE, source[t.byte_offset : end], t.byte_offset,
                                t.line, t.column)]
            break
        if t.kind is not WHITESPACE:
            at_line_start = t.kind is NEWLINE
    return tokens


@dataclass
class Cursor:
    """A position within a token sequence.

    ``limit`` bounds the cursor to a sub-range (a hole); ``file_id`` names the
    file the tokens came from so parse results can point back at it.
    """

    tokens: list[Token]
    index: int = 0
    skip_trivia: bool = True
    limit: int | None = None
    file_id: str = "<memory>"

    def __post_init__(self):
        if self.limit is None:
            self.limit = len(self.tokens)
        # A cursor never moves (``advanced_to`` makes a new one), so the
        # first code token at or after ``index`` is found once.
        j = self.index
        if self.skip_trivia:
            toks, limit = self.tokens, self.limit
            while j < limit and toks[j].kind in TRIVIA:
                j += 1
        self._code = j

    def at_end(self) -> bool:
        return self._code >= self.limit

    def peek(self) -> Token | None:
        j = self._code
        return self.tokens[j] if j < self.limit else None

    def peek_index(self) -> int:
        return self._code

    def advanced_to(self, index: int) -> "Cursor":
        return Cursor(self.tokens, index, self.skip_trivia, self.limit, self.file_id)


def skip_trivia(tokens: list[Token], j: int, limit: int) -> int:
    while j < limit and tokens[j].kind in TRIVIA:
        j += 1
    return j


def code_before(tokens: list[Token], i: int) -> int:
    """Index of the last non-trivia token before ``tokens[i]``, or -1."""
    i -= 1
    while i >= 0 and tokens[i].kind in TRIVIA:
        i -= 1
    return i


def is_punct(t: Token, text: str) -> bool:
    return t.kind == PUNCT and t.text == text


def is_keyword(t: Token, word: str) -> bool:
    return t.kind == KEYWORD and t.text == word


_CLOSER = {"(": ")", "[": "]", "{": "}"}
_OPENER = {")": "(", "]": "[", "}": "{"}


class Matched(list):
    """A token list that knows, in ``closers``, what ``closing`` finds from
    each of its ``(``, ``[`` and ``{`` to the end (the length when it never
    closes): a ``FileTokens`` and its ``code``. Never changed once built;
    its slices are plain lists."""

    __slots__ = ("closers",)


class FileTokens(Matched):
    """A corpus file's tokens, indexed in one pass: ``closers``;
    ``directives`` lists the index of each directive token in file order;
    ``names`` lists each identifier's positions in file order; and ``code``
    is a ``Matched`` list of the tokens that are neither trivia nor
    directives, whose ``closers`` count only those."""

    __slots__ = ("directives", "names", "code")

    def __init__(self, tokens: list[Token]):
        super().__init__(tokens)
        # The pass reads ``tokens``: a plain list indexes faster than a subclass.
        n = len(tokens)
        self.closers, self.directives, self.names = closers, directives, names = {}, [], {}
        code, code_closers = [], {}
        open_at, code_open_at = {"(": [], "[": [], "{": []}, {"(": [], "[": [], "{": []}
        for i, t in enumerate(tokens):
            kind, text = t.kind, t.text
            if kind == IDENTIFIER:
                names.setdefault(text, []).append(i)
            elif kind == PUNCT:
                if text in open_at:
                    open_at[text].append(i)
                    code_open_at[text].append(len(code))
                elif text in _OPENER:
                    if stack := open_at[_OPENER[text]]:
                        closers[stack.pop()] = i
                    if stack := code_open_at[_OPENER[text]]:
                        code_closers[stack.pop()] = len(code)
            elif kind in TRIVIA:
                continue
            elif kind == DIRECTIVE:
                directives.append(i)
                continue
            code.append(t)
        for stack in open_at.values():
            closers.update(dict.fromkeys(stack, n))
        for stack in code_open_at.values():
            code_closers.update(dict.fromkeys(stack, len(code)))
        self.code = Matched(code)
        self.code.closers = code_closers


def closing(tokens: list[Token], i: int, limit: int) -> int:
    """Index of the bracket that closes the one at ``tokens[i]``, or
    ``limit`` when it is never closed.

    Only that one bracket pair is counted; everything in between may be
    arbitrary tokens, other brackets unbalanced included. Delimiters inside
    string, char, or comment tokens are invisible because they never form
    punctuator tokens of their own. A ``Matched`` list answers from its
    index.
    """
    if isinstance(tokens, Matched):
        end = tokens.closers[i]
        return end if end < limit else limit
    open_text = tokens[i].text
    close_text = _CLOSER[open_text]
    depth = 0
    for j in range(i, limit):
        t = tokens[j]
        if t.kind == PUNCT:
            if t.text == open_text:
                depth += 1
            elif t.text == close_text:
                depth -= 1
                if depth == 0:
                    return j
    return limit


def top_level(tokens: list[Token], j: int, limit: int, stops) -> int:
    """Index of the first punctuator in ``stops`` from ``j`` on that is not
    nested in brackets, else ``limit``. All three bracket kinds count, an
    opening bracket in ``stops`` is found before it nests, and a stray
    closer takes the depth below zero."""
    depth = 0
    for k in range(j, limit):
        t = tokens[k]
        if t.kind == PUNCT:
            if depth == 0 and t.text in stops:
                return k
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
    return limit


def split_top_level(tokens: list[Token], start: int, end: int, sep: str) -> list[tuple[int, int]]:
    """The ``[a, b)`` ranges of ``tokens[start:end]`` between the ``sep``
    punctuators that ``top_level`` finds; one range when there are none."""
    parts = []
    while True:
        k = top_level(tokens, start, end, (sep,))
        parts.append((start, k))
        if k >= end:
            return parts
        start = k + 1


def find_balanced_span(cursor: Cursor, open_text: str, close_text: str) -> tuple[int, int]:
    """Return the inclusive token index range from ``open_text`` at the cursor
    through its matching ``close_text``, one of the bracket pairs ``()``,
    ``[]`` and ``{}``, matched as ``closing`` does.
    """
    toks = cursor.tokens
    start = cursor.peek_index()
    if start >= cursor.limit or toks[start].text != open_text:
        raise UnbalancedDelimiter(
            f"expected {open_text!r} at token {start}",
            line=toks[start].line if start < len(toks) else None,
        )
    if _CLOSER.get(open_text) != close_text:
        raise ValueError(f"not a bracket pair: {open_text!r} {close_text!r}")
    end = closing(toks, start, cursor.limit)
    if end == cursor.limit:
        raise UnbalancedDelimiter(
            f"unbalanced {open_text!r} opened at line {toks[start].line}",
            line=toks[start].line,
        )
    return (start, end)


def text_of_range(tokens: list[Token], start: int, end: int) -> str:
    """Exact source text for tokens[start:end], byte for byte."""
    return "".join(t.text for t in tokens[start:end])


def synthetic_copy(token: Token, site: Token) -> Token:
    """Copy of ``token`` positioned at a macro use site."""
    return Token(token.kind, token.text, site.byte_offset, site.line,
                 site.column, True)
