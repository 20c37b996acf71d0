"""Tokenization of C-family source text.

``tokenize`` is total and lossless: any byte sequence tokenizes without
error, unknown bytes become ``unknown-byte`` tokens, and concatenating the
``text`` of every token reproduces the input exactly. ``FileTokens``, the
reader of a corpus file or snippet, makes the same tokens but none for
whitespace, newlines and comments, and keeps each preprocessor line beside
its list, as C's phase 4 takes directives out before any parsing, so the
list holds only code. A ``Token`` is a slotted dataclass, never changed
once made; it keeps its byte offset: a region's text is read from the
source (``Corpus.text``), not by joining tokens.

Both walk the matches of one compiled pattern, ``_TOKEN``, whose
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
then a punctuator, and the matching starts again just after it, so the rest
of the line is read as code. A macro's body is read by the pattern that
makes no directive tokens (``plain_tokens``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import UnbalancedDelimiter

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


@dataclass(slots=True, unsafe_hash=True)
class Token:
    kind: str
    text: str
    byte_offset: int
    line: int    # 1-based
    column: int  # 1-based
    synthetic: bool = False  # product of macro expansion, offsets borrowed


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
    while True:
        for text in _TOKEN.findall(source, offset):
            kind = kind_of_text(text) or kind_of_first(text[0], UNKNOWN)
            if kind is DIRECTIVE and source[line_start:offset].strip(_BLANKS):
                append(Token(PUNCT, "#", offset, line, offset - line_start + 1))
                offset += 1
                break  # a mid-line ``#``: the line reads on after it
            append(Token(kind, text, offset, line, offset - line_start + 1))
            # Only a newline, a comment, a literal (through a backslash-newline)
            # or a preprocessor line can hold a newline.
            if "\n" in text:
                line += text.count("\n")
                line_start = offset + text.rindex("\n") + 1
            offset += len(text)
        else:
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


_new = object.__new__


class FileTokens(list):
    """The code tokens ``tokenize`` gives a source text, the same in kind,
    text and position, but for whitespace, newlines and comments, which are
    not made, and directives, which ``directives`` lists in file order
    instead; indexed in the same pass: ``closers`` maps each ``(``, ``[``
    and ``{`` to what ``closing`` finds for it (the length when it never
    closes). Never changed once built; its slices are plain lists."""

    __slots__ = ("closers", "directives")

    def __init__(self, source: str):
        tokens: list[Token] = []
        append = tokens.append
        kind_of_text, kind_of_first = _KIND_OF_TEXT.get, _KIND_OF_FIRST.get
        self.closers, self.directives = closers, directives = {}, []
        open_at = {"(": [], "[": [], "{": []}
        offset, line, line_start = 0, 1, 0
        while True:
            for text in _TOKEN.findall(source, offset):
                kind = kind_of_text(text) or kind_of_first(text[0], UNKNOWN)
                if kind is WHITESPACE:
                    offset += len(text)
                    continue
                if kind is NEWLINE:
                    offset = line_start = offset + 1
                    line += 1
                    continue
                if kind is PUNCT:
                    if text in open_at:
                        open_at[text].append(len(tokens))
                    elif text in _OPENER and (stack := open_at[_OPENER[text]]):
                        closers[stack.pop()] = len(tokens)
                elif kind is DIRECTIVE:
                    if source[line_start:offset].strip(_BLANKS):
                        append(Token(PUNCT, "#", offset, line, offset - line_start + 1))
                        offset += 1
                        break  # a mid-line ``#``, as ``tokenize`` reads it
                if kind is not COMMENT:  # built as ``ValueTable.mint`` builds a Value
                    t = _new(Token)
                    t.kind, t.text, t.byte_offset, t.line = kind, text, offset, line
                    t.column, t.synthetic = offset - line_start + 1, False
                    (directives if kind is DIRECTIVE else tokens).append(t)
                if "\n" in text:
                    line += text.count("\n")
                    line_start = offset + text.rindex("\n") + 1
                offset += len(text)
            else:
                break
        for stack in open_at.values():
            closers.update(dict.fromkeys(stack, len(tokens)))
        super().__init__(tokens)


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


def is_punct(t: Token, text: str) -> bool:
    return t.kind == PUNCT and t.text == text


def is_keyword(t: Token, word: str) -> bool:
    return t.kind == KEYWORD and t.text == word


_CLOSER = {"(": ")", "[": "]", "{": "}"}
_OPENER = {")": "(", "]": "[", "}": "{"}


def closing(tokens: list[Token], i: int, limit: int) -> int:
    """Index of the bracket that closes the one at ``tokens[i]``, or
    ``limit`` when it is never closed.

    Only that one bracket pair is counted; everything in between may be
    arbitrary tokens, other brackets unbalanced included. Delimiters inside
    string, char, or comment tokens are invisible because they never form
    punctuator tokens of their own. A ``FileTokens`` list answers from its
    index.
    """
    if tokens.__class__ is FileTokens:
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


def synthetic_copy(token: Token, site: Token) -> Token:
    """Copy of ``token`` positioned at a macro use site."""
    return Token(token.kind, token.text, site.byte_offset, site.line,
                 site.column, True)
