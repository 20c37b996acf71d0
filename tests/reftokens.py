"""Reference tokenizer: one Python step per source character, then a fold
of each preprocessor line into one token.

``plain_tokenize`` is the ``tokenize`` that ``ssi.tokens`` had before its
one compiled pattern, and ``at_line_start`` and ``line_end`` are the rule
its per-file index used to find preprocessor lines. ``tokenize`` merges the
tokens of each such line, from a ``#`` at line start through the newline
that ends it, into one ``directive`` token; it is the differential
reference for ``ssi.tokens.tokenize`` (``tests/test_tokens.py``), and
``plain_tokenize`` for the plain tokens a macro's body is read into. The
token kinds, keyword and punctuator tables and ``Token`` are imported from
``ssi.tokens``, and the character sets the old module derived from them are
defined here.
"""

from ssi.tokens import (
    CHAR,
    COMMENT,
    DIRECTIVE,
    IDENTIFIER,
    KEYWORD,
    KEYWORDS,
    NEWLINE,
    NUMBER,
    PUNCT,
    PUNCTUATORS,
    STRING,
    TRIVIA,
    UNKNOWN,
    WHITESPACE,
    Token,
)

_PUNCT3, _PUNCT2, _PUNCT1 = (
    frozenset(p for p in PUNCTUATORS if len(p) == n) for n in (3, 2, 1)
)
_LETTER = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGIT = frozenset("0123456789")
_NUMBER_CONT = _LETTER | _DIGIT | {"."}
_SPACE = frozenset(" \t\r\f\v")
_MULTILINE = frozenset((COMMENT, STRING, CHAR))


def _scan_quoted(src: str, i: int, quote: str) -> int:
    # Unterminated literals end at the newline (or EOF) to stay total.
    n = len(src)
    i += 1
    while i < n:
        c = src[i]
        if c == "\\":
            i += 2
        elif c == quote:
            return min(i + 1, n)
        elif c == "\n":
            return i
        else:
            i += 1
    return n


def _scan_number(src: str, i: int) -> int:
    n = len(src)
    i += 1
    while i < n and src[i] in _NUMBER_CONT:
        i += 1
    return i


def plain_tokenize(source, file_id: str = "<memory>") -> list[Token]:
    """Tokenize ``source`` (str or bytes) into a lossless token sequence.

    ``file_id`` is accepted for symmetry with the rest of the pipeline; the
    tokens themselves carry only positions.
    """
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("latin-1")
    tokens: list[Token] = []
    append = tokens.append
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        c = source[i]
        start = i
        if c == "\n":
            append(Token(NEWLINE, c, start, line, col))
            i, line, col = i + 1, line + 1, 1
            continue
        if c in _SPACE:
            while i < n and source[i] in _SPACE:
                i += 1
            kind = WHITESPACE
        elif c in _LETTER:
            while i < n and (source[i] in _LETTER or source[i] in _DIGIT):
                i += 1
            kind = KEYWORD if source[start:i] in KEYWORDS else IDENTIFIER
        elif c in _DIGIT:
            i, kind = _scan_number(source, i), NUMBER
        elif c == "/" and source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            kind = COMMENT
        elif c == "/" and source.startswith("/*", i):
            end = source.find("*/", i + 2)
            i = n if end < 0 else end + 2
            kind = COMMENT
        elif c == '"':
            i, kind = _scan_quoted(source, i, '"'), STRING
        elif c == "'":
            i, kind = _scan_quoted(source, i, "'"), CHAR
        elif source[i : i + 3] in _PUNCT3:
            i, kind = i + 3, PUNCT
        elif source[i : i + 2] in _PUNCT2:
            i, kind = i + 2, PUNCT
        elif c in _PUNCT1:
            i, kind = i + 1, PUNCT
        else:
            i, kind = i + 1, UNKNOWN
        text = source[start:i]
        append(Token(kind, text, start, line, col))
        # Only a comment or a literal (through a backslash-newline) can hold
        # a newline; every other token stays on its line.
        nl = text.count("\n") if kind in _MULTILINE else 0
        if nl:
            line += nl
            col = len(text) - text.rindex("\n")
        else:
            col += len(text)
    return tokens


def tokenize(source, file_id: str = "<memory>") -> list[Token]:
    """``plain_tokenize`` with each preprocessor line folded into one
    ``directive`` token."""
    toks = plain_tokenize(source, file_id)
    out, i, n = [], 0, len(toks)
    while i < n:
        t = toks[i]
        if t.kind == PUNCT and t.text == "#" and at_line_start(toks, i):
            end = min(line_end(toks, i, n) + 1, n)
            out.append(Token(DIRECTIVE, "".join(x.text for x in toks[i:end]),
                             t.byte_offset, t.line, t.column))
            i = end
        else:
            out.append(t)
            i += 1
    return out


def at_line_start(tokens: list[Token], i: int) -> bool:
    """Whether only whitespace comes before ``tokens[i]`` on its line."""
    j = i - 1
    while j >= 0 and tokens[j].kind == WHITESPACE:
        j -= 1
    return j < 0 or tokens[j].kind == NEWLINE


def line_end(tokens: list[Token], i: int, limit: int) -> int:
    """Index of the newline that ends the line ``tokens[i]`` is on, or
    ``limit``. A backslash followed by nothing but whitespace before the
    newline continues the line, as a preprocessor directive does."""
    for j in range(i, limit):
        if tokens[j].kind == NEWLINE:
            k = j - 1
            while k > i and tokens[k].kind == WHITESPACE:
                k -= 1
            if k < i or tokens[k].kind != PUNCT or tokens[k].text != "\\":
                return j
    return limit


def skip_trivia(tokens, j, limit):
    """Index of the first token at or after ``j`` that is not trivia."""
    while j < limit and tokens[j].kind in TRIVIA:
        j += 1
    return j
