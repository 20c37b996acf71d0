import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refeval
import reftokens
from test_refscan import soups
from ssi import tokens as tk
from ssi.errors import UnbalancedDelimiter


def kinds(toks):
    return [t.kind for t in toks]


def texts(toks):
    return [t.text for t in toks]


def test_empty_input():
    assert tk.tokenize("") == []


def test_simple_declaration_token_stream():
    toks = tk.tokenize("int x = a + b;")
    assert texts(toks) == ["int", " ", "x", " ", "=", " ", "a", " ", "+", " ", "b", ";"]
    assert kinds(toks) == [
        tk.KEYWORD, tk.WHITESPACE, tk.IDENTIFIER, tk.WHITESPACE, tk.PUNCT,
        tk.WHITESPACE, tk.IDENTIFIER, tk.WHITESPACE, tk.PUNCT, tk.WHITESPACE,
        tk.IDENTIFIER, tk.PUNCT,
    ]


def test_arrow_is_one_punctuator():
    toks = [t for t in tk.tokenize("writel(val, pc->base + reg)")
            if t.kind not in tk.TRIVIA]
    assert texts(toks) == ["writel", "(", "val", ",", "pc", "->", "base",
                           "+", "reg", ")"]
    assert toks[0].kind == tk.IDENTIFIER
    assert toks[5].kind == tk.PUNCT


def longest_punctuators(text):
    """Reference split of a run of punctuator characters: at each position
    the longest punctuator that matches, else one unknown byte."""
    out, i = [], 0
    while i < len(text):
        p = max((p for p in tk.PUNCTUATORS if text.startswith(p, i)), key=len, default=None)
        out.append((tk.PUNCT, p) if p else (tk.UNKNOWN, text[i]))
        i += len(p) if p else 1
    return out


@settings(max_examples=300)
@given(st.text(alphabet="<>=.-+&|!*/%^#\\:?$@", min_size=1, max_size=40).map(";".__add__))
def test_punctuators_take_the_longest_match(text):
    # The leading ``;`` keeps a ``#`` from starting a preprocessor line.
    toks = tk.tokenize(text)
    if any(t.kind == tk.COMMENT for t in toks):
        return
    assert [(t.kind, t.text) for t in toks] == longest_punctuators(text)


def test_unknown_bytes_never_fail():
    toks = tk.tokenize("@ $ ` \x01")
    assert [t.kind for t in toks if t.kind != tk.WHITESPACE] == [tk.UNKNOWN] * 4


def test_bytes_input_round_trip():
    data = bytes(range(256))
    toks = tk.tokenize(data)
    assert "".join(t.text for t in toks).encode("latin-1") == data


def _recount_positions(source, toks):
    # Independent position oracle: walk the source tracking line/column.
    line, col, off = 1, 1, 0
    for t in toks:
        assert t.byte_offset == off
        assert t.line == line
        assert t.column == col
        for c in t.text:
            off += 1
            if c == "\n":
                line += 1
                col = 1
            else:
                col += 1


@settings(max_examples=300)
@given(st.text(min_size=0, max_size=200))
def test_round_trip_any_text(source):
    toks = tk.tokenize(source)
    assert "".join(t.text for t in toks) == source
    _recount_positions(source, toks)
    offsets = [t.byte_offset for t in toks]
    assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)


@settings(max_examples=200)
@given(st.binary(min_size=0, max_size=200))
def test_round_trip_any_bytes(data):
    toks = tk.tokenize(data)
    assert "".join(t.text for t in toks).encode("latin-1") == data


# Fragments whose concatenations exercise every way a token can hold or end
# at a newline: comments across lines, a backslash-newline in a literal,
# unterminated literals, CRLF, and unknown bytes.
POSITION_FRAGMENTS = [
    "\n", "\r\n", " ", "\t", "x1", "42", "/* a\nb */", "/* open", "//c\n",
    "// end", '"s"', '"a\\\nb"', "'c'", "'\\\n'", '"open', "'", "\\",
    "\\\n", "@", "\x00", "\xff", "->", "/", "*", "<<=", "#define", "#",
]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(POSITION_FRAGMENTS), max_size=30).map("".join))
def test_line_and_column_match_a_recount_of_the_prefix(source):
    toks = tk.tokenize(source)
    assert "".join(t.text for t in toks) == source
    for t in toks:
        before = source[: t.byte_offset]
        assert t.line == before.count("\n") + 1
        assert t.column == t.byte_offset - before.rfind("\n")


def test_unterminated_comment_and_string_are_total():
    toks = tk.tokenize("/* never closed")
    assert kinds(toks) == [tk.COMMENT]
    toks = tk.tokenize('"no close\nint x;')
    assert toks[0].kind == tk.STRING
    assert toks[1].kind == tk.NEWLINE


# ------------------------------------------- differential against reftokens

def fields(toks):
    return [(t.kind, t.text, t.byte_offset, t.line, t.column, t.synthetic) for t in toks]


def assert_matches_reference(source):
    assert fields(tk.tokenize(source)) == fields(reftokens.tokenize(source))


# Fragments where the one pattern and the per-character loop could part:
# unterminated literals and comments, a backslash at the end and before a
# newline, CRLF, `/=` against `//`, `..` against `...`, a number that runs
# on through `.`, `e` and letters, NUL, latin-1 bytes and non-ASCII letters;
# and where a preprocessor line could end elsewhere than the reference's
# fold ends it: a backslash then blanks, a comment across lines, a `#` after
# a comment, a bare `#` line and a `#` at the end.
TOKENIZER_FRAGMENTS = [
    '"', "'", "/*", "*/", "/", "//", "/=", "*", "\\", "\n", "\r\n", "\r", " ",
    "\t", "\v", "\f", ".", "..", "...", "1.e5x", "0x1F", "9", "_a9", "x",
    "int", "sizeof", "->", "<<=", ">>", "#", "##", "=", "\x00", "\x80",
    "\xa0", "\xe9", "\xff", "é", "ß", "Ω", "µ", "@", "`",
    "#define", "\\ \n", "/* a\nb */", "/* c */#", "\n#\n",
]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(TOKENIZER_FRAGMENTS), max_size=40).map("".join))
@example('"a\\\nb" \'\\\n\' "open\n\'x\\')
@example("a /= b // c\r\n/* d\n")
@example("s.. t... 1.e5x .5 \x00\xe9\\")
@example("#define X 1 \\ \n + 2\r\n#define Y /* a\nb */ 3\n/* c */#\n#\nx #\n#")
@example("x # y \\\n  #define Z 1\n##\n")
def test_tokens_match_the_reference_on_fragments(source):
    assert_matches_reference(source)
    assert_matches_reference(source.encode("utf-8"))


@settings(max_examples=300)
@given(st.text(max_size=200))
def test_tokens_match_the_reference_on_any_text(source):
    assert_matches_reference(source)


@settings(max_examples=200)
@given(st.binary(max_size=200))
def test_tokens_match_the_reference_on_any_bytes(data):
    assert_matches_reference(data)


EXAMPLE_FILES = sorted(p for p in (Path(__file__).resolve().parent.parent / "example_pinctrl")
                       .rglob("*") if p.is_file())


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_tokens_match_the_reference_on_example_files(path):
    assert_matches_reference(path.read_bytes())


def test_tokens_match_the_reference_on_programs_with_garbage():
    rng = random.Random(12)
    for _ in range(40):
        stmts, _top = refeval.gen_program(rng)
        sites = refeval.untaken_sites(stmts, {})
        assert_matches_reference(refeval.render_program(stmts, set(sites), rng))


# --------------------------------------------------------- balanced spans

def oracle_balanced(toks, start, open_text, close_text):
    """Independent stack-based scan over the token list."""
    depth = 0
    for j in range(start, len(toks)):
        t = toks[j]
        if t.kind != tk.PUNCT:
            continue
        if t.text == open_text:
            depth += 1
        elif t.text == close_text:
            depth -= 1
            if depth == 0:
                return j
    return None


def test_balanced_span_with_nesting():
    toks = tk.tokenize("(a, (b))")
    cur = tk.Cursor(toks, 0)
    start, end = tk.find_balanced_span(cur, "(", ")")
    # Oracle: the stack scan finds the close at index 7 of 8 tokens.
    assert oracle_balanced(toks, 0, "(", ")") == 7
    assert (start, end) == (0, 7)
    assert end == len(toks) - 1


def test_balanced_span_unbalanced_reports_open_line():
    toks = tk.tokenize("{ if (x { }")
    with pytest.raises(UnbalancedDelimiter) as exc:
        tk.find_balanced_span(tk.Cursor(toks, 0), "{", "}")
    assert exc.value.line == 1


def test_balanced_span_contents_need_not_be_c():
    toks = tk.tokenize("{ @#$ not C ! }")
    start, end = tk.find_balanced_span(tk.Cursor(toks, 0), "{", "}")
    assert (start, end) == (0, len(toks) - 1)


def test_braces_inside_strings_and_comments_are_invisible():
    toks = tk.tokenize('{ "}" /* } */ }')
    start, end = tk.find_balanced_span(tk.Cursor(toks, 0), "{", "}")
    assert toks[end].text == "}" and end == len(toks) - 1


@settings(max_examples=200)
@given(st.text(alphabet="(){}ab; \n", min_size=1, max_size=60))
def test_balanced_span_matches_oracle(source):
    for toks in (tk.tokenize(source), tk.FileTokens(source)):
        assert_balanced_span_matches_oracle(toks)


def assert_balanced_span_matches_oracle(toks):
    first = next((i for i, t in enumerate(toks) if t.text == "("), None)
    if first is None:
        return
    expected = oracle_balanced(toks, first, "(", ")")
    cur = tk.Cursor(toks, first)
    if expected is None:
        with pytest.raises(UnbalancedDelimiter):
            tk.find_balanced_span(cur, "(", ")")
        return
    start, end = tk.find_balanced_span(cur, "(", ")")
    assert (start, end) == (first, expected)
    # Every prefix of the span keeps open-count >= close-count.
    depth = 0
    for t in toks[start : end + 1]:
        if t.kind == tk.PUNCT and t.text == "(":
            depth += 1
        elif t.kind == tk.PUNCT and t.text == ")":
            depth -= 1
        assert depth >= 0
    assert depth == 0


# ------------------------------------------------------ the corpus reader

def assert_reader_matches_tokenize(source):
    """``FileTokens(source)`` is ``tokenize(source)`` without trivia and
    directives, field by field, its ``directives`` are ``tokenize``'s
    directive tokens, field by field, and its index is what scans of that
    list find."""
    toks = tk.tokenize(source)
    code = [t for t in toks if t.kind not in tk.TRIVIA and t.kind != tk.DIRECTIVE]
    index = tk.FileTokens(source)
    assert fields(index) == fields(code)
    assert fields(index.directives) == fields(t for t in toks if t.kind == tk.DIRECTIVE)
    openers = [i for i, t in enumerate(code) if t.kind == tk.PUNCT and t.text in "([{"]
    assert index.closers == {i: tk.closing(code, i, len(code)) for i in openers}
    assert type(index[1:]) is list


@settings(max_examples=300)
@given(st.text(alphabet="()[]{}a#\\ \n;", max_size=60))
def test_file_index_answers_as_the_scans_do(source):
    assert_reader_matches_tokenize(source)
    index = tk.FileTokens(source)
    code = list(index)
    for i in index.closers:
        for limit in range(i + 1, len(code) + 1):
            assert tk.closing(index, i, limit) == tk.closing(code, i, limit)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(TOKENIZER_FRAGMENTS), max_size=40).map("".join))
@example("x # y \\\n  #define Z 1\n##\n")
@example("#define X 1 \\ \n + 2\r\n#define Y /* a\nb */ 3\n/* c */#\n#\nx #\n#")
@example("a # b # c \\\n\t# d /* e\n */ # f\n#g")
def test_reader_matches_tokenize_on_fragments(source):
    assert_reader_matches_tokenize(source)


@settings(max_examples=300)
@given(soups)
def test_reader_matches_tokenize_on_token_soup(source):
    assert_reader_matches_tokenize(source)


def test_reader_matches_tokenize_on_the_bundled_driver_and_programs():
    for path in EXAMPLE_FILES:
        assert_reader_matches_tokenize(path.read_bytes().decode("latin-1"))
    rng = random.Random(23)
    for index in range(300):
        stmts, _ = refeval.gen_program(rng, max_stmts=24)
        sites = refeval.untaken_sites(stmts, {}) if index % 2 else []
        assert_reader_matches_tokenize(refeval.render_program(stmts, set(sites), rng))


# ------------------------------------------------- top-level scans, lines

def at_top(toks, start, k, stops):
    """Whether toks[k] is a stop with as many openers as closers before it
    in toks[start:k]."""
    before = [t.text for t in toks[start:k] if t.kind == tk.PUNCT]
    depth = sum(before.count(c) for c in "([{") - sum(before.count(c) for c in ")]}")
    return toks[k].kind == tk.PUNCT and toks[k].text in stops and depth == 0


@settings(max_examples=200)
@given(st.text(alphabet="()[]{},;a ", max_size=40), st.data())
def test_top_level_and_split_match_oracle(source, data):
    toks = tk.tokenize(source)
    n = len(toks)
    start = data.draw(st.integers(0, n))
    end = data.draw(st.integers(start, n))
    stops = [k for k in range(start, end) if at_top(toks, start, k, (",", ";"))]
    assert tk.top_level(toks, start, end, (",", ";")) == (stops + [end])[0]
    seps = [k for k in range(start, end) if at_top(toks, start, k, (",",))]
    bounds = [start - 1] + seps + [end]
    assert tk.split_top_level(toks, start, end, ",") == \
        [(a + 1, b) for a, b in zip(bounds, bounds[1:])]


def oracle_line_end(source, toks, i):
    """Token index of the first newline after toks[i] whose text before it,
    trailing blanks stripped, does not end in a backslash."""
    pos = toks[i].byte_offset
    while True:
        nl = source.find("\n", pos)
        if nl < 0:
            return len(toks)
        if not source[toks[i].byte_offset : nl].rstrip(" \t").endswith("\\"):
            return next(k for k, t in enumerate(toks) if t.byte_offset == nl)
        pos = nl + 1


@settings(max_examples=200)
@given(st.text(alphabet="#a\\ \t\n;", min_size=1, max_size=40), st.data())
def test_line_end_matches_oracle(source, data):
    # The reference fold's line rule, on per-character tokens.
    toks = reftokens.plain_tokenize(source)
    i = data.draw(st.integers(0, len(toks) - 1))
    assert reftokens.line_end(toks, i, len(toks)) == oracle_line_end(source, toks, i)


def test_line_end_follows_backslash_then_spaces():
    source = "#define X 1 + \\   \n 2\nint y;"
    toks = reftokens.plain_tokenize(source)
    end = reftokens.line_end(toks, 0, len(toks))
    assert "".join(t.text for t in toks[:end]) == "#define X 1 + \\   \n 2"
    assert reftokens.at_line_start(toks, end + 1) and not reftokens.at_line_start(toks, 2)
    assert texts(tk.tokenize(source)) == ["#define X 1 + \\   \n 2\n", "int", " ", "y", ";"]


def test_cursor_trivia_skipping():
    toks = tk.tokenize("  int /* c */ x")
    cur = tk.Cursor(toks, 0)
    assert cur.peek().text == "int"
    cur = cur.advanced_to(cur.peek_index() + 1)
    assert cur.peek().text == "x"
    raw = tk.Cursor(toks, 0, skip_trivia=False)
    assert raw.peek().kind == tk.WHITESPACE


# ------------------------------------------------------------ token record

# The frozen dataclass the slotted Token replaced, as the reference for
# equality, hash, repr and copying.
TokenRef = dataclasses.make_dataclass(
    "Token", ["kind", "text", "byte_offset", "line", "column",
              ("synthetic", bool, False)], frozen=True)
token_fields = st.tuples(
    st.sampled_from([tk.IDENTIFIER, tk.PUNCT, tk.NEWLINE]),
    st.sampled_from(["a", "+", "\n"]),
    st.integers(0, 2), st.integers(1, 2), st.integers(1, 2), st.booleans())


def test_tokens_have_no_instance_dict():
    for t in tk.tokenize("int x; /* c */ \"s\" @\n"):
        assert not hasattr(t, "__dict__")


@settings(max_examples=300)
@given(token_fields, token_fields)
def test_token_compares_hashes_and_prints_like_a_frozen_dataclass(f, g):
    assert (tk.Token(*f) == tk.Token(*g)) == (TokenRef(*f) == TokenRef(*g)) == (f == g)
    assert (tk.Token(*f) != tk.Token(*g)) == (f != g)
    assert hash(tk.Token(*f)) == hash(TokenRef(*f))
    assert repr(tk.Token(*f)) == repr(TokenRef(*f))
    assert tk.Token(*f[:5]) == tk.Token(*f[:5], False)
    assert tk.Token(*f) != TokenRef(*f) and tk.Token(*f) != f


@settings(max_examples=100)
@given(token_fields, token_fields)
def test_synthetic_copy_is_the_token_at_the_use_site(f, g):
    copy = tk.synthetic_copy(tk.Token(*f), tk.Token(*g))
    ref = dataclasses.replace(TokenRef(*f), byte_offset=g[2], line=g[3], column=g[4],
                              synthetic=True)
    assert dataclasses.astuple(ref) == dataclasses.astuple(copy)
