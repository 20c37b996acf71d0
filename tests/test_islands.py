import dataclasses
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import refeval
import refislands
from ssi import tokens as tk
from ssi.errors import UnbalancedDelimiter
from ssi.islands import (
    Corpus,
    DeclarationNode,
    ExpressionStatementNode,
    ForNode,
    Hole,
    IfNode,
    RawNode,
    ReturnNode,
    RuleRegistry,
    WhileNode,
    find_function_definition,
    parse_hole_as_block,
    parse_next_statement,
)

from conftest import EXAMPLE_DIR, local_concrete, make_session, run_function


def span_text(corpus, span):
    """The source text of a hole or node, read by its tokens' offsets."""
    toks = corpus.tokens(span.file_id)
    return corpus.text(span.file_id, toks[span.start], toks[span.end - 1]) \
        if span.start < span.end else ""


def hole_text(corpus, hole):
    return span_text(corpus, hole).strip()


def first_statement(source):
    corpus = Corpus.from_sources({"t.c": source})
    cur = tk.Cursor(corpus.tokens("t.c"), 0, file_id="t.c")
    node, cur = parse_next_statement(cur, RuleRegistry())
    return corpus, node, cur


def test_if_statement_shape():
    corpus, node, cur = first_statement("if (x > 0) { y = 1; } z = 2;")
    assert isinstance(node, IfNode)
    assert hole_text(corpus, node.cond) == "x > 0"
    assert hole_text(corpus, node.then) == "y = 1;"
    assert node.orelse is None
    assert cur.peek().text == "z"


def test_if_with_garbage_branch_parses():
    corpus, node, _ = first_statement("if (x) { @garbage!! ((( } after();")
    assert isinstance(node, IfNode)
    # The garbage is captured, not analyzed.
    assert "@garbage" in hole_text(corpus, node.then)
    assert node.then.nodes is None


def test_expression_statement_through_semicolon():
    corpus, node, _ = first_statement(
        "err = of_address_to_resource(np, 0, &iomem);\nnext();")
    assert isinstance(node, ExpressionStatementNode)
    assert hole_text(corpus, node).startswith("err")
    text = span_text(corpus, node)
    assert text == "err = of_address_to_resource(np, 0, &iomem);"


def test_declaration_keyword_lead():
    _, node, _ = first_statement("unsigned gpio = irqd_to_hwirq(data);")
    assert isinstance(node, DeclarationNode)


def test_braceless_then_and_else():
    corpus, node, _ = first_statement("if (e) r |= 1; else r &= 2; next();")
    assert isinstance(node, IfNode)
    assert hole_text(corpus, node.then) == "r |= 1;"
    assert hole_text(corpus, node.orelse) == "r &= 2;"


def test_else_if_chain_is_one_lazy_hole():
    src = "if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; } tail();"
    corpus, node, cur = first_statement(src)
    assert isinstance(node, IfNode)
    assert cur.peek().text == "tail"
    chain = hole_text(corpus, node.orelse)
    assert chain.startswith("if (b)")
    nested = parse_hole_as_block(corpus, node.orelse, RuleRegistry())
    assert len(nested) == 1 and isinstance(nested[0], IfNode)
    assert hole_text(corpus, nested[0].orelse) == "x = 3;"


def test_for_header_split():
    corpus, node, _ = first_statement("for (i = 0; i < 8; i++) { body(); }")
    assert isinstance(node, ForNode)
    assert hole_text(corpus, node.init) == "i = 0"
    assert hole_text(corpus, node.cond) == "i < 8"
    assert hole_text(corpus, node.step) == "i++"


def test_hole_block_parsing_and_memoization():
    corpus, node, _ = first_statement("if (x) { y = 1; }")
    nodes = parse_hole_as_block(corpus, node.then, RuleRegistry())
    assert len(nodes) == 1 and isinstance(nodes[0], ExpressionStatementNode)
    assert parse_hole_as_block(corpus, node.then, RuleRegistry()) is nodes


def test_empty_hole_parses_to_nothing():
    corpus, node, _ = first_statement("if (x) {   } ")
    assert parse_hole_as_block(corpus, node.then, RuleRegistry()) == []


def test_probe_body_statement_inventory():
    # Oracle: counted by hand from example_pinctrl/pinctrl-bcm2835.c. The
    # probe body has six declarations, two assignment statements, one for
    # loop, one call statement, and one return: eleven statements, with one
    # For node among them.
    corpus = Corpus.from_paths([EXAMPLE_DIR / "pinctrl-bcm2835.c"])
    fdef = corpus.find_function("bcm2835_pinctrl_probe")
    nodes = parse_hole_as_block(corpus, fdef.body, RuleRegistry())
    assert len(nodes) == 11
    assert sum(isinstance(n, ForNode) for n in nodes) == 1
    assert sum(isinstance(n, DeclarationNode) for n in nodes) == 6
    assert sum(isinstance(n, ExpressionStatementNode) for n in nodes) == 3
    assert sum(isinstance(n, ReturnNode) for n in nodes) == 1


def test_find_function_definition_params_hole():
    corpus = Corpus.from_sources({"d.c": """
void bcm2835_gpio_wr(struct bcm2835_pinctrl *pc, unsigned reg, u32 val) {
	writel(val, pc->base + reg);
}
"""})
    fdef = find_function_definition(corpus, "bcm2835_gpio_wr")
    assert fdef is not None
    assert hole_text(corpus, fdef.params) == \
        "struct bcm2835_pinctrl *pc, unsigned reg, u32 val"
    assert fdef.body.nodes is None  # nothing inside was parsed


def test_find_function_definition_absent_for_calls_only():
    # Five-line fixture: the name appears only in a call expression, so the
    # scan must come back empty.
    corpus = Corpus.from_sources({"d.c": """
int main(void) {
    foo(1);
    return 0;
}
"""})
    assert find_function_definition(corpus, "foo") is None
    assert find_function_definition(corpus, "writel") is None


def test_find_function_reads_past_a_parenthesized_declarator():
    # ``rows`` returns a pointer to ``int[3]``: its declarator closes after
    # the parameter list. A call in a condition is no definition.
    corpus = Corpus.from_sources({"d.c": """
int (*rows(void))[3] { return 0; }
void (*(*table(int k))[2])(int) { return 0; }
int f(void) { while (*next(p)) { p++; } if ((*next(p))) { } }
"""})
    fdef = find_function_definition(corpus, "rows")
    assert fdef is not None and hole_text(corpus, fdef.params) == "void"
    assert hole_text(corpus, fdef.body) == "return 0;"
    assert hole_text(corpus, find_function_definition(corpus, "table").params) == "int k"
    assert find_function_definition(corpus, "next") is None


def test_find_function_skips_macro_names():
    corpus = Corpus.from_sources({"d.c": """
#define INIT(x) { x }
int real(void) { return 0; }
"""})
    assert find_function_definition(corpus, "INIT") is None
    assert find_function_definition(corpus, "real") is not None


def test_find_function_first_match_in_file_order():
    corpus = Corpus.from_sources({
        "a.c": "int f(void) { return 1; }",
        "b.c": "int f(void) { return 2; }",
    })
    assert find_function_definition(corpus, "f").file_id == "a.c"


def test_find_function_looks_inside_an_unbalanced_body():
    # f's braces never close, so g sits inside f's text. A brace that never
    # closes is passed over alone, so g's item is at file scope and g is
    # found, and f is not (its body is unclosed).
    corpus = Corpus.from_sources({"d.c": "int f(void){ if (0) { { { } return 1; } "
                                         "int g(void){ return 7; }"})
    fdef = find_function_definition(corpus, "g")
    assert fdef is not None and hole_text(corpus, fdef.body) == "return 7;"
    assert find_function_definition(corpus, "f") is None


def test_re_adding_a_file_drops_its_stale_definitions():
    corpus = Corpus.from_sources({"a.c": "int f(void) { return 1; }"})
    assert hole_text(corpus, corpus.find_function("f").body) == "return 1;"
    corpus.add_file("a.c", "/* moved */ int g; int h; int f(void) { return 2; }")
    fdef = corpus.find_function("f")
    assert corpus.tokens("a.c")[fdef.start].text == "f"
    assert hole_text(corpus, fdef.body) == "return 2;"


def test_re_adding_a_file_drops_its_stale_defines():
    corpus = Corpus.from_sources({"a.c": "#define LIMIT 3\nint f(void) { return LIMIT; }"})
    corpus.add_file("a.c", "int f(void) { return LIMIT; }")
    assert "LIMIT" not in corpus.macros
    # A later file's definition of a name still wins, re-read or not.
    corpus = Corpus.from_sources({"a.c": "#define N 1\n#define A 1\n",
                                  "b.c": "#define N 2\n"})
    corpus.add_file("a.c", "#define N 3\n")
    assert [(m.name, m.file_id) for m in corpus.macros.values()] == [("N", "b.c")]
    corpus.add_file("c.c", "#define N 4\n")
    assert corpus.macros["N"].file_id == "c.c"


def test_a_brace_on_a_preprocessor_line_is_no_brace():
    # A directive is kept beside the code, so its ``{`` opens nothing: g's
    # body closes at its last ``}``, and the directive is no statement in it.
    source = "int g(void) {\n int r = 1;\n#define OPEN {\n r = 2;\n return r; }"
    session, interp = make_session({"g.c": source})
    fdef = session.corpus.find_function("g")
    assert fdef is not None and hole_text(session.corpus, fdef.body).endswith("return r;")
    nodes = parse_hole_as_block(session.corpus, fdef.body, RuleRegistry())
    assert [type(n).__name__ for n in nodes] == \
        ["DeclarationNode", "ExpressionStatementNode", "ReturnNode"]
    assert local_concrete(session, run_function(session, interp, "g"), "r") == 2


def test_directive_statement_is_inert():
    # A directive line is no statement: the first one is the code after it.
    corpus, node, cur = first_statement("#define X 1\ny = 2;")
    assert isinstance(node, ExpressionStatementNode) and node.line == 2
    assert cur.at_end()


def test_custom_rule_shadows_builtin_for_its_tokens_only():
    source = "halt now; x = 1;"
    corpus = Corpus.from_sources({"t.c": source})

    def match_halt(cur):
        toks, limit, fid = cur.tokens, cur.limit, cur.file_id
        i = cur.peek_index()
        if i < limit and toks[i].kind == tk.IDENTIFIER and toks[i].text == "halt":
            j = i
            while j < limit and toks[j].text != ";":
                j += 1
            return RawNode(fid, toks[i].line, i, j + 1)
        return None

    rules = RuleRegistry()
    rules.register("halt", match_halt, priority=10)
    cur = tk.Cursor(corpus.tokens("t.c"), 0, file_id="t.c")
    node, cur = parse_next_statement(cur, rules)
    assert isinstance(node, RawNode)
    node2, _ = parse_next_statement(cur, rules)
    assert isinstance(node2, ExpressionStatementNode)  # untouched by the rule


def test_parse_determinism():
    source = "if (a) { b(); } while (c) { d(); } e = 1;"
    outs = []
    for _ in range(2):
        corpus = Corpus.from_sources({"t.c": source})
        cur = tk.Cursor(corpus.tokens("t.c"), 0, file_id="t.c")
        nodes = []
        rules = RuleRegistry()
        while not cur.at_end():
            node, cur = parse_next_statement(cur, rules)
            nodes.append((type(node).__name__, node.start, node.end))
        outs.append(nodes)
    assert outs[0] == outs[1]
    assert [k for k, _, _ in outs[0]] == \
        ["IfNode", "WhileNode", "ExpressionStatementNode"]


def test_raw_fallback_consumes_stray_close_brace():
    corpus, node, cur = first_statement("} x = 1;")
    assert isinstance(node, RawNode)
    assert node.end - node.start == 1
    node2, _ = parse_next_statement(cur, RuleRegistry())
    assert isinstance(node2, ExpressionStatementNode)


def test_struct_local_declaration_spans_to_semicolon():
    _, node, cur = first_statement("struct S { int a; } x; y();")
    assert isinstance(node, DeclarationNode)
    assert cur.peek().text == "y"


def test_scratch_buffers_are_reachable_but_not_corpus_files():
    corpus = Corpus.from_sources({"a.c": "int f(void) { return 1; }"})
    toks = corpus.add_scratch("<snippet:1>", "#define F 1\nf();")
    corpus.add_file("b.c", "int g(void) { return 2; }")
    corpus.add_file("a.c", "int f(void) { return 3; }")
    assert corpus.files == ["a.c", "b.c"]
    assert corpus.tokens("<snippet:1>") is toks
    assert corpus.source("<snippet:1>") == "#define F 1\nf();"
    assert "F" not in corpus.macros
    assert find_function_definition(corpus, "f").file_id == "a.c"

def test_a_default_registry_holds_one_statement_rule_and_the_fallback():
    assert [(prio, name) for prio, _, name, _ in RuleRegistry()] == \
        [(100, "statement"), (1000, "raw")]


def test_a_rule_at_the_default_priority_runs_after_builtins_before_fallback():
    source = "if (x) y = 1; halt now; z = 2; }"
    corpus = Corpus.from_sources({"t.c": source})
    seen = []

    def match_any(cur):
        i = cur.peek_index()
        seen.append(cur.tokens[i].text)
        end = tk.top_level(cur.tokens, i, cur.limit, (";",)) + 1
        return RawNode(cur.file_id, cur.tokens[i].line, i, min(end, cur.limit))

    rules = RuleRegistry()
    rules.register("any", match_any)
    nodes = parse_hole_as_block(corpus, Hole("t.c", 0, len(corpus.tokens("t.c"))), rules)
    # The built-in reads the ``if``; the rule sees the rest, before the
    # fallback would take the expression statements and the stray ``}``.
    assert [type(n) for n in nodes] == [IfNode, RawNode, RawNode, RawNode]
    assert seen == ["halt", "z", "}"]


def test_a_rule_below_100_shadows_if_for_exactly_its_tokens():
    source = "if (DEBUG) log(x); if (x) y = 1;"
    corpus = Corpus.from_sources({"t.c": source})

    def match_debug_if(cur):
        toks, i = cur.tokens, cur.peek_index()
        head = [t.text for t in toks[i:cur.limit] if t.kind not in tk.TRIVIA][:4]
        if head != ["if", "(", "DEBUG", ")"]:
            return None
        end = tk.top_level(toks, i, cur.limit, (";",)) + 1
        return RawNode(cur.file_id, toks[i].line, i, end)

    rules = RuleRegistry()
    rules.register("debug-if", match_debug_if, priority=50)
    cur = tk.Cursor(corpus.tokens("t.c"), 0, file_id="t.c")
    first, cur = parse_next_statement(cur, rules)
    second, cur = parse_next_statement(cur, rules)
    assert isinstance(first, RawNode)
    assert span_text(corpus, first) == \
        "if (DEBUG) log(x);"
    assert isinstance(second, IfNode) and cur.at_end()


# ------------------------------------------------ the reference reader

# Token soup over keywords, brackets, ``;``, ``:``, ``#`` and identifiers,
# with a few whole fragments so that well-formed statements occur too.
SOUP = [
    "if", "else", "while", "do", "for", "switch", "return", "break",
    "continue", "goto", "case", "default", "int", "struct", "typedef",
    "unsigned", "static", "sizeof", "(", ")", "{", "}", "[", "]", ";", ":",
    "#", "x", "L", "1", "=", "+", "?", ",", "\n", "\t", "/* c */",
    "if (x) ", "else ", "while (x) ", "while (x);", "do x;", "do { x; } ",
    "for (;;) ", "switch (x) ", "{ case 1: break; }", "case x", "case 1;",
    "default:", "(x)", "x;", "L: ", "goto L;", "return;", "return x;",
    "{ x = 1; }", "#define X 1\n",
]

soups = st.lists(st.sampled_from(SOUP), max_size=40).map(" ".join)


@st.composite
def garbage_programs(draw):
    """A refeval program with garbage in a random choice of its branches."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stmts, _ = refeval.gen_program(rng, max_stmts=12)
    sites = [s for s in refeval.untaken_sites(stmts, {}) if rng.random() < 0.5]
    return refeval.render_program(stmts, garbage_at=set(sites), rng=rng)


def _shape(corpus, node, rules, depth):
    """A node's class, span and fields, with every hole's span and, a few
    levels deep, the statements parsed from it."""
    out = [type(node).__name__, node.line, node.start, node.end]
    for f in dataclasses.fields(node)[4:]:
        value = getattr(node, f.name)
        if f.name == "compiled":
            continue
        if isinstance(value, Hole):
            nested = _block_shape(corpus, value, rules, depth + 1) if depth < 3 else None
            value = (value.start, value.end, nested)
        out.append((f.name, value))
    return tuple(out)


def _block_shape(corpus, hole, rules, depth=0):
    try:
        nodes = parse_hole_as_block(corpus, hole, rules)
    except Exception as e:  # the readers must also fail alike
        return type(e).__name__
    return [_shape(corpus, n, rules, depth) for n in nodes]


def _file_hole(corpus):
    return Hole("t.c", 0, len(corpus.tokens("t.c")))


def assert_readers_agree(source):
    corpus = Corpus.from_sources({"t.c": source})
    new = _block_shape(corpus, _file_hole(corpus), RuleRegistry())
    old = _block_shape(corpus, _file_hole(corpus), refislands.reference_rules())
    assert new == old


@settings(max_examples=400)
@given(soups)
@example("if (a) x; else if (b) y; else if (c) { z; } tail;")
def test_reader_matches_the_reference_matchers_on_token_soup(source):
    assert_readers_agree(source)


@settings(max_examples=100)
@given(garbage_programs())
def test_reader_matches_the_reference_matchers_on_garbage_programs(source):
    assert_readers_agree(source)


@settings(max_examples=300)
@given(st.one_of(soups, garbage_programs()))
def test_parsed_statements_tile_the_hole(source):
    corpus = Corpus.from_sources({"t.c": source})
    toks = corpus.tokens("t.c")
    hole = _file_hole(corpus)
    try:
        nodes = parse_hole_as_block(corpus, hole, RuleRegistry())
    except UnbalancedDelimiter:
        return
    at = hole.start
    for node in nodes:
        assert node.start < node.end
        assert all(t.kind in tk.TRIVIA for t in toks[at:node.start])
        at = node.end
    assert all(t.kind in tk.TRIVIA for t in toks[at:hole.end])
