import random
import re

import pytest

from ssi import macros as mc
from ssi import tokens as tk

CHAIN = "\n".join(f"#define M{k} M{k + 1}" for k in range(20)) + "\n#define M20 end\n"
DEFINES = """#define SELF SELF + 1
#define A B + 1
#define B A * 2
#define F(x) F((x) + 1)
#define GLUE(a, b) a ## b
#define TWICE(x) SELF * x
""" + CHAIN


@pytest.mark.parametrize("use, expanded, unexpanded", [
    # A macro is not expanded again inside its own expansion.
    ("SELF", "SELF + 1", []),
    ("F(2)", "F ( ( 2 ) + 1 )", []),
    # Mutual recursion stops where the outer macro reappears.
    ("A", "A * 2 + 1", []),
    ("B", "B + 1 * 2", []),
    ("TWICE(A)", "SELF + 1 * A * 2 + 1", []),
    # Token pasting is out of scope: the use stays and is reported.
    ("GLUE(foo, bar)(3)", "GLUE ( foo , bar ) ( 3 )", ["GLUE"]),
    # A chain deeper than MAX_EXPANSION_DEPTH stops and is reported there.
    ("M0", "M16", ["M16"]),
])
def test_expand_recursion_and_unexpanded_events(use, expanded, unexpanded):
    defs = mc.scan_defines(tk.FileTokens(DEFINES), "m.h")
    events = []
    out = mc.expand(tk.FileTokens("\n\n" + use), defs,
                    lambda name, line: events.append((name, line)))
    assert " ".join(t.text for t in out) == expanded
    assert events == [(name, 3) for name in unexpanded]
    assert all(t.line == 3 for t in out if t.synthetic)


@pytest.mark.parametrize("source, defined", [
    ("#define F(a, ...) a\n", {"F": (("a", "..."), "a")}),
    # A parameter list is read within its own line: an unclosed one hides
    # none of the #defines after it.
    ("#define BAD(x\n#define GOOD 3\n", {"BAD": (("x",), ""), "GOOD": (None, "3")}),
    # ``define`` and the name are read on the directive's own line too.
    ("#\ndefine X 1\n#define\nY 2\n", {}),
])
def test_scan_defines_reads_each_define_within_its_line(source, defined):
    defs = mc.scan_defines(tk.FileTokens(source), "m.h")
    assert {name: (m.params, " ".join(t.text for t in m.body))
            for name, m in defs.items()} == defined


def test_backslash_then_spaces_continues_a_define():
    from conftest import local_concrete, make_session, run_function

    source = "#define X 1 + \\   \n 2\nvoid testmain(void) {\n    int y = X;\n}\n"
    defs = mc.scan_defines(tk.FileTokens(source), "m.c")
    assert " ".join(t.text for t in defs["X"].body) == "1 + 2"
    session, interp = make_session({"m.c": source})
    frame = run_function(session, interp, "testmain")
    assert local_concrete(session, frame, "y") == 3


def test_a_define_header_loads_one_token_a_line_and_reads_bodies_on_use(monkeypatch):
    """Counted, not timed: a header of 400 ``#define``s loads as one token
    per preprocessor line and tokenizes no macro's body; one run tokenizes
    exactly the bodies of the macros it expands."""
    from conftest import local_concrete, make_session, run_function

    rng = random.Random(18)
    regs = [rng.randrange(0x1000) for _ in range(400)]
    source = "\n".join(
        ["/* registers */", "#include <linux/io.h>"]
        + [f"#define HL_R{k}\t0x{v:03x}" for k, v in enumerate(regs)]
        + ["#define HL_BLOCK     (HL_R3 + HL_R5)", "#define HL_SLOT(i)   ((i) & 7)",
           "#define HL_UNUSED(i) (HL_R7 * (i))",
           "void testmain(void) {", "\tint x = HL_BLOCK + HL_SLOT(9);", "}", ""])
    read = []
    plain_tokens = tk.plain_tokens

    def counting(text, *args):
        read.append(re.match(r"#define (\w+)", text)[1])
        return plain_tokens(text, *args)

    monkeypatch.setattr(tk, "plain_tokens", counting)
    session, interp = make_session({"regs.h": source})
    toks = session.corpus.tokens("regs.h")
    directive_lines = [n for n, line in enumerate(source.split("\n"), 1) if line.startswith("#")]
    assert [t.line for t in toks.directives] == directive_lines
    assert {t.kind for t in toks.directives} == {tk.DIRECTIVE}
    assert not [t for t in toks if t.line in directive_lines]
    assert len(session.corpus.macros) == 403 and read == []
    frame = run_function(session, interp, "testmain")
    assert local_concrete(session, frame, "x") == regs[3] + regs[5] + 1
    assert sorted(read) == ["HL_BLOCK", "HL_R3", "HL_R5", "HL_SLOT"]
