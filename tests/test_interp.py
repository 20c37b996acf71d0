import io
import random
import shutil
import subprocess
import sys

import pytest

import refeval
import ssi.interp as interp_module
import ssi.macros as mc
from conftest import EXAMPLE_DIR, local_concrete, make_session, run_function
from ssi.config import build_session, load_config
from ssi.errors import (
    CallDepthExceeded,
    EvalError,
    MaxStepsExceeded,
    StoppedAtBreakpoint,
    SymbolicAddress,
    SymbolicBranch,
    UnknownCommand,
)
from ssi.interp import BREAK
from ssi.islands import BreakNode, Node
from ssi.memory import Location, Region
from ssi.repl import Repl
from ssi.session import CommandSpec, Frame, ModelEvent
from ssi.values import Concrete, SymbolRoot, to_int


def run_main(source, **kwargs):
    session, interp = make_session({"prog.c": source}, **kwargs)
    frame = run_function(session, interp, "testmain")
    return session, frame


def finals(source, names, **kwargs):
    session, frame = run_main(source, **kwargs)
    return {n: local_concrete(session, frame, n) for n in names}


def test_constant_propagation_through_sum():
    out = finals("""
void testmain(void) {
    int a = 1, b = 0;
    int x = a + b;
}
""", ["a", "b", "x"])
    assert out == {"a": 1, "b": 0, "x": 1}


def test_arithmetic_and_compound_assignment():
    out = finals("""
void testmain(void) {
    int x = 10;
    x += 5; x *= 3; x -= 1; x /= 4; x %= 7;
    int y = (x << 2) | 1;
    int z = y > 10 ? 100 : 200;
}
""", ["x", "y", "z"])
    # Oracle, by hand: 10+5=15, *3=45, -1=44, /4=11, %7=4; y=(4<<2)|1=17; z=100.
    assert out == {"x": 4, "y": 17, "z": 100}


def test_while_for_break_continue():
    out = finals("""
void testmain(void) {
    int total = 0;
    int i;
    for (i = 0; i < 10; i++) {
        if (i == 3)
            continue;
        if (i == 6)
            break;
        total += i;
    }
    int n = 0;
    while (1) {
        n++;
        if (n >= 4)
            break;
    }
    int m = 0;
    do { m += 2; } while (m < 5);
}
""", ["total", "n", "m", "i"])
    assert out == {"total": 0 + 1 + 2 + 4 + 5, "n": 4, "m": 6, "i": 6}


def test_function_call_and_return():
    out = finals("""
int twice(int v) { return v + v; }
void testmain(void) {
    int r = twice(21);
}
""", ["r"])
    assert out == {"r": 42}


def test_macro_expansion_bit():
    # Oracle: 1 << 3 == 8 (the register value the transcripts show).
    out = finals("""
#define BIT(n) (1 << (n))
#define SHIFT(p) ((p) % 32)
void testmain(void) {
    int x = BIT(3);
    int y = BIT(SHIFT(35));
}
""", ["x", "y"])
    assert out == {"x": 8, "y": 8}


def test_sizeof_fixed_table():
    out = finals("""
void testmain(void) {
    int a = sizeof(u32);
    int b = sizeof(int);
    int c = sizeof(char *);
    int d = sizeof(unsigned long);
}
""", ["a", "b", "c", "d"])
    assert out == {"a": 4, "b": 4, "c": 8, "d": 8}


def test_struct_layout_and_pointer_fields():
    session, frame = run_main("""
struct pair { u32 a; u32 b; };
struct pair box;
void testmain(void) {
    struct pair *p = &box;
    p->a = 7;
    p->b = p->a + 1;
    int got = box.b;
}
""")
    assert local_concrete(session, frame, "got") == 8
    info = session.store.field_offset("pair", "b")
    assert (info.offset, info.width) == (4, 4)


def test_address_of_and_deref():
    out = finals("""
void testmain(void) {
    int x = 5;
    int *p = &x;
    *p = *p + 2;
    int y = x;
}
""", ["y"])
    assert out == {"y": 7}


def test_array_indexing():
    out = finals("""
void testmain(void) {
    int a[4];
    int i;
    for (i = 0; i < 4; i++)
        a[i] = i * i;
    int y = a[2] + a[3];
}
""", ["y"])
    assert out == {"y": 4 + 9}


def test_pointer_indexing_and_array_decay():
    # p[i] indexes through the address p holds; an array name used as a
    # value is its address.
    out = finals("""
struct pt { int x; int y; };
void testmain(void) {
    int arr[4];
    int *p = &arr[0];
    p[1] = 5;
    int a = arr[1];
    int *q = arr;
    int c = q[1];
    char *s = "hi";
    int d = s[1];
    struct pt pts[2];
    struct pt *r = pts;
    r[1].y = 7;
    int e = pts[1].y;
}
""", ["a", "c", "d", "e"])
    assert out == {"a": 5, "c": 5, "d": 105, "e": 7}


def test_typedef_declares_type_name():
    out = finals("""
typedef u32 reg_t;
void testmain(void) {
    reg_t r = 0x10;
    int s = sizeof(reg_t);
}
""", ["r", "s"])
    assert out == {"r": 16, "s": 4}


def test_goto_forward_skips_statements():
    out = finals("""
void testmain(void) {
    int x = 1;
    goto out;
    x = 99;
out:
    x = x + 1;
}
""", ["x"])
    assert out == {"x": 2}


def test_switch_dispatch_and_fallthrough():
    out = finals("""
void testmain(void) {
    int x = 0;
    switch (2) {
    case 1:
        x = 10;
        break;
    case 2:
        x += 1;
    case 3:
        x += 2;
        break;
    default:
        x = 99;
    }
    int y = 0;
    switch (42) {
    case 1: y = 1; break;
    default: y = 5;
    }
}
""", ["x", "y"])
    assert out == {"x": 3, "y": 5}


def test_goto_reaches_a_label_in_a_switch_body():
    # A switch body runs through the one block runner, so its labels are
    # goto targets like any other block's.
    out = finals("""
int g(int x){ int y = 0; switch (x) { case 1: goto L; case 2: y = 1; L: y = y + 7; break; } return y; }
void testmain(void) {
    int r1 = g(1);
    int r2 = g(2);
}
""", ["r1", "r2"])
    assert out == {"r1": 7, "r2": 8}


# Control flow through the statement runner: each body runs as testmain's,
# and its final locals are what gcc prints for them (the duplicate label
# aside, which gcc rejects). A step is one statement run or one loop test,
# so ``steps`` pins how many of each the runner took.
STATEMENT_LAYER_CASES = {
    "backward goto loop": ("""
    int i = 0;
    int s = 0;
again:
    s = s + i;
    i++;
    if (i < 5)
        goto again;
""", {"i": 5, "s": 10}, 22),
    "goto out of a nested loop": ("""
    int found = -1;
    int i, j;
    for (i = 0; i < 4; i++) {
        for (j = 0; j < 4; j++) {
            if (i * j == 6) {
                found = i * 10 + j;
                goto done;
            }
        }
    }
done:
    found = found + 100;
""", {"found": 123, "i": 2, "j": 3}, 38),
    "for (;;) with break, and a for declaration": ("""
    int n = 0;
    for (;;) {
        n++;
        if (n == 3)
            break;
    }
    int t = 0;
    for (int k = 0; k < 4; k++)
        t += k;
""", {"n": 3, "t": 6}, 23),
    "continue in for runs the step, and in do the test": ("""
    int odd = 0;
    int i;
    for (i = 0; i < 6; i++) {
        if (i % 2 == 0)
            continue;
        odd += i;
    }
    int j = 0;
    int evens = 0;
    do {
        j++;
        if (j % 2)
            continue;
        evens += j;
    } while (j < 6);
""", {"odd": 9, "i": 6, "j": 6, "evens": 12}, 49),
    "the first of two labels of one name wins": ("""
    int x = 0;
    int y = 0;
    goto L;
    x = 1;
L:
    y = y + 1;
    if (y < 3)
        goto L;
L:
    x = x + 10;
""", {"x": 10, "y": 3}, 13),
    "a switch falls into a label that a goto re-enters": ("""
    int r = 0;
    int k = 2;
    switch (k) {
    case 1:
        r = 1;
    case 2:
        r = r + 2;
    inside:
        r = r + 5;
        if (r < 20)
            goto inside;
    default:
        r = r + 100;
    }
""", {"r": 122, "k": 2}, 19),
}


@pytest.mark.parametrize("case", STATEMENT_LAYER_CASES)
def test_statement_layer_locals_and_steps(case):
    body, expected, steps = STATEMENT_LAYER_CASES[case]
    session, frame = run_main(f"void testmain(void) {{{body}}}\n")
    assert {n: local_concrete(session, frame, n) for n in expected} == expected
    assert session.steps == steps


def test_an_unsigned_variable_wraps_a_constant_out_of_its_range():
    # The values gcc 12.2 prints: ``1 << 31`` is a negative int, and the
    # ``|`` with an unsigned operand and the store to ``u32`` wrap it.
    out = finals("""
void testmain(void) {
    u32 x = -1;
    unsigned long y = -1;
    u32 reg = 0;
    reg |= 1 << 31;
    int bit = 1 << 31;
    unsigned z = 5;
}
""", ["x", "y", "reg", "bit", "z"])
    assert out == {"x": 4294967295, "y": 18446744073709551615, "reg": 2147483648,
                   "bit": -2147483648, "z": 5}


def test_a_node_runs_as_the_built_in_node_class_it_derives_from():
    class Marked(BreakNode):
        pass

    session, interp = make_session({"prog.c": ""})
    frame = Frame("testmain")
    assert interp.exec_block([Marked("prog.c", 1, 0, 0)], frame) is BREAK
    with pytest.raises(EvalError, match="cannot execute node Node"):
        interp.exec_block([Node("prog.c", 2, 0, 0)], frame)
    assert session.steps == 2


def test_sizeof_a_variable_reads_its_declared_size():
    # The variable is not loaded: an array's size is its region's, anything
    # else's the width it was declared with, so ARRAY_SIZE works.
    out = finals("""
#define ARRAY_SIZE(x) (sizeof(x) / sizeof((x)[0]))
void testmain(void) {
    int a[8];
    char c = 1;
    char *s = "ab";
    int m[2][3];
    int sa = sizeof a;
    int n = sizeof a / sizeof a[0];
    int k = ARRAY_SIZE(a);
    int sc = sizeof c;
    int s0 = sizeof s[0];
    int sp = sizeof s;
    int sm = sizeof m;
    int sx = sizeof(c + c);
}
""", ["sa", "n", "k", "sc", "s0", "sp", "sm", "sx"])
    assert out == {"sa": 32, "n": 8, "k": 8, "sc": 1, "s0": 1, "sp": 8, "sm": 24,
                   "sx": 4}


# ------------------------------------------------------------ symbolic side

def test_unmodeled_call_returns_labeled_symbol():
    session, frame = run_main("""
void testmain(void) {
    int v = mystery_fn(1, 2);
}
""")
    slot = frame.locals["v"]
    v = session.store.load(Location(slot.region, slot.offset), 4)
    assert isinstance(v.payload, SymbolRoot)
    assert v.payload.label.startswith("ret:mystery_fn@")
    missing = session.events_of("missing-model")
    assert len(missing) == 1
    assert missing[0].call_text == "mystery_fn ( 1 , 2 )"


def test_symbolic_branch_fail_policy_lists_blockers():
    with pytest.raises(SymbolicBranch) as exc:
        run_main("""
void testmain(void) {
    int v = mystery_fn();
    if (v) { int x = 1; }
}
""", branch_policy="fail")
    assert any(b.startswith("ret:mystery_fn@") for b in exc.value.blockers)


def test_symbolic_branch_assume_policies():
    src = """
void testmain(void) {
    int taken = 0;
    if (mystery_fn()) { taken = 1; }
}
"""
    for policy, expected in (("assume-true", 1), ("assume-false", 0)):
        out = finals(src, ["taken"], branch_policy=policy)
        assert out == {"taken": expected}


def test_ask_policy_binds_equality_comparison():
    session, interp = make_session({"prog.c": """
void testmain(void) {
    int v = mystery_fn();
    int hit = 0;
    if (v == 7) { hit = 1; }
    int w = v;
}
"""}, branch_policy="ask")
    session.ask = lambda prompt: True
    frame = run_function(session, interp, "testmain")
    assert local_concrete(session, frame, "hit") == 1
    # The yes answer was recorded as a binding, so v itself is now concrete.
    assert local_concrete(session, frame, "w") == 7
    assert any(b.reason == "branch-comparison"
               for b in session.values.bindings.values())


def test_branch_false_on_bare_symbol_binds_zero():
    session, interp = make_session({"prog.c": """
void testmain(void) {
    int v = mystery_fn();
    if (v) { int x = 1; }
    int w = v;
}
"""}, branch_policy="assume-false")
    frame = run_function(session, interp, "testmain")
    assert local_concrete(session, frame, "w") == 0


# A symbol stored into a narrow variable stays the root a branch binds.
@pytest.mark.parametrize("vtype", ["u8", "char", "unsigned short"])
@pytest.mark.parametrize("policy, cond, expected", [
    ("ask", "v == 7", 7),
    ("assume-false", "v", 0),
])
def test_branch_on_narrow_variable_binds_its_symbol(vtype, policy, cond,
                                                    expected):
    session, interp = make_session({"prog.c": f"""
void testmain(void) {{
    {vtype} v = mystery_fn();
    if ({cond}) {{ int x = 1; }}
    int w = v;
}}
"""}, branch_policy=policy)
    session.ask = lambda prompt: True
    frame = run_function(session, interp, "testmain")
    assert local_concrete(session, frame, "w") == expected


@pytest.mark.parametrize("vtype", ["_Bool", "bool"])
def test_symbol_stored_to_a_bool_stays_a_symbol(vtype):
    session, interp = make_session({"prog.c": f"""
void testmain(void) {{
    {vtype} v = mystery_fn();
    if (v) {{ int x = 1; }}
    int w = v;
}}
"""}, branch_policy="assume-false")
    frame = run_function(session, interp, "testmain")
    assert local_concrete(session, frame, "w") == 0


def test_narrow_parameter_stays_a_symbol():
    session, interp = make_session({"prog.c": """
int pick(u8 mode) {
    int hit = 0;
    if (mode == 2) { hit = 1; }
    if (mode == 3) { hit = 2; }
    return hit;
}
void testmain(void) {
    int r = pick(mystery_fn());
}
"""}, branch_policy="ask")
    session.ask = lambda prompt: True
    frame = run_function(session, interp, "testmain")
    # The first yes bound mode to 2, so the second branch is concrete.
    assert local_concrete(session, frame, "r") == 1


def test_hook_wins_over_corpus_definition():
    session, interp = make_session({"prog.c": """
int helper(void) { return 1; }
void testmain(void) {
    int r = helper();
}
"""})
    session.register_hook("helper", lambda ctx: ctx.make_concrete(32, 99))
    frame = run_function(session, interp, "testmain")
    assert local_concrete(session, frame, "r") == 99
    assert any(e.kind == "hook" and e.name == "helper" for e in session.events)


def test_event_order_matches_execution_order():
    session, interp = make_session({"prog.c": """
void leaf_a(void) { ext_one(); }
void testmain(void) {
    leaf_a();
    ext_two();
    leaf_a();
}
"""})
    run_function(session, interp, "testmain")
    calls = [e.callee for e in session.events_of("call")]
    assert calls == ["leaf_a", "ext_one", "ext_two", "leaf_a", "ext_one"]
    seqs = [e.seq for e in session.events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_laziness_sibling_functions_never_parsed():
    session, interp = make_session({"prog.c": """
void sibling(void) {
    int a = 1;
    int b = 2;
    int c = 3;
}
void testmain(void) {
    int x = 4;
}
"""})
    run_function(session, interp, "testmain")
    sibling = session.corpus.find_function("sibling")
    toks = session.corpus.tokens("prog.c")
    lines = range(toks[sibling.body.start].line, toks[sibling.body.end - 1].line + 1)
    assert all(line not in lines for _f, line, _k in session.parse_events)
    assert sibling.body.nodes is None


def test_garbage_in_untaken_branch_is_harmless():
    out = finals("""
void testmain(void) {
    int x = 1;
    if (x == 2) {
        ]]] not C at all ((( @@@
    }
    x = x + 1;
}
""", ["x"])
    assert out == {"x": 2}


def test_garbage_in_taken_branch_raises():
    with pytest.raises(EvalError):
        run_main("""
void testmain(void) {
    if (1) {
        @@@ ]]] garbage
    }
}
""")


def test_garbage_in_a_function_body_hides_no_file_scope_declaration():
    # An unclosed ``(`` in one body and a stray ``)`` in another: the
    # declarations after the first are file scope, those in the second not.
    session, frame = run_main("""
int f(void){ if (0) { garbage( more garbage } return 1; }
int g_after = 5;
typedef unsigned char myu8;
int h(void){ return sizeof(myu8) + g_after; }
void other(void) { g(1)); int local = 3; }
void testmain(void) { int r = h(); }
""")
    assert sorted(session.global_decls) == ["g_after"]
    assert "myu8" in session.typedefs
    assert local_concrete(session, frame, "r") == 6


def test_a_macro_loop_in_a_body_is_no_definition():
    # ``for_each_set_bit(…) { … }`` in walk has a definition's shape, but
    # only a file-scope item defines a function: the call is a missing
    # model with a fresh result, not a run of the loop's body.
    session, frame = run_main("""
int hits;
void walk(unsigned m) { int i; for_each_set_bit(i, &m, 32) { hits++; } }
void testmain(void) { int r = for_each_set_bit(1, 2, 3); }
""")
    assert session.corpus.find_function("for_each_set_bit") is None
    assert [e.callee for e in session.events_of("missing-model")] == ["for_each_set_bit"]
    slot = frame.locals["r"]
    assert isinstance(session.store.load(Location(slot.region, 0), 4).payload, SymbolRoot)


def test_a_definition_head_declares_no_global():
    # An attribute macro before the name is no declarator of its own.
    session, frame = run_main("""
static int __init f_init(void) { return 3; }
static int __exit_x g_exit(void) { return 4; }
void testmain(void) { int a = f_init(); int b = g_exit(); }
""")
    assert "__init" not in session.global_decls
    assert "__exit_x" not in session.global_decls
    assert {n: local_concrete(session, frame, n) for n in "ab"} == {"a": 3, "b": 4}


def test_string_bytes_read_as_ints():
    out = finals("""
void testmain(void) {
    char *s = "ab";
    int sum = s[0] + s[0] + s[0];
    int product = s[0] * s[1];
    int nul = s[2];
    int high = "\\xff"[0];
}
""", ["sum", "product", "nul", "high"])
    assert out == {"sum": 291, "product": 9506, "nul": 0, "high": 255}


def test_max_steps_guard():
    with pytest.raises(MaxStepsExceeded, match=r"^exceeded 500 statement executions \(line 3\)$"):
        run_main("""
void testmain(void) {
    while (1) { }
}
""", max_steps=500)


def test_inline_assembly_skipped_with_diagnostic():
    session, frame = run_main("""
void testmain(void) {
    int x = 1;
    asm volatile("mrs %0, cpsr");
    x = x + 1;
}
""")
    assert local_concrete(session, frame, "x") == 2
    assert any(e.kind == "diagnostic" and "inline assembly" in (e.message or "")
               for e in session.events)


def test_unexpanded_macro_event_for_token_pasting():
    session, frame = run_main("""
#define GLUE(a, b) a ## b
void testmain(void) {
    int v = GLUE(foo, bar)(3);
}
""")
    assert any(e.kind == "unexpanded-macro" and e.name == "GLUE"
               for e in session.events)
    slot = frame.locals["v"]
    v = session.store.load(Location(slot.region, slot.offset), 4)
    assert isinstance(v.payload, SymbolRoot)  # fell through to symbolic call


def test_run_entry_unknown_command():
    session, interp = make_session({"prog.c": "void f(void) { }"})
    with pytest.raises(UnknownCommand):
        interp.run_entry("fronble")


def test_run_entry_binds_command_params():
    session, interp = make_session({"prog.c": """
void entry(struct irq_data *data) {
    unsigned gpio = irqd_to_hwirq(data);
    unsigned doubled = gpio * 2;
}
"""})
    session.commands["enable-irq"] = CommandSpec("entry", {"gpio": 1})
    captured = {}

    def hwirq(ctx):
        captured.setdefault("frame", ctx.session.frames[-1])
        return ctx.make_concrete(32, ctx.session.command_params["gpio"])

    session.register_hook("irqd_to_hwirq", hwirq)
    interp.run_entry("enable-irq", ["3"])
    frame = captured["frame"]
    assert local_concrete(session, frame, "gpio") == 3
    assert local_concrete(session, frame, "doubled") == 6


def test_breakpoint_without_handler_raises_signal():
    session, interp = make_session({"prog.c": """
void testmain(void) {
    int a = 1;
    int b = 2;
}
"""})
    from ssi.repl import Breakpoint

    toks = session.corpus.tokens("prog.c")
    session.breakpoints[(None, 3)] = Breakpoint(None, 3)
    with pytest.raises(StoppedAtBreakpoint) as exc:
        run_function(session, interp, "testmain")
    assert exc.value.position[1] == 4  # suspended before the next statement


def test_verbose_trace_uses_verbatim_call_text(capsys=None):
    session, interp = make_session({"prog.c": """
void testmain(void) {
    ext_write(1 + 2,  40 +  2);
}
"""})
    lines = []
    session.out = lines.append
    from ssi.repl import TraceSpec

    session.trace_specs["ext_write"] = TraceSpec("ext_write", ["x", "x"])
    run_function(session, interp, "testmain")
    assert lines == ["Line 3: ext_write(1 + 2,  40 +  2) => 3, 42"]


# ------------------------------------------------- reference-oracle batches

def test_concrete_equivalence_small_batch():
    rng = random.Random(1234)
    for _ in range(60):
        stmts, top = refeval.gen_program(rng, max_stmts=25)
        expected = refeval.run_program(stmts)
        source = refeval.render_program(stmts)
        got = finals(source, top)
        assert got == {k: expected[k] for k in top}


def test_tolerance_small_batch():
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        stmts, top = refeval.gen_program(rng, max_stmts=20)
        coverage = {}
        expected = refeval.run_program(stmts, coverage)
        sites = refeval.untaken_sites(stmts, coverage)
        if not sites:
            continue
        source = refeval.render_program(stmts, garbage_at=set(sites), rng=rng)
        got = finals(source, top)
        assert got == {k: expected[k] for k in top}
        checked += 1


# ------------------------------------------------------ compiled expressions

def test_increment_keeps_a_signed_variable_signed():
    out = finals("""
void testmain(void) {
    int n = 0;
    int i;
    for (i = -5; i < 0; i++)
        n = n + 1;
    int j = -3;
    j++;
    int neg = j < 0;
    int k = 1;
    k--;
    --k;
    int below = k < 0;
}
""", ["n", "i", "j", "neg", "k", "below"])
    assert out == {"n": 5, "i": 0, "j": -2, "neg": 1, "k": -1, "below": 1}


# Functions that each give sizeof(T) through one kind of compiled span.
SIZE_THROUGH = {
    "a return": "return sizeof(T);",
    "an expression statement": "int r; r = sizeof(T); return r;",
    "a declaration": "int r = sizeof(T); return r;",
    "an if condition": "if (sizeof(T) == 1) return 1; return 4;",
    "a for init": "int i, r = 0; for (i = sizeof(T); i < 5; i++) r++; return 5 - r;",
    "a for condition": "int i; for (i = 0; i < sizeof(T); i++) { } return i;",
    "a for step": "int i, r = 0; for (i = 0; i < 4; i = i + sizeof(T)) r++; return 4 / r;",
    "a switch subject": "switch (sizeof(T)) { case 1: return 1; default: return 4; }",
    "a snippet": "int r; fill(&r); return r;",
}


def test_typedef_added_at_run_time_recompiles_casts_and_sizeof():
    # Every kind of span, compiled while T is no type name, is compiled
    # again before it next runs once the typedef makes T a 1-byte type.
    names = [f"s{k}" for k in range(len(SIZE_THROUGH))]
    functions = "".join(f"int {name}(void) {{ {body} }}\n"
                        for name, body in zip(names, SIZE_THROUGH.values()))
    session, interp = make_session({"prog.c": f"""
int f(void) {{ return sizeof(T); }}
int g(int v) {{ return (T)v; }}
{functions}
void testmain(void) {{
    int a = f();
    {" ".join(f"int {name}_before = {name}();" for name in names)}
    typedef char T;
    int b = f();
    int c = g(300);
    {" ".join(f"int {name}_after = {name}();" for name in names)}
}}
"""})
    session.register_hook(
        "fill", lambda ctx: ctx.exec_snippet("*{0} = sizeof(T)", [ctx.args[0]]))
    frame = run_function(session, interp, "testmain")
    out = {n: local_concrete(session, frame, n) for n in ["a", "b", "c"]}
    assert out == {"a": 4, "b": 1, "c": 44}
    sizes = {kind: (local_concrete(session, frame, f"{name}_before"),
                    local_concrete(session, frame, f"{name}_after"))
             for kind, name in zip(SIZE_THROUGH, names)}
    assert sizes == dict.fromkeys(SIZE_THROUGH, (4, 1))


def test_unexpanded_macro_event_on_every_execution():
    session, frame = run_main("""
#define GLUE(a, b) a ## b
void testmain(void) {
    int i;
    int n = 0;
    for (i = 0; i < 3; i++)
        n = n + GLUE(x, y);
}
""")
    kinds = [e.kind for e in session.events
             if e.kind in ("unexpanded-macro", "call", "missing-model")]
    assert kinds == ["unexpanded-macro", "call", "missing-model"] * 3
    assert all(e.line == 7 for e in session.events_of("unexpanded-macro"))


def test_untaken_operands_make_no_calls_and_mint_nothing():
    def run(rhs):
        session, frame = run_main(f"""
void testmain(void) {{
    int one = 1;
    int zero = 0;
    int r = {rhs};
}}
""")
        return session, local_concrete(session, frame, "r")

    untaken = [
        ("one ? 7 : ext_a(1 + 2)", "one ? 7 : 0", 7),
        ("zero ? ext_b() : 8", "zero ? 0 : 8", 8),
        ("zero && ext_c(3)", "zero && 0", 0),
        ("one || ext_d()", "one || 0", 1),
        ("one ? 9 : (zero ? ext_e() : ext_f())", "one ? 9 : 0", 9),
    ]
    for rhs, plain, expected in untaken:
        session, r = run(rhs)
        assert r == expected
        assert not [e for e in session.events if e.kind in ("call", "missing-model")]
        assert len(session.values) == len(run(plain)[0].values)


def test_loop_body_compiles_once_per_session(monkeypatch):
    session, interp = make_session({"prog.c": """
#define STEP 3
void testmain(void) {
    int x = 0;
    int i;
    for (i = 0; i < 4; i++)
        x = x + i * STEP;
}
"""})
    calls = []
    real_expand = mc.expand

    def counting_expand(*args, **kwargs):
        calls.append(1)
        return real_expand(*args, **kwargs)

    monkeypatch.setattr(mc, "expand", counting_expand)
    run_function(session, interp, "testmain")
    assert calls
    del calls[:]
    frame = run_function(session, interp, "testmain")
    assert calls == []
    assert local_concrete(session, frame, "x") == 18


def test_malformed_expression_raises_before_its_side_effects():
    session, interp = make_session({"prog.c": """
void testmain(void) {
    ext_first() + ;
}
"""})
    with pytest.raises(EvalError, match="missing expression at prog.c:3") as exc:
        run_function(session, interp, "testmain")
    assert exc.value.line == 3
    assert session.events_of("call") == []


# Every error the expression compiler raises: the statement on line 5 (it
# may run on), the message and the line it names. A message names the line
# of the token after the one that was wrong, or of the last token at the end.
COMPILER_ERROR_CASES = {
    "empty expression": ("if () x = 1;", "empty expression", 5),
    "unexpected token after the expression": ("x = 1 2;", "unexpected token '2'", 5),
    "unexpected token as an operand": ("x = );", "unexpected token ')'", 5),
    "missing expression": ("x = 1 +;", "missing expression", 5),
    "unexpected end in a call": ("x = add(1", "unexpected end of expression", 5),
    "unexpected end in parentheses": ("x = (1", "unexpected end of expression", 5),
    "unexpected end after a dot": ("x = o.", "unexpected end of expression", 5),
    "unexpected end in an index": ("x = a[1;", "unexpected end of expression", 5),
    "expected ')'": ("x = (1\n  2\n  );", "expected ')', found '2'", 7),
    "expected ':'": ("x = x ? 1 2;", "expected ':', found '2'", 5),
    "not assignable": ("1\n  = x;", "expression is not assignable", 6),
    "sum not assignable": ("x + 1 = 2;", "expression is not assignable", 5),
    "conditional not assignable": ("x ? x : x = 3;", "expression is not assignable", 5),
    "address of a value": ("x = &1;", "cannot take the address of a value", 5),
    "call separator": ("x = add(1 2\n);", "expected ',' or ')' in call, found '2'", 6),
    "malformed number": ("x = 1 +\n  99zz;", "malformed number '99zz'", 6),
    "malformed number in an initializer": ("int y = 0x;", "malformed number '0x'", 5),
}


@pytest.mark.parametrize("case", COMPILER_ERROR_CASES)
def test_compiler_errors_name_their_message_and_line(case):
    statement, message, line = COMPILER_ERROR_CASES[case]
    session, interp = make_session({"prog.c": f"""\
int add(int a, int b) {{ return a + b; }}
struct s {{ int a; }};
void testmain(void) {{
    int x = 0; int a[2]; struct s o;
    {statement}
}}
"""})
    with pytest.raises(EvalError) as exc:
        run_function(session, interp, "testmain")
    assert str(exc.value) == f"{message} at prog.c:{line}"
    assert exc.value.line == line


def test_parenthesized_type_names_are_casts_and_other_parentheses_are_not():
    session, frame = run_main("""
struct s { int a; int b; };
int f(int v) { return v * 2; }
void testmain(void) {
    int x = 300;
    int m = -1;
    int buf[2];
    void *p = buf;
    int c8 = (u8)x;
    int cu = (const unsigned int)m > 0;
    int plain = (m) > 0;
    ((struct s *)p)->b = 7;
    int tagged = buf[1];
    typedef unsigned char T;
    int t = (T)x;
    int par = (x) + 1;
    int call = (f)(21);
    int sv = sizeof x;
    int sp = sizeof (x);
    int sc = sizeof(char);
    int si = sizeof(int);
    int ss = sizeof(struct s);
    int sT = sizeof(T);
}
""")
    expected = {"c8": 44, "cu": 1, "plain": 0, "tagged": 7, "t": 44, "par": 301,
                "call": 42, "sv": 4, "sp": 4, "sc": 1, "si": 4, "ss": 8, "sT": 1}
    assert {n: local_concrete(session, frame, n) for n in expected} == expected
    # ``(f)`` is the name ``f`` in parentheses, so the call is a named call.
    assert [e.callee for e in session.events_of("call")] == ["f"]


def test_operators_group_as_in_c():
    session, frame = run_main("""
int f(int v) { return v; }
void testmain(void) {
    int a, b, x;
    a = b = 7;
    int left = 10 - 3 - 2;
    int shifts = 1 << 2 << 3;
    int first = 1 ? 2 : 0 ? 3 : 4;
    int last = 0 ? 2 : 0 ? 3 : 4;
    int arm;
    arm = 1 ? 5, 6 : 0;
    int seq = (x = 1, x + 1);
    int mixed = 1 + 2 * 3 == 7 && 4 | 1 ^ 5 & 3;
    (a, f)(1);
}
""")
    expected = {"a": 7, "b": 7, "left": 5, "shifts": 32, "first": 2, "last": 4,
                "arm": 6, "seq": 2, "mixed": 1}
    assert {n: local_concrete(session, frame, n) for n in expected} == expected
    # A name after a comma is a value, so the call through it is computed.
    assert session.events_of("call") == []
    assert any("call through non-name expression" in e.message
               for e in session.events_of("diagnostic"))


def test_only_a_token_that_can_start_a_type_is_probed_for_a_cast(monkeypatch):
    session, interp = make_session({"prog.c": """
typedef int T;
void testmain(void) {
    int x = 2;
    int r = ((x + 1) * (-x)) + (T)x + sizeof(x) + (int)(x);
}
"""})
    probes = []
    real = interp_module._declarations

    def counting(toks, i, typedefs, member=False):
        probes.append(toks[i].text)
        return real(toks, i, typedefs, member)

    monkeypatch.setattr(interp_module, "_declarations", counting)
    frame = run_function(session, interp, "testmain")
    assert local_concrete(session, frame, "r") == -6 + 2 + 4 + 2
    # The two declarations, then ``(T)`` and ``(int)``; no other ``(``.
    assert probes == ["int", "int", "T", "int"]


# ----------------------------------------------------------- declarations

# Programs on which two readers of the same declaration used to disagree;
# each expects what C says.
DECLARATION_CASES = {
    "global struct array strides by the struct": ("""
struct p { int x; int y; };
struct p G[4];
void testmain(void) {
    G[1].x = 5;
    G[0].y = 7;
    int r = G[1].x;
}
""", {"r": 5}),
    "typedef name keeps its struct tag": ("""
struct s { int a; char b; int c; };
typedef struct s S;
void testmain(void) {
    S arr[2];
    arr[1].a = 3;
    arr[0].c = 4;
    int r = arr[1].a;
    int z = sizeof(S);
}
""", {"r": 3, "z": 9}),
    "typedef name keeps its sign": ("""
typedef unsigned int uint_t;
void testmain(void) {
    int r = (uint_t)-1 > 0;
}
""", {"r": 1}),
    "array parameter is a pointer": ("""
int sum(int a[], int n) { return a[0] + a[1]; }
void testmain(void) {
    int v[2];
    v[0] = 3;
    v[1] = 4;
    int r = sum(v, 2);
}
""", {"r": 7}),
    "unnamed parameter keeps its place": ("""
int g(int, int b) { return b; }
void testmain(void) {
    int r = g(1, 2);
}
""", {"r": 2}),
    "local function-pointer typedef names only the pointer": ("""
void testmain(void) {
    typedef int (*cb)(int x);
    int x = 5;
    int r = sizeof(x);
    int p = sizeof(cb);
}
""", {"r": 4, "p": 8}),
    "function-pointer member is an 8-byte field": ("""
struct ops { void (*fn)(int a, int b); int z; };
void testmain(void) {
    struct ops o;
    o.z = 6;
    int r = sizeof(struct ops);
    int z = o.z;
}
""", {"r": 12, "z": 6}, {("ops", "fn"): 0, ("ops", "z"): 8}),
    "file-scope function-pointer typedef": ("""
typedef void (*handler_t)(int);
void testmain(void) {
    int r = sizeof(handler_t);
}
""", {"r": 8}),
    "parameter type named by a macro": ("""
#define REG unsigned char
int g(REG v) { return v; }
void testmain(void) {
    int r = g(300);
}
""", {"r": 44}),
    "array of a pointer typedef keeps the pointee's width": ("""
typedef unsigned short *reg_p;
void testmain(void) {
    unsigned short buf[2];
    reg_p a[2];
    a[0] = buf;
    *a[0] = 70000;
    int b = buf[0];
    int sa = sizeof(a);
    int se = sizeof(*a[0]);
}
""", {"b": 4464, "sa": 16, "se": 2}),
    "pointer to a struct-pointer typedef reaches the struct": ("""
struct s { int a; char b; int c; };
typedef struct s *sp;
void testmain(void) {
    struct s v;
    struct s *p = &v;
    sp *q = &p;
    (*q)->c = 9;
    int c = v.c;
    int sq = sizeof(*q);
    int ss = sizeof(**q);
}
""", {"c": 9, "sq": 8, "ss": 9}),
    "a block-scope struct body gives its layout": ("""
void testmain(void) {
    struct loc2 { char a; int b; } v;
    v.a = 300;
    int a = v.a;
    long ob = (long)&v.b - (long)&v;
    int s = sizeof v;
}
""", {"a": 44, "ob": 1, "s": 5}),
    "structs that hold each other by value end their cycle": ("""
struct a { int k; struct b x; };
struct b { char c; struct a y; };
void testmain(void) {
    int sa = sizeof(struct a);
    int sb = sizeof(struct b);
}
""", {"sa": 9, "sb": 5}),
    "a typedef'd untagged struct keeps its members' types": ("""
typedef struct { unsigned int a; unsigned char b; unsigned int c; } S;
void testmain(void) {
    S v;
    long ob = (long)&v.b - (long)&v;
    long oc = (long)&v.c - (long)&v;
    v.b = 300;
    int b = v.b;
    int s = sizeof(S);
}
""", {"ob": 4, "oc": 5, "b": 44, "s": 9}),
    "an untagged member struct has its size": ("""
struct outer { struct { int x; int y; } pos; int z; };
void testmain(void) {
    struct outer o;
    long oz = (long)&o.z - (long)&o;
    int s = sizeof(struct outer);
}
""", {"oz": 8, "s": 12}),
    "elements of an untagged struct array do not alias": ("""
typedef struct { u8 lo; u8 hi; } pair_t;
pair_t tab[4];
void testmain(void) {
    long d = &tab[2].lo - &tab[1].hi;
}
""", {"d": 1}),
    "a typedef of an array keeps its bounds": ("""
typedef int A[4];
typedef unsigned char MAC[6];
struct s { MAC mac; int x; };
int third(A p) { return p[2]; }
void testmain(void) {
    A x[2];
    x[1][3] = 7;
    x[1][2] = 11;
    int sa = sizeof(A);
    int sx = sizeof x;
    int sr = sizeof x[0];
    int r = third(x[1]);
    int v = x[1][3];
    int ss = sizeof(struct s);
}
""", {"sa": 16, "sx": 32, "sr": 16, "r": 11, "v": 7, "ss": 10}, {("s", "x"): 6}),
}


@pytest.mark.parametrize("case", DECLARATION_CASES)
def test_declarations_read_one_way(case):
    source, expected, *offsets = DECLARATION_CASES[case]
    session, frame = run_main(source)
    assert {n: local_concrete(session, frame, n) for n in expected} == expected
    for (tag, name), offset in (offsets[0] if offsets else {}).items():
        assert session.store.field_offset(tag, name).offset == offset


def test_every_array_bound_is_counted_by_one_rule():
    # A bound is evaluated wherever it appears, as a local's already was, not
    # read only when it is a lone number.
    session, frame = run_main("""
#define NBANKS 2
struct pc { unsigned long map[NBANKS * 2]; int irq; };
unsigned long G[NBANKS * 2];
void testmain(void) {
    struct pc v;
    unsigned long m[NBANKS * 2];
    v.irq = 9;
    v.map[1] = 4;
    int irq = v.irq;
    int z = sizeof(struct pc);
    int w = sizeof(int[2 * 4]);
    G[0] = 1;
}
""")
    assert {n: local_concrete(session, frame, n) for n in ("irq", "z", "w")} == \
        {"irq": 9, "z": 36, "w": 32}
    assert session.store.field_offset("pc", "irq").offset == 32
    for place in (frame.locals["m"], session.globals["G"]):
        assert session.store.region(place.region).size == 32


def test_parameters_read_once_per_typedef_epoch(monkeypatch):
    session, interp = make_session({"prog.c": """
int first(T v) { return v + 1; }
int none(void) { return 1; }
void testmain(void) {
    int a = first(300);
    a = first(a);
    a = first(a);
    none();
    none();
    typedef int *T;
    int b = first(300);
    none();
}
"""})
    reads = []
    real = interp_module._declarations

    def counting(toks, i, typedefs, member=False):
        reads.append(member)
        return real(toks, i, typedefs, member)

    monkeypatch.setattr(interp_module, "_declarations", counting)
    lists = []
    real_read = interp._read_params
    monkeypatch.setattr(interp, "_read_params",
                        lambda hole: lists.append(hole) or real_read(hole))
    frame = run_function(session, interp, "testmain")
    # Read once for the three calls with T an unknown (int-sized) type, and
    # once more after the typedef, which makes v a pointer to int; an empty
    # list is kept as it is read, not read again on each call.
    assert reads.count(True) == 2
    for name in ("first", "none"):
        params = session.corpus.find_function(name).params
        assert lists.count(params) == 2, name
        assert params.compiled == ([] if name == "none" else [("v", interp.s.typedefs["T"])])
    assert local_concrete(session, frame, "a") == 303
    assert local_concrete(session, frame, "b") == 304


FIVE = """void testmain(void) {
    int a = 1;
    int b = 2;
    int c = 3;
    int d = 4;
    int e = 5;
}
"""
LOOP = """void testmain(void) {
    int i;
    int t = 0;
    for (i = 0; i < 2; i++) {
        t = t + 1;
        t = t + 2;
    }
    t = t + 3;
}
"""
CALLEE = """int f(int x) {
    int y = x + 1;
    return y;
}
void testmain(void) {
    int a = f(1);
    int b = a;
}
"""

# (program, breakpoint lines, answers, stop lines, hits of each breakpoint)
STOP_CASES = {
    "a step, then continue": (FIVE, {2}, ["step", "continue"], [3, 4], [1]),
    "a step onto a breakpoint": (FIVE, {2, 3}, ["step", "step", "continue"], [3, 4, 5], [1, 1]),
    "two breakpoints in a row": (FIVE, {3, 4}, ["continue", "continue"], [4, 5], [1, 1]),
    "steps to the end": (FIVE, {2}, ["step"] * 4, [3, 4, 5, 6], [1]),
    # The stop after a loop body's last statement waits for the next
    # statement: the body's first on the next pass, then the one after.
    "the last statement of a loop body": (LOOP, {6}, ["continue"] * 2, [5, 8], [2]),
    "a breakpoint inside a callee": (CALLEE, {2}, ["continue"], [3], [1]),
    "a step past a return": (CALLEE, {2}, ["step", "continue"], [3, 7], [1]),
}


@pytest.mark.parametrize("case", STOP_CASES)
def test_breakpoints_and_steps_stop_before_the_next_statement(case):
    program, lines, answers, expected, hits = STOP_CASES[case]
    session, interp = make_session({"prog.c": program})
    from ssi.repl import Breakpoint

    for line in lines:
        session.breakpoints[(None, line)] = Breakpoint(None, line)
    stops = []

    def on_stop(position):
        stops.append(position[1])
        return answers[len(stops) - 1]

    session.stop_handler = on_stop
    run_function(session, interp, "testmain")
    assert stops == expected
    assert [bp.hits for bp in session.breakpoints.values()] == hits


def test_pointer_arithmetic_steps_by_elements():
    # A void pointer steps by bytes; an attribute macro before the `*` of a
    # parameter does not hide its name; every step of a chain scales.
    out = finals("""
struct pt { int x; int y; };
int second(int __attr *r) { return *(r + 1); }
void testmain(void) {
    int arr[4];
    int i;
    for (i = 0; i < 4; i++)
        arr[i] = 10 + i;
    int *p = &arr[0];
    int a = *(p + 1);
    p++;
    int b = *p;
    p += 1;
    int c = *p;
    int d = *(p - 1);
    int e = *(arr + 3);
    p--;
    p -= 1;
    int f = *p;
    struct pt ps[2];
    ps[1].y = 9;
    struct pt *q = ps;
    int g = (q + 1)->y;
    void *v = arr;
    int h = *(int *)(v + 8);
    int k = second(arr);
    i = 1;
    int l = *(p + i + 1);
    int m = *(1 + p);
    int n = *((p + 1) + 1);
    int o = *(p + 3 - 1 - 1);
    int s = (p + 1)[2];
}
""", ["a", "b", "c", "d", "e", "f", "g", "h", "k", "l", "m", "n", "o", "s"])
    assert out == {"a": 11, "b": 11, "c": 12, "d": 11, "e": 13, "f": 10, "g": 9,
                   "h": 12, "k": 11, "l": 12, "m": 11, "n": 12, "o": 11, "s": 13}


def test_pointer_difference_counts_elements_by_declared_type():
    # The right operand is a pointer by its declaration, whatever it holds:
    # a constant address, or an unbound argument bound afterwards.
    session, frame = run_main("""
int diff(int *e, int *s) { return e - s; }
void testmain(void) {
    int *e = (int *)100;
    int *s = (int *)40;
    int a = e - s;
    int b = diff((int *)100, (int *)40);
    int c = diff();
}
""")
    assert local_concrete(session, frame, "a") == 15
    assert local_concrete(session, frame, "b") == 15
    slot = frame.locals["c"]
    c = session.store.load(Location(slot.region, slot.offset), slot.width)
    e, s = (session.values.get(b) for b in session.values.resolve(c).blockers)
    session.values.concretize(e, Concrete(64, 100), "user-supplied")
    session.values.concretize(s, Concrete(64, 40), "user-supplied")
    assert to_int(session.values.resolve(c)) == 15


def test_pointer_minus_pointer_in_one_region_counts_elements():
    # The value layer folds a byte distance only within one region, with no
    # blockers; a difference of addresses counts elements, and one of
    # addresses cast to long stays a byte count.
    session, frame = run_main("""
struct o { int x; long y; int z; };
void testmain(void) {
    struct o v;
    int a[4];
    int b[4];
    long field = (long)&v.z - (long)&v;
    long up = &a[3] - &a[0];
    long down = &a[1] - &a[3];
    long apart = &a[3] - &b[0];
}
""")
    z_offset = session.store.field_offset("o", "z").offset
    assert local_concrete(session, frame, "field") == z_offset == 12
    assert local_concrete(session, frame, "up") == 3
    assert local_concrete(session, frame, "down") == -2
    slot = frame.locals["apart"]
    apart = session.store.load(Location(slot.region, slot.offset), slot.width)
    r = session.values.resolve(apart)
    assert not isinstance(r, Concrete) and r.blockers == ()


def test_file_scope_scalar_initializers_are_stored_at_first_use():
    session, frame = run_main("""
#define FIVE 5
int G = FIVE;
static unsigned long H = G * 2 + 1, K;
int *Q = &G;
int arr[2] = {1, 2};
struct pt { int x; int y; } P = {3, 4};
void testmain(void) {
    int a = G;
    long h = H;
    int q = *Q;
    G = 7;
    int b = *Q;
    int c = arr[1];
    int d = P.y;
}
""")
    assert {n: local_concrete(session, frame, n) for n in "ahqb"} == \
        {"a": 5, "h": 11, "q": 5, "b": 7}
    for name in "cd":  # array and brace initializers stay unstored
        slot = frame.locals[name]
        v = session.store.load(Location(slot.region, slot.offset), slot.width)
        assert isinstance(v.payload, SymbolRoot)


def test_file_scope_declarations_are_read_expanded():
    # A function-like macro inside a declaration is expanded before the item
    # is read, and a name that is an object-like macro declares nothing, as
    # C's preprocessor and a block-scope declaration have it.
    session, frame = run_main("""
#define DECL(n) int n = 3
#define GOOD 3
#define N(k) (k + 1)
static DECL(G);
DECL(H);
int GOOD;
int arr[N(2)];
void testmain(void) { int a = G; int b = H; int n = sizeof(arr); }
""")
    assert sorted(session.global_decls) == ["G", "H", "arr"]
    assert {n: local_concrete(session, frame, n) for n in "abn"} == {"a": 3, "b": 3, "n": 12}


def test_unexpanded_macro_in_a_global_is_reported_at_its_first_use():
    # Reading file scope reports nothing; the global's first use reports
    # the macro once, before its initializer runs, and later uses do not.
    session, interp = make_session({"prog.c": """
#define GLUE(a, b) a ## b
int G = GLUE(x, y);
int unused = GLUE(p, q);
void testmain(void) { int a = G; int b = G; }
"""})
    assert session.events_of("unexpanded-macro") == []
    run_function(session, interp, "testmain")
    kinds = [e.kind for e in session.events if e.kind in ("unexpanded-macro", "missing-model")]
    assert kinds == ["unexpanded-macro", "missing-model"]
    assert [(e.name, e.line) for e in session.events_of("unexpanded-macro")] == [("GLUE", 3)]


def test_every_global_is_declared_by_one_step_at_first_use():
    # A declared global and an undeclared name (an int) are both declared by
    # ``_declare``, in ``Session.globals`` before the initializer runs.
    session, interp = make_session({"prog.c": """
int *SELF = &SELF;
int G = 4;
void testmain(void) { int a = G; int b = U; U = 6; int c = U; int *p = SELF; }
"""})
    declared = []
    real = interp._declare

    def spy(decl, file_id, line, kind=interp_module.STACK):
        declared.append((decl.name, kind))
        return real(decl, file_id, line, kind)

    interp._declare = spy
    frame = run_function(session, interp, "testmain")
    statics = [name for name, kind in declared if kind is interp_module.STATIC]
    assert statics == ["G", "U", "SELF"]
    assert {n: local_concrete(session, frame, n) for n in "ac"} == {"a": 4, "c": 6}
    assert session.globals["U"].type.kind == "base"
    assert session.values.resolve(frame.locals["p"].value).pointer == \
        (session.globals["SELF"].region, 0)


def test_file_scope_initializer_errors_name_their_line():
    source = "int G = 1 +;\nvoid testmain(void) { int a = G; }\n"
    with pytest.raises(EvalError, match="at prog.c:1"):
        run_main(source)


def test_attribute_macros_after_the_declarator_name():
    # Unknown identifiers after a name, with any parenthesized group that
    # follows one, are attributes; the name is still the one declared.
    session, frame = run_main("""
int arr[4];
int *g __read_mostly;
u32 w __aligned(4), z;
void testmain(void) {
    int x ATTR, y;
    x = 1;
    y = 2;
    int r __maybe_unused = 3;
    u32 v __aligned(4) = 4;
    g = &arr[0];
    g[1] = 5;
    int a = arr[1];
}
""")
    assert {n: local_concrete(session, frame, n) for n in "xyrva"} == {
        "x": 1, "y": 2, "r": 3, "v": 4, "a": 5}
    assert sorted(session.global_decls) == ["arr", "g", "w", "z"]
    g = session.global_decls["g"].type
    assert g.pointer and not g.elem.pointer


# Stores to variables, parameters, fields and elements narrower than int
# wrap to the declared width and sign; a narrow value reads back as an int.
# Functions whose ``return`` converts its value to the declared type, as a
# store to a variable of that type does: each row is a definition, then the
# type of the local its call is stored in, the call, and the value gcc 12.2
# (x86-64) prints for that local as a ``long``.
RETURN_CASES = [
    ("u32 f0(void) { return -1; }", "long", "f0()", 4294967295),
    ("unsigned char f1(void) { return 300; }", "int", "f1()", 44),
    ("signed char f2(int x) { return x; }", "int", "f2(200)", -56),
    ("short f3(int x) { return x + 1; }", "long", "f3(69999)", 4464),
    ("_Bool f4(void) { return 256; }", "int", "f4()", 1),
    ("unsigned short f5(void) { return 65535; }", "int", "f5()", 65535),
    ("int f6(void) { return -7; }", "long", "f6()", -7),
]
RETURN_DEFINITIONS = "typedef unsigned int u32;\n" + "".join(f"{d}\n" for d, *_ in RETURN_CASES)


def test_return_converts_to_the_declared_type():
    body = "".join(f"    {t} r{k} = {call};\n" for k, (_, t, call, _) in enumerate(RETURN_CASES))
    session, frame = run_main(RETURN_DEFINITIONS + f"void testmain(void) {{\n{body}}}\n")
    got = [local_concrete(session, frame, f"r{k}") for k in range(len(RETURN_CASES))]
    assert got == [value for *_, value in RETURN_CASES]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
def test_return_table_is_what_gcc_prints(tmp_path):
    prints = "".join(f'    {{ {t} r = {call}; printf("%ld\\n", (long)r); }}\n'
                     for _, t, call, _ in RETURN_CASES)
    (tmp_path / "p.c").write_text(f"int printf(const char *, ...);\n{RETURN_DEFINITIONS}"
                                  f"int main(void) {{\n{prints}    return 0;\n}}\n")
    subprocess.run(["cc", "-w", "-O0", "-o", str(tmp_path / "p"), str(tmp_path / "p.c")],
                   check=True, capture_output=True)
    out = subprocess.run([str(tmp_path / "p")], check=True, capture_output=True, text=True)
    assert list(map(int, out.stdout.split())) == [value for *_, value in RETURN_CASES]


def test_a_return_already_in_range_mints_nothing():
    def minted(ret_type):
        session, _ = run_main(f"{ret_type} f(void) {{ return 5; }}\n"
                              "void testmain(void) { int r = f(); }")
        return len(session.values)

    assert minted("u8") == minted("int")


RECURSION = "int r(int n) { if (n == 0) return probe(0); return r(n - 1) + 1; }\n"

# (the recursive function r, the most Python frames one level of it may take)
CALL_DEPTH_CASES = {
    "plain": (RECURSION, 6),
    "a call in an if in a while": ("int r(int n) { if (n == 0) return probe(0); "
                                   "while (1) { if (n) return r(n - 1) + 1; } }\n", 10),
}


@pytest.mark.parametrize("case", CALL_DEPTH_CASES)
def test_a_c_call_costs_few_python_frames(case):
    source, bound = CALL_DEPTH_CASES[case]

    def depth_at(n):
        session, interp = make_session(
            {"p.c": source + f"void testmain(void) {{ int x = r({n}); }}"})
        depths = []

        def probe(ctx):
            f, depth = sys._getframe(), 0
            while f is not None:
                f, depth = f.f_back, depth + 1
            depths.append(depth)

        session.register_hook("probe", probe)
        run_function(session, interp, "testmain")
        return depths[0]

    assert depth_at(11) - depth_at(10) <= bound


def test_recursion_past_the_python_stack_names_the_innermost_c_call():
    session, interp = make_session(
        {"p.c": RECURSION + "void testmain(void) { int x = r(10000); }"})
    session.register_hook("probe", lambda ctx: None)
    with pytest.raises(CallDepthExceeded, match=r"r\(n - 1\) at p\.c:1 ") as caught:
        run_function(session, interp, "testmain")
    assert caught.value.line == 1


def test_the_records_made_per_call_and_statement_take_no_attribute_dict():
    for record in (ModelEvent(0, "call"), Frame("f"), Region(1, "r", "stack")):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_a_call_site_blames_one_missing_call_record():
    session, interp = make_session({"p.c": """
void testmain(void) {
    int i;
    for (i = 0; i < 2; i++) { probe(i); }
    probe(2);
}
"""})
    blames = []
    session.register_hook("probe", lambda ctx: blames.append(ctx.session.values.blame))
    run_function(session, interp, "testmain")
    first, again, other = blames
    assert first == again and first is again
    assert first != other
    assert (first.callee, first.line, other.line) == ("probe", 4, 5)


NARROW_STORE_CASES = {
    "locals": ("""
void testmain(void) {
    unsigned char c = 300;
    char d = 200;
    short s = 70000;
    unsigned short u = -1;
    int k = c;
}
""", {"c": 44, "d": -56, "s": 4464, "u": 65535, "k": 44}),
    "char parameter": ("""
int id(char p) { return p; }
void testmain(void) {
    int r = id(300);
    int q = id(200);
}
""", {"r": 44, "q": -56}),
    "unsigned char struct field": ("""
struct s { unsigned char b; short h; int i; };
void testmain(void) {
    struct s o;
    o.b = 300;
    o.h = 40000;
    o.i = 300;
    int b = o.b;
    int h = o.h;
    int i = o.i;
}
""", {"b": 44, "h": -25536, "i": 300}),
    "array elements and compound assignment": ("""
void testmain(void) {
    unsigned char buf[2];
    buf[1] = 258;
    int e = buf[1];
    char c = 127;
    c += 1;
    u8 w = 255;
    w++;
}
""", {"e": 2, "c": -128, "w": 0}),
    "narrow operands are promoted to int": ("""
void testmain(void) {
    unsigned char a = 200, b = 100;
    char d = 200;
    int sum = a + b;
    int eq = d == a;
    int neg = -a;
}
""", {"sum": 300, "eq": 0, "neg": -200}),
    "a _Bool holds 0 or 1": ("""
typedef _Bool flag_t;
struct f { _Bool on; };
int id(_Bool p) { return p; }
void testmain(void) {
    _Bool b = 2;
    _Bool c = 256;
    _Bool z = 0;
    bool n = -1;
    flag_t t = 7;
    _Bool d = 1;
    d += 1;
    struct f o;
    o.on = 512;
    int on = o.on;
    _Bool a[2];
    a[1] = 3;
    int e = a[1];
    int r = id(300);
    int x = (_Bool)4 + (_Bool)0;
}
""", {"b": 1, "c": 1, "z": 0, "n": 1, "t": 1, "d": 1, "on": 1, "e": 1, "r": 1, "x": 1}),
}


@pytest.mark.parametrize("case", NARROW_STORE_CASES)
def test_narrow_stores_wrap_to_the_declared_width_and_sign(case):
    source, expected = NARROW_STORE_CASES[case]
    session, frame = run_main(source)
    assert {n: local_concrete(session, frame, n) for n in expected} == expected


# A cast to a pointer and ``&`` are pointer steps, typed by what they point
# at, and the value layer decides tests on addresses. Each row: the body of
# ``testmain``, then what ``r`` read before that (SYMBOL: no constant;
# BRANCH: the run stopped at a symbolic branch) and C's answer, which it
# reads now. An address is never 0, two regions never overlap, and addresses
# in one region order by offset; any other test stays symbolic.
SYMBOL, BRANCH = "symbol", "branch"
POINTER_STEP_CASES = {
    "store through a cast": (
        "unsigned char b[2]; *(unsigned char *)b = 300; int r = b[0];", 300, 44),
    "sizeof a deref of a cast": ("int r = sizeof(*(char *)0);", 4, 1),
    "step a cast void pointer": (
        "int a[2]; a[1] = 7; void *v = a; int r = *((int *)v + 1);", SYMBOL, 7),
    "step a cast short array": (
        "short s[3]; s[1] = 70000; int r = *((short *)s + 1);", SYMBOL, 4464),
    "field through a cast address": (
        "struct b y; y.s = 6; int r = ((struct a *)&y)->q;", SYMBOL, 6),
    "sizeof an address": ("int x; long r = sizeof(&x);", 4, 8),
    "deref a step from an address": (
        "int a[2]; a[1] = 7; int r = *(&a[0] + 1);", SYMBOL, 7),
    "store a step from an address": (
        "int a[2]; a[1] = 7; int *p = &a[0] + 1; int r = *p;", SYMBOL, 7),
    "not an address": (
        "int a = 1; int *p = &a; int r = 0; if (!p) r = 1;", BRANCH, 0),
    "an address against NULL": (
        "int a = 1; int *p = &a; int r = 2; if (p == NULL) r = 1;", BRANCH, 2),
    "a loop to the end of an array": (
        "int a[3]; int *p; int r = 0; for (p = a; p < a + 3; p++) r++;", BRANCH, 3),
    "two copies of one address": (
        "int a[3]; int *p = a; int *q = a; int r = p == q;", SYMBOL, 1),
    "addresses in two regions": ("int a, b; int r = &a != &b;", SYMBOL, 1),
    "order across two regions": ("int a, b; int r = &a < &b;", SYMBOL, SYMBOL),
    "field of a call result": (
        "void *d = get(); struct c *f = to_c(d); f->u = 1; f->w = 2; int r = to_c(d)->w;",
        2, 2),
    "field of a call result over an array": (
        "int x[2]; x[0] = 1; x[1] = 2; int r = to_c_int(x)->w;", 2, 2),
    "field of a ?: of casts": (
        "int x[2], y[2]; x[0] = 1; x[1] = 2; int k = 1;"
        " int r = (k ? (struct c *)x : (struct c *)y)->w;", 2, 2),
    "step a call result": ("int a[2]; a[1] = 7; int r = *(same(a) + 1);", SYMBOL, 7),
    "step a ?: of pointers": (
        "int a[2]; a[1] = 7; int *p = a; int k = 1; int r = *((k ? p : a) + 1);", SYMBOL, 7),
    "an address and what it points at": (
        "int a = 4; int *p = &a; int r = 0; if (p && *p) r = 1;", BRANCH, 1),
    "an address and a false operand": ("int a = 4; int *p = &a; int r = p && 0;", SYMBOL, 0),
    "a false operand or an address": ("int a = 4; int *p = &a; int r = 0 || p;", SYMBOL, 1),
    "a difference of char pointers": ("char s[8]; char *p = s + 5; long r = p - s;", 5, 5),
    "a difference of struct addresses": ("struct c v[3]; long r = &v[2] - &v[0];", 16, 2),
    "a difference of cast char constants": (
        "long r = (char *)40u - (char *)100;", 4294967236, -60),
    "a difference of cast int constants": (
        "long r = (int *)40u - (int *)100;", 1073741809, -15),
}


@pytest.mark.parametrize("case", POINTER_STEP_CASES)
def test_casts_and_addresses_are_pointer_steps(case):
    body, _, expected = POINTER_STEP_CASES[case]
    session, frame = run_main(
        "#define NULL ((void *)0)\nstruct a { int q; };\nstruct b { int s; };\n"
        "struct c { int u; int w; };\n"
        "struct c *to_c(void *p) { return (struct c *)p; }\n"
        "struct c *to_c_int(int *p) { return (struct c *)p; }\n"
        "int *same(int *p) { return p; }\n"
        f"void testmain(void) {{ {body} }}\n")
    if expected is SYMBOL:
        slot = frame.locals["r"]
        r = session.values.resolve(session.store.load(Location(slot.region, 0), slot.width))
        assert not isinstance(r, Concrete)
    else:
        assert local_concrete(session, frame, "r") == expected


def test_a_void_pointer_does_not_pin_what_a_value_points_at():
    # ``d`` is stored as a ``void *`` first; the ``struct c *`` that holds
    # it next still gives the hook's bare argument struct c's layout.
    session, interp = make_session({"prog.c": """
struct c { int u; int w; };
void testmain(void) {
    void *d = get();
    struct c *f = d;
    f->u = 1;
    set_w(d);
    int r = f->w;
}
"""})
    session.register_hook("set_w", lambda ctx: ctx.exec_snippet("{0}->w = 5", ctx.args))
    assert local_concrete(session, run_function(session, interp, "testmain"), "r") == 5


def test_two_modeled_pointer_arguments_may_alias():
    session, interp = make_session({"prog.c": """
#define NULL ((void *)0)
void entry(int *a, int *b) {
    if (a == a && a != NULL && !!a)
        session_ok();
    if (a == b)
        *a = 1;
}
"""})
    session.commands["probe"] = CommandSpec("entry", {})
    ok = []
    session.register_hook("session_ok", lambda ctx: ok.append(1))
    with pytest.raises(SymbolicBranch, match=r"\(blockers: opaque value\)"):
        interp.run_entry("probe")
    assert ok == [1]


def test_a_branch_that_no_named_root_blocks_says_opaque_value():
    with pytest.raises(SymbolicBranch, match=r"\(blockers: opaque value\)") as exc:
        run_main("void testmain(void) { int a, b; if (&a < &b) a = 1; }")
    assert exc.value.blockers == ()


# Addresses with a symbolic index ``i`` (line 5's ``g()``, bound to 2 after
# the run) and other pointer paths: each row is a line of ``testmain`` (line
# 6), then what it gives. ``(name, offset)``: ``p`` stays symbolic and, once
# ``i`` is bound, points at that global's region at that offset. A message:
# the run raises ``SymbolicAddress`` with it, blocked by ``i``'s root, which
# stays unbound. An int: what ``r`` reads.
ADDRESS_CASES = {
    "an element's address": ("int *p = &a[i];", ("a", 8)),
    "a field of an element": ("int *p = &s[i].f;", ("s", 20)),
    "a step past an element": ("int *p = &a[1] + i;", ("a", 12)),
    "an element of a row": ("int *p = &m[i][1];", ("m", 20)),
    "a row's element": ("int *p = &m[1][i];", ("m", 16)),
    "two symbolic indices": ("int *p = &m[i][i];", ("m", 24)),
    "a field through a stepped pointer": (
        "struct st *q = &s[1]; int *p = &q[i].f;", ("s", 28)),
    "a read of an element": (
        "int r = a[i];", r"address offset in region \d+ is symbolic at prog.c:6 "),
    "a write of an element": (
        "a[i] = 1;", r"address offset in region \d+ is symbolic at prog.c:6 "),
    "a read through the address": (
        "int *p = &a[i];\n    int r = *p;", "cannot dereference symbolic pointer at prog.c:7 "),
    "a concrete address": ("*(int *)0x40 = 7; int r = *(int *)0x40;", 7),
}


@pytest.mark.parametrize("case", ADDRESS_CASES)
def test_symbolic_addresses_wait_for_their_index(case):
    line, expected = ADDRESS_CASES[case]
    session, interp = make_session({"prog.c": (
        "int a[4];\nstruct st { int e; int f; } s[3];\nint m[3][2];\n"
        f"void testmain(void) {{\n    int i = g();\n    {line}\n}}\n")})
    vals = session.values
    if isinstance(expected, str):
        with pytest.raises(SymbolicAddress, match=expected) as exc:
            run_function(session, interp, "testmain")
        assert exc.value.blockers == ("ret:g@5",)
        assert not vals.bindings and not vals.pointer_bindings
        return
    frame = run_function(session, interp, "testmain")
    if isinstance(expected, int):
        assert local_concrete(session, frame, "r") == expected
        return
    p = frame.locals["p"].value
    assert vals.resolve(p).pointer is None
    vals.concretize(frame.locals["i"].value, Concrete(32, 2, True), "test")
    name, offset = expected
    assert vals.resolve(p).pointer == (session.globals[name].region, offset)


def test_a_symbolic_index_is_not_materialized_as_a_pointer():
    # Only the root a pointer steps from gets a region of its own: ``q``
    # itself, or ``r`` and ``t`` under casts and a constant taken or added;
    # ``i`` is an index.
    source = ("int a[4];\nvoid testmain(void) {\n"
              "    int i = g(); int *p = &a[i]; int r = *p;\n}\n")
    session, interp = make_session({"prog.c": source})
    with pytest.raises(SymbolicAddress, match=r"\(blocked by: ret:g@3\)"):
        run_function(session, interp, "testmain")
    vals = session.values
    assert not vals.bindings and not vals.pointer_bindings
    root = session.frames[-1].locals["i"].value
    vals.concretize(root, Concrete(32, 2, True), "test")
    p = session.frames[-1].locals["p"].value
    assert interp.deref_location(p, ("prog.c", 3)) == (session.globals["a"].region, 8)
    session, frame = run_main("""
void testmain(void) {
    int *q = g();
    *q = 5;
    q[2] = 9;
    int x = *q;
    int y = *(int *)((long)q + 8);
    int *r = h();
    *(int *)((long)r - 4) = 3;
    int *t = k();
    *(int *)(8 + (long)t) = 7;
    int w = r[-1];
    int u = t[2];
}
""")
    assert {n: local_concrete(session, frame, n) for n in "xywu"} == \
        {"x": 5, "y": 9, "w": 3, "u": 7}
    assert [e.message for e in session.events_of("diagnostic")] == [
        "materialized region 2 for ret:g@3", "materialized region 6 for ret:h@8",
        "materialized region 8 for ret:k@10"]


def test_an_equality_with_the_constant_first_binds_the_symbol():
    session, frame = run_main("""
void testmain(void) {
    int x = h();
    int r = 0;
    if (5 == x)
        r = x;
}
""", branch_policy="assume-true")
    assert local_concrete(session, frame, "r") == 5
    assert [b.bound.bits for b in session.values.bindings.values()] == [5]


# ------------------------------------------------------------ held locals

# Each program runs in ``f``; each local's (value, region id, value id) is
# read through its (region, 0) cell, as the REPL's ``xc`` and the benchmark
# read it. A value that does not resolve shows the labels that block it.
# The figures, and the count minted, are those of a store that gave every
# local a region and a cell; ``regions`` is what a held local leaves: only
# the regions of locals whose address was taken (``&``, or ``.`` on an int).
SPILL_CASES = {
    "address then write": (
        "", "int x = 5; int *p = &x; *p = 7; int y = x;",
        {"x": (7, 1, 2), "p": ([], 2, 1), "y": (7, 3, 2)}, 3, [1]),
    "address of an unset local, then a write": (
        "", "int x; int *p = &x; *p = 3; int y = x;",
        {"x": (3, 1, 1), "p": ([], 2, 0), "y": (3, 3, 1)}, 2, [1]),
    "address of an unset local, then a read": (
        "", "int x; int *p = &x; int y = *p; int z = x;",
        {"x": (["mem:(1,0)"], 1, 1), "p": ([], 2, 0), "y": (["mem:(1,0)"], 3, 1),
         "z": (["mem:(1,0)"], 4, 1)}, 2, [1]),
    "a pointer to a pointer": (
        "", "int v = 1; int *q = &v; int **pp = &q; **pp = 9; int w = v; int *r = q;",
        {"v": (9, 1, 3), "q": ([], 2, 1), "pp": ([], 3, 2), "w": (9, 4, 3),
         "r": ([], 5, 1)}, 4, [1, 2]),
    "a member of an int": (
        "", "int x = 4; x.f = 2; int y = x.f; int z = x;",
        {"x": (2, 1, 1), "y": (2, 2, 1), "z": (2, 3, 1)}, 2, [1]),
    "a local redeclared in a loop": (
        "", "int s = 0; int i; for (i = 0; i < 3; i++) { int t; t = i * 2; s = s + t; }"
            " int u = 1;",
        {"s": (6, 1, 20), "i": (3, 2, 22), "t": (4, 5, 19), "u": (1, 6, 25)}, 26, []),
    "the address of a parameter": (
        "int bump(int v) { int *p = &v; *p = v + 1; return v; }\n",
        "int r = bump(4); int after = 0;",
        {"r": (5, 1, 3), "after": (0, 4, 4)}, 5, [2]),
    "narrow and unsigned stores": (
        "", "unsigned char c = 300; signed char sc = 200; short h = 70000; unsigned u = -1;"
            " _Bool b = 5; unsigned long ul = -2; int back = c + sc;",
        {"c": (44, 1, 2), "sc": (-56, 2, 5), "h": (4464, 3, 8), "u": (4294967295, 4, 11),
         "b": (1, 5, 14), "ul": (18446744073709551614, 6, 17), "back": (-12, 7, 18)},
        19, []),
    "a local that shadows a global read before it": (
        "int g;\n", "int a = g; int g = 3; int b = g;",
        {"a": (["mem:(2,0)"], 1, 0), "g": (3, 3, 1), "b": (3, 4, 1)}, 2, [2]),
}


@pytest.mark.parametrize("case", SPILL_CASES)
def test_held_locals_read_as_cells_did(case):
    before, body, table, minted, regions = SPILL_CASES[case]
    session, interp = make_session({"p.c": f"{before}void f(void) {{\n{body}\n}}\n"})
    frame = run_function(session, interp, "f")
    assert len(session.values) == minted
    got = {}
    for name, place in frame.locals.items():
        v = session.store.load(Location(place.region, place.offset), place.width)
        r = session.values.resolve(v)
        shown = to_int(r) if isinstance(r, Concrete) else session.values.labels_for(r.blockers)
        got[name] = (shown, place.region, v.id)
    assert got == table
    assert len(session.values) == minted  # every local read above was set
    assert sorted(session.store.regions) == regions


def test_a_snippet_leaves_no_held_local():
    session, interp = make_session({"p.c": "int g;\n"})
    five = session.values.concrete(32, 5, ("<test>", 1))
    interp.exec_snippet("int t = {0}; int u; u = t + 1; g = u;", [five])
    assert session.store.held == {}
    g = session.globals["g"]
    assert to_int(session.values.resolve(session.store.load((g.region, 0)))) == 6


def test_a_long_session_keeps_one_region_per_command_and_no_more_cells():
    # The modeled ``data`` argument is the one region an ``enable-irq``
    # leaves; its locals leave none, and no cell.
    session, interp = build_session(load_config(EXAMPLE_DIR / "pinctrl.json"))
    commands = iter(["0", "probe"] + ["enable-irq 3"] * 1000 + ["q"])
    seen = []

    class Script:
        def readline(self):
            store = session.store
            seen.append((len(store.regions), len(store.cells), len(store.held)))
            return next(commands) + "\n"

    out = io.StringIO()
    assert Repl(session, interp, Script(), out, interactive=False).run() == 0
    assert "error" not in out.getvalue()
    # seen[k] is taken before command k is read: seen[2 + n] follows n enable-irq.
    after = seen[2:]
    assert all(held == 0 for _, _, held in seen)
    assert after[100][1] == after[1000][1]
    assert [b[0] - a[0] for a, b in zip(after[100:1000], after[101:1001])] == [1] * 900


def test_directive_lines_between_statements_are_no_statements():
    # Three statements around two directives: three steps and three parse
    # events, and a breakpoint on a directive line has no statement to stop
    # after.
    from ssi.repl import Breakpoint

    program = "void testmain(void) {\n int x = 1;\n#ifndef X\n x = 2;\n#endif\n x = 3;\n}\n"
    session, interp = make_session({"prog.c": program})
    session.breakpoints[(None, 3)] = Breakpoint(None, 3)
    frame = run_function(session, interp, "testmain")
    assert local_concrete(session, frame, "x") == 3
    assert session.steps == 3
    assert [(line, kind) for _f, line, kind in session.parse_events] == [
        (2, "DeclarationNode"), (4, "ExpressionStatementNode"), (6, "ExpressionStatementNode")]
    assert session.breakpoints[(None, 3)].hits == 0


def _testmain(session, interp):
    run_function(session, interp, "testmain")


# Statement paths, each run with ``max_steps`` 3: (program, how it runs,
# then either the int each global holds after and the diagnostics emitted,
# or the error raised and a pattern of its message).
STATEMENT_PATHS = {
    "return; ends a void function": (
        "int G;\nvoid f(void) { G = 1; return; G = 2; }\nvoid testmain(void) { f(); }",
        _testmain, {"G": 1}, []),
    "a switch on an unmodeled call's result": (
        "void testmain(void) {\n switch (g()) { case 1: break; }\n}",
        _testmain, SymbolicBranch, r"^switch on symbolic value at line 2 \(blockers: ret:g@2\)$"),
    "a goto with no label": (
        "void f(void) { goto nowhere; }\nvoid testmain(void) { f(); }",
        _testmain, EvalError, r"^goto target not found: nowhere$"),
    "a fourth statement past max_steps": (
        "void testmain(void) {\n int a = 1;\n a = 2;\n a = 3;\n a = 4;\n}",
        _testmain, MaxStepsExceeded, r"^exceeded 3 statement executions \(line 5\)$"),
    "a stray } in a snippet": (
        "int G;\n", lambda session, interp: interp.exec_snippet("int y = 1; } G = y + 1;"),
        {"G": 2}, ["skipped stray tokens at line 1"]),
}


@pytest.mark.parametrize("case", STATEMENT_PATHS)
def test_statement_paths(case):
    program, run, expected, detail = STATEMENT_PATHS[case]
    session, interp = make_session({"prog.c": program}, max_steps=3)
    if isinstance(expected, type):
        with pytest.raises(expected, match=detail):
            run(session, interp)
        return
    run(session, interp)
    held = {name: to_int(session.values.resolve(session.store.load(
        (session.globals[name].region, 0)))) for name in expected}
    assert held == expected
    assert [e.message for e in session.events_of("diagnostic")] == detail
