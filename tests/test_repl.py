import io
import json
from pathlib import Path

from conftest import make_session, printed_by
from ssi.repl import Repl, scrape_module_info
from ssi.session import CommandSpec


def run_repl(sources, lines, setup=None, commands=None, **session_kwargs):
    session, interp = make_session(sources, **session_kwargs)
    if commands:
        session.commands.update(commands)
    if setup:
        setup(session)
    out = io.StringIO()
    inp = io.StringIO("".join(line + "\n" for line in lines))
    code = Repl(session, interp, inp, out, interactive=False).run()
    return out.getvalue(), code, session


TWO_STEP = {"prog.c": """\
void entry(void) {
    int a = 1;
    int b = a + 1;
    int x = a + b;
    log_state(x);
}
"""}


def test_unknown_command_keeps_looping():
    out, code, _ = run_repl(TWO_STEP, ["fronble", "entry", "q"],
                            commands={"entry": CommandSpec("entry")})
    assert "unknown command: fronble" in out
    assert out.index("fronble") < out.index("ssi > entry")
    assert code == 1  # an erroneous command fails the batch


def test_continue_and_step_with_nothing_running():
    out, code, _ = run_repl(TWO_STEP, ["c", "s", "q"])
    assert "nothing to continue" in out
    assert "nothing to step" in out


def test_breakpoint_suspends_before_next_statement():
    out, _, _ = run_repl(
        TWO_STEP, ["b 2", "entry", "xc a", "c", "q"],
        commands={"entry": CommandSpec("entry")})
    # Statement on line 2 ran, so `a` reads back 1; the banner names the
    # next unexecuted statement's line.
    assert "ssi :: On line 3" in out
    assert ", 0) = 1" in out


def test_two_breakpoints_hit_in_order():
    # Oracle: statement order of the fixture is line 2 then line 4.
    out, _, _ = run_repl(
        TWO_STEP, ["b 4", "b 2", "entry", "c", "c", "q"],
        commands={"entry": CommandSpec("entry")})
    first = out.index("ssi :: On line 3")
    second = out.index("ssi :: On line 5")
    assert first < second


def test_step_executes_one_statement():
    out, _, _ = run_repl(
        TWO_STEP, ["b 2", "entry", "s", "xc b", "c", "q"],
        commands={"entry": CommandSpec("entry")})
    assert "ssi :: On line 3" in out and "ssi :: On line 4" in out
    assert ", 0) = 2" in out


def test_xc_unknown_local_and_shadowing():
    sources = {"prog.c": """\
void inner(void) {
    int x = 2;
    stop_here();
}
void entry(void) {
    int x = 1;
    inner();
}
"""}
    out, _, _ = run_repl(
        sources, ["b 2", "entry", "xc x", "xc nope", "c", "q"],
        commands={"entry": CommandSpec("entry")})
    assert ", 0) = 2" in out  # innermost frame wins
    assert "no such local: nope" in out


def test_verbose_pattern_shorter_than_arity():
    out, _, _ = run_repl(
        TWO_STEP, ["verbose log_state x", "entry", "q"],
        commands={"entry": CommandSpec("entry")})
    assert "log_state(x) => 3" in out


def test_verbose_count_matches_call_events():
    sources = {"prog.c": """\
void entry(void) {
    int i;
    for (i = 0; i < 5; i++)
        tick(i);
}
"""}
    out, _, session = run_repl(
        sources, ["verbose tick x", "entry", "q"],
        commands={"entry": CommandSpec("entry")})
    trace_lines = [l for l in out.splitlines() if l.startswith("Line ")]
    calls = [e for e in session.events_of("call") if e.callee == "tick"]
    assert len(trace_lines) == len(calls) == 5


def test_trace_value_lines():
    out, _, _ = run_repl(
        TWO_STEP, ["b 4", "entry", "trace x", "c", "q"],
        commands={"entry": CommandSpec("entry")})
    lines = [l for l in out.splitlines() if l.startswith("prog.c:")]
    # Ancestry of x: literal 1 at line 2, literal 1 and the sum at line 3,
    # the sum at line 4. Four creations, in creation order.
    assert lines == [
        "prog.c:2 literal 1()",
        "prog.c:3 literal 1()",
        "prog.c:3 +(v0, v1)",
        "prog.c:4 +(v0, v2)",
    ]


HOT_LOOP = {"hl.c": """\
#define KEY 0x5a
#define SLOT(i) ((i) & 7)

struct hl_dev {
\tu32 base;
\tu32 ctrl;
\tu32 shadow[8];
};

static struct hl_dev storage;

void entry(void)
{
\tstruct hl_dev *d = &storage;
\tint x = 0;
\tint s = read_sensor();
\tint i;
\tu32 c;

\td->ctrl = 0;
\tfor (i = 0; i < 5; i++) {
\t\tx = x + i * 3;
\t\ts = s + i;
\t\td->shadow[SLOT(i)] = (x ^ KEY) & 0xfff;
\t\td->ctrl = d->ctrl + d->shadow[SLOT(i)];
\t}
\tc = d->ctrl;
\tlog_state(x, s, c);
}
"""}
HOT_LOOP_SCRIPT = ("b 27", "entry", "trace x", "xc x", "trace s", "xc s", "trace c",
                   "xc c", "xc i", "c", "q")
HOT_LOOP_SNAPSHOT = Path(__file__).resolve().parent / "data" / "repl_trace.json"


def hot_loop_trace():
    out, _, _ = run_repl(HOT_LOOP, HOT_LOOP_SCRIPT,
                         commands={"entry": CommandSpec("entry")})
    return printed_by(out, ("trace", "xc"))


def test_hot_loop_trace_matches_snapshot():
    # Provenance lines name parent value ids, so they pin minting order too.
    assert hot_loop_trace() == json.loads(HOT_LOOP_SNAPSHOT.read_text())


def test_breakpoint_file_scoped():
    out, _, _ = run_repl(
        TWO_STEP, ["b prog.c:2", "b other.c:2", "entry", "c", "q"],
        commands={"entry": CommandSpec("entry")})
    assert out.count("ssi :: On line") == 1


def test_empty_script_exits_zero():
    out, code, _ = run_repl(TWO_STEP, [])
    assert code == 0


def test_symbolic_branch_in_batch_is_nonzero_with_blockers():
    sources = {"prog.c": """\
void entry(void) {
    if (mystery()) {
        int x = 1;
    }
}
"""}
    out, code, _ = run_repl(sources, ["entry", "q"],
                            commands={"entry": CommandSpec("entry")},
                            branch_policy="fail")
    assert code == 1
    assert "error: symbolic branch" in out
    assert "ret:mystery@2" in out


def test_commands_rejected_while_suspended():
    out, _, _ = run_repl(
        TWO_STEP, ["b 2", "entry", "entry", "c", "q"],
        commands={"entry": CommandSpec("entry")})
    assert "cannot run 'entry' while suspended" in out


def test_module_info_scrape():
    session, _ = make_session({"m.c": """
MODULE_DESCRIPTION("A thing");
MODULE_AUTHOR("Ada");
MODULE_AUTHOR("Grace");
MODULE_LICENSE("GPL");
"""})
    info = scrape_module_info(session.corpus)
    assert info["MODULE_DESCRIPTION"] == ["A thing"]
    assert info["MODULE_AUTHOR"] == ["Ada", "Grace"]
    assert info["MODULE_LICENSE"] == ["GPL"]


def test_comment_lines_in_scripts_are_skipped():
    out, code, _ = run_repl(TWO_STEP, ["# a note", "", "q"])
    assert "unknown command" not in out
    assert code == 0


def test_internal_error_keeps_the_session_alive():
    # 200 nested C calls exhaust Python's recursion limit.
    sources = {"r.c": """\
int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }
void deep(void) { int r = down(200); }
void shallow(void) { int r = down(3); log_state(r); }
"""}
    out, code, session = run_repl(
        sources, ["deep", "shallow", "q"],
        commands={"deep": CommandSpec("deep"), "shallow": CommandSpec("shallow")})
    assert "error: internal RecursionError" in out
    assert out.index("error: internal") < out.index("ssi > shallow")
    assert [e.callee for e in session.events_of("missing-model")] == ["log_state"]
    assert code == 1
    assert session.frames == [] and session.values.blame is None


if __name__ == "__main__":
    # Rewrite the snapshot from the ssi package on the import path:
    #   PYTHONPATH=src python tests/test_repl.py
    HOT_LOOP_SNAPSHOT.write_text(json.dumps(hot_loop_trace(), indent=1) + "\n")
