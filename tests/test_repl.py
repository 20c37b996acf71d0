import io
import json
import os
import re
import signal
import threading
import time
from pathlib import Path

import pytest

from conftest import make_session, printed_by
from ssi.repl import Repl
from ssi.session import CommandSpec
from ssi.values import to_int


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


TWICE = {"twice.c": """\
int twice(int n) {
    return n + n;
}
"""}
ENTRIES = {"entry": CommandSpec("entry"), "go": CommandSpec("twice", {"n": 1}),
           "lost": CommandSpec("nowhere")}


@pytest.mark.parametrize("line, message", [
    ("b", "usage: b [FILE:]LINE"),
    ("b x", "bad line number: x"),
    ("b prog.c:x", "bad line number: prog.c:x"),
    ("verbose", "usage: verbose FN PATTERN"),
    ("xc", "usage: xc NAME"),
    ("trace", "usage: trace NAME"),
    ("go", "error: go: missing argument 1 (n)"),
    ("go x", "error: go: argument 1 (n) must be an integer"),
    ("lost", "error: entry function 'nowhere' not found in corpus"),
])
def test_a_command_used_wrongly_fails_the_script_which_goes_on(line, message):
    out, code, session = run_repl({**TWO_STEP, **TWICE},
                                  [line, "verbose log_state x", "entry", "q"],
                                  commands=ENTRIES)
    assert out.splitlines()[:3] == [f"ssi > {line}", message, "ssi > verbose log_state x"]
    assert "log_state(x) => 3" in out
    assert code == 1 and not session.breakpoints


def test_an_integer_entry_parameter_is_an_arg_symbol():
    session, interp = make_session(TWICE)
    session.commands.update(ENTRIES)
    vals = session.values
    result = vals.resolve(interp.run_entry("go", ["3"]))
    assert session.command_params == {"n": 3}
    assert vals.labels_for(result.blockers) == ["arg:n"]


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
    info = session.corpus.module_info()
    assert info["MODULE_DESCRIPTION"] == ["A thing"]
    assert info["MODULE_AUTHOR"] == ["Ada", "Grace"]
    assert info["MODULE_LICENSE"] == ["GPL"]


SPIN = {"prog.c": """\
void spin(void) {
    int i = 0;
    tick();
    for (;;) i++;
}
"""}


def run_spin(tick, lines, sources=SPIN, max_steps=5_000_000):
    """Run ``spin`` under a script with the hook ``tick``, and the SIGINT
    handler from before the run."""
    before = signal.getsignal(signal.SIGINT)
    out, code, _ = run_repl(sources, lines, setup=lambda s: s.register_hook("tick", tick),
                            commands={"spin": CommandSpec("spin")}, max_steps=max_steps)
    assert signal.getsignal(signal.SIGINT) is before
    return out, code


def interrupt_soon(ctx):
    """A hook that sends SIGINT from another thread 0.2 s later."""
    timer = threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT))
    timer.daemon = True
    timer.start()


def test_ctrl_c_stops_a_command_at_its_next_statement():
    # The SIGINT comes while the loop runs; under a script the stop is an
    # error naming the line, and the next line runs.
    out, code = run_spin(interrupt_soon, ["spin", "fronble", "q"])
    assert "error: interrupted before prog.c:4" in out
    assert out.index("interrupted") < out.index("unknown command: fronble")
    assert code == 1


def test_ctrl_c_stops_a_loop_with_an_empty_body():
    # No statement runs in the loop, so the stop is taken at a pass, at the
    # loop's line, long before the step limit.
    empty = {"prog.c": "void spin(void) {\n    tick();\n    for (;;) {}\n}\n"}
    out, _ = run_spin(interrupt_soon, ["spin", "q"], empty, max_steps=3_000_000)
    assert "error: interrupted before prog.c:3" in out
    assert "exceeded" not in out


def test_the_sigint_handler_is_set_once_a_run(monkeypatch):
    # Installed as the run starts and restored as it ends, not per command.
    calls = []
    real = signal.signal
    monkeypatch.setattr(signal, "signal", lambda *args: calls.append(args) or real(*args))
    out, code, _ = run_repl(TWO_STEP, ["entry", "entry", "entry"],
                            commands={"entry": CommandSpec("entry")})
    assert code == 0 and out.count("ssi > entry") == 3
    assert len(calls) == 2


def test_ctrl_c_between_commands_acts_as_before_the_run():
    # While a script line is read, the handler from before the run acts:
    # Python's default raises KeyboardInterrupt, which ends the run.
    class Interrupting(io.StringIO):
        def readline(self, *args):
            os.kill(os.getpid(), signal.SIGINT)
            return super().readline(*args)

    session, interp = make_session(TWO_STEP)
    before = signal.getsignal(signal.SIGINT)
    with pytest.raises(KeyboardInterrupt):
        Repl(session, interp, Interrupting("q\n"), io.StringIO()).run()
    assert signal.getsignal(signal.SIGINT) is before


def test_a_second_ctrl_c_before_the_stop_ends_the_command():
    # Both arrive while a model runs, so no statement stops in between.
    def tick(ctx):
        os.kill(os.getpid(), signal.SIGINT)
        os.kill(os.getpid(), signal.SIGINT)
        time.sleep(5)

    out, _ = run_spin(tick, ["spin", "fronble", "q"])
    assert "error: interrupted\n" in out
    assert "unknown command: fronble" in out


def test_comment_lines_in_scripts_are_skipped():
    out, code, _ = run_repl(TWO_STEP, ["# a note", "", "q"])
    assert "unknown command" not in out
    assert code == 0


def test_internal_error_keeps_the_session_alive():
    # A model's own fault, a Python exception, two C calls deep.
    sources = {"r.c": """\
int down(int n) { if (n == 0) return faulty(n); return 1 + down(n - 1); }
void deep(void) { int r = down(2); }
void shallow(void) { int r = down(0); log_state(r); }
"""}

    def setup(session):
        session.register_hook("faulty", lambda ctx: 1 // to_int(ctx.args[0].payload))

    out, code, session = run_repl(
        sources, ["deep", "shallow", "q"], setup=setup,
        commands={"deep": CommandSpec("deep"), "shallow": CommandSpec("shallow")})
    assert out.count("error: internal ZeroDivisionError") == 2
    assert out.index("error: internal") < out.index("ssi > shallow")
    assert code == 1
    assert session.frames == [] and session.values.blame is None


# C recursion 10,000 deep, past Python's recursion limit, in three shapes: a
# plain ``return``, a call in an ``if`` in a ``while``, a hook's argument.
DEEP_RECURSION = {
    "return": "int r(int n) { if (n == 0) return 0; return r(n - 1) + 1; }",
    "if inside while": """int r(int n) {
    int x = 0;
    while (n > 0) { if (n > 0) { x = r(n - 1) + 1; } n = 0; }
    return x;
}""",
    "hook argument": "int r(int n) { if (n == 0) return 0; return same(r(n - 1)); }",
}


@pytest.mark.parametrize("shape", DEEP_RECURSION)
def test_deep_c_recursion_is_an_error_at_its_c_line(shape):
    sources = {"r.c": DEEP_RECURSION[shape] + """
void deep(void) { int d = r(10000); }
void shallow(void) { int d = r(3); log_state(d); }
"""}

    def setup(session):
        session.register_hook("same", lambda ctx: ctx.args[0])

    out, code, session = run_repl(
        sources, ["deep", "shallow", "q"], setup=setup,
        commands={"deep": CommandSpec("deep"), "shallow": CommandSpec("shallow")})
    line = 3 if shape == "if inside while" else 1
    assert re.search(rf"^error: C calls nested too deep: r\(n - 1\) at r\.c:{line} is call "
                     r"\d+ deep, past Python's recursion limit$", out, re.M), out
    assert "internal" not in out
    assert out.index("error:") < out.index("ssi > shallow")
    assert [e.callee for e in session.events_of("missing-model")] == ["log_state"]
    assert code == 1
    assert session.frames == [] and session.values.blame is None


if __name__ == "__main__":
    # Rewrite the snapshot from the ssi package on the import path:
    #   PYTHONPATH=src python tests/test_repl.py
    HOT_LOOP_SNAPSHOT.write_text(json.dumps(hot_loop_trace(), indent=1) + "\n")
