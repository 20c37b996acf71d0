import json
import re

import pytest

import ssi.tokens as tk
from conftest import local_concrete, make_session, record_mints, run_function
from ssi.errors import EvalError, SchemaError, UnsupportedOperation
from ssi.hooks import HookContext, load_declarative_model, parse_value_sexpr
from ssi.interp import CallSite
from ssi.memory import Location, OPAQUE
from ssi.values import Concrete, SymbolRoot, to_int

SITE = CallSite("t.c", 9, "fake(1)", "fake ( 1 )")


def hook_ctx(session, interp, args=()):
    return HookContext(session, interp, list(args), SITE)


def test_reregistration_replaces_with_diagnostic():
    session, interp = make_session({"t.c": "void f(void) { g(); }"})
    session.register_hook("g", lambda ctx: ctx.make_concrete(32, 1))
    session.register_hook("g", lambda ctx: ctx.make_concrete(32, 2))
    assert any(e.kind == "diagnostic" and e.name == "g" for e in session.events)
    frame = run_function(session, interp, "f")
    # No way to see the first hook anymore: the call event's return flows
    # from the replacement.
    assert session.hooks["g"].fn is not None


def test_exec_snippet_opaque_makes_pointee_symbolic():
    session, interp = make_session({"t.c": "int unused;"})
    region = session.store.alloc_region("iomem", OPAQUE)
    ptr = session.values.addr_of(region.id, ("t.c", 1))
    ctx = hook_ctx(session, interp, [ptr])
    ctx.exec_snippet("*{0} = (opaque)", [ptr])
    out = session.store.load(Location(region.id, 0), 4)
    assert isinstance(out.payload, SymbolRoot)
    assert out.payload.label.startswith("opaque@")


def test_exec_snippet_writes_concrete_through_pointer():
    session, interp = make_session({"t.c": "int unused;"})
    region = session.store.alloc_region("iomem", OPAQUE)
    ptr = session.values.addr_of(region.id, ("t.c", 1))
    ctx = hook_ctx(session, interp, [ptr])
    addr = ctx.make_concrete(32, 0x7E200000)
    ctx.exec_snippet("*{0} = {1}", [ptr, addr])
    out = session.store.load(Location(region.id, 0), 4)
    assert to_int(session.values.resolve(out)) == 0x7E200000


def test_exec_snippet_placeholder_past_its_arguments_is_an_error():
    session, interp = make_session({"t.c": "int unused;"})
    one = session.values.concrete(32, 1, ("t.c", 1))
    with pytest.raises(EvalError) as exc:
        hook_ctx(session, interp).exec_snippet("int t = {0} + {1};", [one])
    assert str(exc.value) == "snippet 'int t = {0} + {1};': no argument {1}"


def test_exec_snippet_empty_template_is_noop():
    session, interp = make_session({"t.c": "int unused;"})
    before = len(session.values)
    hook_ctx(session, interp).exec_snippet("   ")
    assert len(session.values) == before


def test_exec_snippet_multiple_statements_share_state():
    session, interp = make_session({"t.c": "int unused;"})
    region = session.store.alloc_region("cell", OPAQUE)
    ptr = session.values.addr_of(region.id, ("t.c", 1))
    hook_ctx(session, interp).exec_snippet(
        "int t = 40; t = t + 2; *{0} = t;", [ptr])
    out = session.store.load(Location(region.id, 0), 4)
    assert to_int(session.values.resolve(out)) == 42


def test_emit_sexpr_imm_forms_agree():
    session, interp = make_session({"t.c": "int unused;"})
    ctx = hook_ctx(session, interp)
    plain = ctx.emit_sexpr("(imm {0})", [0])
    wrapped = ctx.emit_sexpr("(str (imm {0}))", [0])
    assert plain.payload == wrapped.payload == Concrete(32, 0, False)


def test_emit_sexpr_unknown_form_rejected():
    session, interp = make_session({"t.c": "int unused;"})
    ctx = hook_ctx(session, interp)
    with pytest.raises(UnsupportedOperation):
        ctx.emit_sexpr("(frobnicate 3)")
    with pytest.raises(UnsupportedOperation):
        parse_value_sexpr(ctx, "(str (what 1))")


# Malformed value expressions: an unclosed form, a form with nothing in it,
# ``imm`` of a Value, and tokens after a whole expression.
MALFORMED_SEXPRS = ["(imm 1", "(", "(imm", "(imm (imm 2))", "1 2", "(imm 1) junk", "", "(imm 1))"]


@pytest.mark.parametrize("text", MALFORMED_SEXPRS)
def test_emit_sexpr_malformed_text_rejected(text):
    session, interp = make_session({"t.c": "int unused;"})
    with pytest.raises(UnsupportedOperation, match=re.escape(repr(text))):
        hook_ctx(session, interp).emit_sexpr(text)


def test_fresh_symbolic_is_attributed_to_active_call():
    session, interp = make_session({"t.c": """
void f(void) {
    int v = modeled();
}
"""})
    session.register_hook("modeled", lambda ctx: ctx.fresh_symbolic("made-up"))
    frame = run_function(session, interp, "f")
    slot = frame.locals["v"]
    v = session.store.load(Location(slot.region, slot.offset), 4)
    info = session.values.missing_calls.get(v.id)
    assert info is not None and info.callee == "modeled"


# Where a fresh symbol comes from, and the callee its diagnostics name (None
# for none).
BLAME_CASES = {
    "a hook's fresh_symbolic": ("v1", "made"),
    "a cell that a hook first reads": ("v2", "peek"),
    "a global first read by a C function that a hook's snippet calls": ("v3", "fill"),
    "a cell an unmodeled call tainted, first read inside a hook": ("v4", "taint"),
    "an unmodeled call's result": ("v5", "unknown"),
    "a cell that C first reads after the hooks return": ("v6", None),
}


@pytest.mark.parametrize("case", BLAME_CASES)
def test_fresh_symbols_are_blamed_on_the_call_they_wait_on(case):
    local, callee = BLAME_CASES[case]
    session, interp = make_session({"t.c": """
int G;
int read_g(void) { return G; }
void f(void) {
    int v1 = made();
    int c;
    int v2 = peek(&c);
    int v3;
    fill(&v3);
    int t[2];
    taint(t);
    int v4 = peek(t);
    int v5 = unknown();
    int u;
    int v6 = u;
}
"""})
    session.register_hook("made", lambda ctx: ctx.fresh_symbolic("made-up"))
    session.register_hook("peek", lambda ctx: ctx.read_through(ctx.args[0]))
    session.register_hook("fill", lambda ctx: ctx.exec_snippet("*{0} = read_g()", ctx.args))
    slot = run_function(session, interp, "f").locals[local]
    v = session.store.load(Location(slot.region, slot.offset), 4)
    assert isinstance(v.payload, SymbolRoot)
    assert getattr(session.values.missing_calls.get(v.id), "callee", None) == callee


def test_a_snippet_is_tokenized_once_and_runs_every_time(monkeypatch):
    session, interp = make_session({"t.c": """
struct c { int u; int w; };
void f(void) {
    struct c v;
    int i;
    int sum = 0;
    for (i = 0; i < 500; i++) {
        v.w = 0;
        set_w(&v);
        sum = sum + v.w;
    }
}
"""})
    session.register_hook("set_w", lambda ctx: ctx.exec_snippet("{0}->w = 5", ctx.args))
    tokenized = []
    read = tk.FileTokens
    monkeypatch.setattr(tk, "FileTokens", lambda text: tokenized.append(text) or read(text))
    assert local_concrete(session, run_function(session, interp, "f"), "sum") == 2500
    assert tokenized == [" __ssi_arg0 ->w = 5"]
    assert session.corpus.source("<snippet:1>") == tokenized[0]


# --------------------------------------------------------------- declarative

def write_model(tmp_path, payload, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_load_declarative_count_and_return_constant(tmp_path):
    session, interp = make_session({"t.c": "void f(void) { int x = magic(); }"})
    path = write_model(tmp_path, {"models": [
        {"name": "magic", "return_constant": {"width": 32, "value": 77}},
    ]})
    assert load_declarative_model(session, path) == 1
    frame = run_function(session, interp, "f")
    slot = frame.locals["x"]
    v = session.store.load(Location(slot.region, slot.offset), 4)
    assert to_int(session.values.resolve(v)) == 77


def test_declarative_return_symbol_and_log_args(tmp_path, monkeypatch):
    minted = record_mints(monkeypatch)
    session, interp = make_session(
        {"t.c": "void f(void) { int x = roll(); note(1, 2); }"})
    path = write_model(tmp_path, {"models": [
        {"name": "roll", "return_symbol": {"label": "dice"}},
        {"name": "note", "log_args": {"format": "noted: {args}"}},
    ]})
    assert load_declarative_model(session, path) == 2
    run_function(session, interp, "f")
    labels = [v.payload.label for v in minted if isinstance(v.payload, SymbolRoot)]
    assert "dice" in labels
    assert any(e.kind == "diagnostic" and e.message == "noted: 1, 2"
               for e in session.events)


def test_declarative_write_through_constant(tmp_path):
    session, interp = make_session({"t.c": """
void f(void) {
    int cell;
    fill(&cell);
    int got = cell;
}
"""})
    path = write_model(tmp_path, {"models": [
        {"name": "fill", "write_through_arg": {"arg": 0, "constant": 123}},
    ]})
    load_declarative_model(session, path)
    frame = run_function(session, interp, "f")
    slot = frame.locals["got"]
    v = session.store.load(Location(slot.region, slot.offset), 4)
    assert to_int(session.values.resolve(v)) == 123
    assert session.events_of("write")


def test_declarative_dtsi_lookup(tmp_path):
    (tmp_path / "board.dtsi").write_text(
        'n { compatible = "brcm,bcm2835-gpio"; reg = <0x7e200000 0xb4>; };')
    session, interp = make_session({"t.c": """
void f(void) {
    int res;
    of_address_to_resource(0, 0, &res);
    int base = res;
}
"""})
    path = write_model(tmp_path, {"models": [
        {"name": "of_address_to_resource",
         "write_through_arg": {
             "arg": 2,
             "dtsi": {"file": "board.dtsi",
                      "compatible": "brcm,bcm2835-gpio"}}},
    ]})
    load_declarative_model(session, path)
    frame = run_function(session, interp, "f")
    slot = frame.locals["base"]
    v = session.store.load(Location(slot.region, slot.offset), 4)
    assert to_int(session.values.resolve(v)) == 0x7E200000


def test_declarative_chosen_compatible(tmp_path):
    (tmp_path / "board.dtsi").write_text("""
a { compatible = "dev-a"; reg = <0x100 1>; };
b { compatible = "dev-b"; reg = <0x200 1>; };
""")
    session, interp = make_session({"t.c": """
void f(void) {
    int res;
    lookup(&res);
    int base = res;
}
"""})
    session.chosen_compatible = "dev-b"
    path = write_model(tmp_path, {"models": [
        {"name": "lookup",
         "write_through_arg": {
             "arg": 0, "dtsi": {"file": "board.dtsi", "compatible": "$chosen"}}},
    ]})
    load_declarative_model(session, path)
    frame = run_function(session, interp, "f")
    slot = frame.locals["base"]
    v = session.store.load(Location(slot.region, slot.offset), 4)
    assert to_int(session.values.resolve(v)) == 0x200


def test_schema_errors(tmp_path):
    session, _ = make_session({"t.c": "int x;"})
    bad = tmp_path / "bad.json"
    bad.write_text('{"models": [\n  {"name": "x"  "oops"}\n]}')
    with pytest.raises(SchemaError) as exc:
        load_declarative_model(session, bad)
    assert ":2:" in str(exc.value)  # JSON syntax errors carry a line number

    for payload in (
        {"models": [{"name": "x"}]},                      # no action
        {"models": [{"name": "x", "return_constant": {"width": 32, "value": 1},
                     "return_symbol": {"label": "y"}}]},  # two actions
        {"models": [{"return_constant": {"width": 32, "value": 1}}]},  # no name
        {"models": [{"name": "x", "write_through_arg": {"arg": 0}}]},  # no source
        {"nope": []},
    ):
        with pytest.raises(SchemaError):
            load_declarative_model(session, write_model(tmp_path, payload))


BOTH = {"arg": 0, "constant": 1, "dtsi": {"file": "b.dtsi", "compatible": "c"}}


@pytest.mark.parametrize("entry, message", [
    ({"return_constant": 5}, "action body must be an object"),
    ({"return_constant": {"width": "32", "value": 1}},
     "return_constant needs integer width/value"),
    ({"return_constant": {"width": 32}}, "return_constant needs integer width/value"),
    ({"return_symbol": {"label": 7}}, "return_symbol needs a string label"),
    ({"log_args": {"format": ["{args}"]}}, "log_args format must be a string"),
    ({"write_through_arg": {"constant": 1}}, "write_through_arg needs an integer 'arg'"),
    ({"write_through_arg": {"arg": 0}},
     "write_through_arg needs exactly one of 'constant' or 'dtsi'"),
    ({"write_through_arg": BOTH},
     "write_through_arg needs exactly one of 'constant' or 'dtsi'"),
    ({"write_through_arg": {"arg": 0, "constant": "1"}}, "'constant' must be an integer"),
    ({"write_through_arg": {"arg": 0, "dtsi": "b.dtsi"}},
     "'dtsi' needs string 'file' and 'compatible'"),
    ({"write_through_arg": {"arg": 0, "dtsi": {"file": "b.dtsi"}}},
     "'dtsi' needs string 'file' and 'compatible'"),
])
def test_each_malformed_action_body_names_its_fault(tmp_path, entry, message):
    session, _ = make_session({"t.c": "int x;"})
    path = write_model(tmp_path, {"models": [{"name": "x", **entry}]})
    with pytest.raises(SchemaError) as exc:
        load_declarative_model(session, path)
    assert str(exc.value) == f"{path}: models[0]: {message}"


@pytest.mark.parametrize("action, message", [
    ({"arg": 0, "dtsi": {"file": "board.dtsi", "compatible": "$chosen"}},
     "model fill: no device chosen for $chosen lookup"),
    ({"arg": 1, "constant": 5}, "model fill: call has no argument 1"),
])
def test_a_declarative_model_that_cannot_act_is_an_error_when_called(
        tmp_path, action, message):
    (tmp_path / "board.dtsi").write_text('a { compatible = "dev-a"; reg = <0x100 1>; };')
    session, interp = make_session({"t.c": "void f(void) { int cell; fill(&cell); }"})
    load_declarative_model(session, write_model(
        tmp_path, {"models": [{"name": "fill", "write_through_arg": action}]}))
    with pytest.raises(EvalError) as exc:
        run_function(session, interp, "f")
    assert str(exc.value) == message


def test_operational_indistinguishability_host_vs_declarative(tmp_path):
    """A host hook and a declarative entry with the same writes and returns
    produce the same trace lines and the same stored state."""
    source = """
void f(void) {
    int cell;
    fill(&cell);
    report(cell, 7);
}
"""

    def run(configure):
        session, interp = make_session({"t.c": source})
        lines = []
        session.out = lines.append
        from ssi.repl import TraceSpec

        session.trace_specs["report"] = TraceSpec("report", ["x", "x"])
        configure(session)
        run_function(session, interp, "f")
        return lines

    def host(session):
        def fill(ctx):
            ctx.write_through(ctx.args[0], ctx.make_concrete(32, 55))
            return ctx.make_concrete(32, 0)

        session.register_hook("fill", fill)

    def declarative(session):
        path = write_model(tmp_path, {"models": [
            {"name": "fill", "write_through_arg": {"arg": 0, "constant": 55}},
        ]}, name="fill.json")
        load_declarative_model(session, path)

    assert run(host) == run(declarative) == ["Line 5: report(cell, 7) => 55, 7"]
