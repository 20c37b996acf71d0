"""The four benchmark workloads: input generation, op execution and checks.

Each workload turns a seed into a fixed list of *units*. A unit is one fresh
session and the ops run in it; an op is one unit of user work (a REPL
command, or one program run). Every unit is ``base`` size or ``x2`` (twice
the workload's size parameter), which gives ``growth_x2``. Inputs are made
before anything is timed, and every op's output is checked after it is
timed.
"""

from __future__ import annotations

import io
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import refeval
import ssi.config as config
from ssi import interp as ssi_interp
from ssi.interp import Interp
from ssi.islands import Corpus
from ssi.session import CommandSpec, Frame, Session
from ssi.memory import Location
from ssi.repl import Repl
from ssi.values import Concrete, make_concrete, to_int

BASE = "base"
X2 = "x2"
U32 = (1 << 32) - 1


def to_s32(v: int) -> int:
    v &= U32
    return v - (1 << 32) if v >> 31 else v


@dataclass
class OpResult:
    latency: float | None  # seconds; None when the op never ran
    steps: int
    ok: bool


@dataclass
class UnitResult:
    kind: str
    size: str
    setup_s: float
    ops: list[OpResult] = field(default_factory=list)
    values_minted: int = 0
    statements_parsed: int = 0
    corpus_tokens: int = 0
    hook_calls: int = 0
    missing_model: int = 0


def _finish(result: UnitResult, session: Session) -> UnitResult:
    result.values_minted = len(session.values)
    result.statements_parsed = len(session.parse_events)
    result.corpus_tokens = sum(len(session.corpus.tokens(f))
                               for f in session.corpus.files)
    result.hook_calls = len(session.events_of("hook"))
    result.missing_model = len(session.events_of("missing-model"))
    return result


def _int_of(session: Session, value) -> int | None:
    r = session.values.resolve(value)
    return to_int(r) if isinstance(r, Concrete) else None


class Probe:
    """Hooks a unit runner calls so the traced mode can observe it."""

    def on_session(self, session: Session) -> None:
        pass

    def on_op(self) -> None:
        pass


# ----------------------------------------------------------- pinctrl-repl

PINCTRL_DIR = Path("example_pinctrl")
NUM_GPIOS = 58
GPREN0 = 0x4C
GPIO_BASE = 0x7E200000  # reg of brcm,bcm2835-gpio, the device chosen by "0"


def _segments(text: str) -> list[str]:
    """Header, then one chunk per echoed command."""
    return re.split(r"(?m)^(?=ssi > )", text)


def _golden_regex(chunk: str) -> re.Pattern:
    """The placeholder rule of the golden transcripts: {{LINE}} and
    {{REGION}} stand for any decimal number."""
    pattern = re.escape(chunk)
    for placeholder in ("{{LINE}}", "{{REGION}}"):
        pattern = pattern.replace(re.escape(placeholder), r"\d+")
    return re.compile(pattern)


@dataclass
class ReplSpec:
    kind: str
    size: str
    lines: list[str]
    expected: list[re.Pattern]  # header, then one per command
    without_models: tuple = ()
    exit_nonzero: bool = False


class _TimedLines:
    """REPL input that timestamps every line read: the gap between two
    reads is the time of the command read first."""

    def __init__(self, lines, session, probe):
        self._lines = iter(lines)
        self._session = session
        self._probe = probe
        self.marks: list[tuple[float, int]] = []  # (time, Session.steps)

    def readline(self):
        self.marks.append((perf_counter(), self._session.steps))
        self._probe.on_op()
        line = next(self._lines, None)
        return "" if line is None else line + "\n"


def _enable_irq_lines(order):
    banks = [0, 0]
    for g in order:
        bank, bit = divmod(g, 32)
        banks[bank] |= 1 << bit
        yield (f"enable-irq {g}",
               f"ssi > enable-irq {g}\nLine {{{{LINE}}}}: writel(val, pc->base + reg)"
               f" => {banks[bank]}, {GPIO_BASE + GPREN0 + 4 * bank:x}\n")


def _repl_spec(root, kind, size, extra=()):
    script = (root / PINCTRL_DIR / "scripts" / f"{kind}.txt").read_text().splitlines()
    golden = (root / PINCTRL_DIR / "golden" / f"{kind}.golden").read_text()
    if extra:
        # The enable-irq commands go before the closing "q".
        if script[-1] != "q" or not golden.endswith("ssi > q\n"):
            raise ValueError(f"{kind} script and transcript must end with q")
        script = script[:-1] + [line for line, _ in extra] + ["q"]
        golden = golden[: -len("ssi > q\n")] + "".join(t for _, t in extra) + "ssi > q\n"
    missing = kind == "missing"
    return ReplSpec(kind, size, script, [_golden_regex(c) for c in _segments(golden)],
                    without_models=("of_address_to_resource",) if missing else (),
                    exit_nonzero=missing)


def pinctrl_units(root: Path, rng: random.Random, tiny: bool):
    """Per cycle: a probe session that then enables every gpio in a seeded
    order, the breakpoint session and the missing-model session. Every
    fourth cycle adds an x2 probe session that enables every gpio twice."""
    units = []
    for cycle in range(2 if tiny else 16):
        order = rng.sample(range(NUM_GPIOS), NUM_GPIOS)
        units.append(_repl_spec(root, "probe", BASE, list(_enable_irq_lines(order))))
        units.append(_repl_spec(root, "breakpoint", BASE))
        units.append(_repl_spec(root, "missing", BASE))
        if cycle % 4 == 0:
            order2 = order + rng.sample(range(NUM_GPIOS), NUM_GPIOS)
            units.append(_repl_spec(root, "probe", X2, list(_enable_irq_lines(order2))))
    return units


def run_pinctrl(root: Path, spec: ReplSpec, probe: Probe) -> UnitResult:
    t0 = perf_counter()
    cfg = config.load_config(root / PINCTRL_DIR / "pinctrl.json")
    session, interp = config.build_session(cfg, without_models=spec.without_models)
    setup = perf_counter() - t0
    probe.on_session(session)
    out = io.StringIO()
    inp = _TimedLines(spec.lines, session, probe)
    result = UnitResult(spec.kind, spec.size, setup)
    try:
        code = Repl(session, interp, inp, out, interactive=False).run()
    except Exception:  # noqa: BLE001 - an escape ends the session; its ops fail
        code = None
    # marks[0] is the device choice; command k is read at marks[k + 1] and
    # ends when the next line is read, or when the session ends.
    marks = inp.marks + [(perf_counter(), session.steps)]
    got = _segments(out.getvalue())
    for k, command in enumerate(spec.lines[1:]):
        if k + 2 >= len(marks):
            result.ops.append(OpResult(None, 0, False))  # never reached
            continue
        (t_a, s_a), (t_b, s_b) = marks[k + 1], marks[k + 2]
        # Session.steps restarts at every entry command.
        steps = s_b if command.split()[0] in session.commands else s_b - s_a
        ok = (code is not None and k + 1 < min(len(got), len(spec.expected))
              and spec.expected[k + 1].fullmatch(got[k + 1]) is not None)
        result.ops.append(OpResult(t_b - t_a, steps, ok))
    whole_ok = (code is not None and (code != 0) == spec.exit_nonzero
                and len(got) == len(spec.expected)
                and spec.expected[0].fullmatch(got[0]) is not None)
    if not whole_ok:
        result.ops[-1].ok = False
    return _finish(result, session)


# --------------------------------------------------------- random-programs

@dataclass
class ProgramSpec:
    kind: str
    size: str
    source: str
    top: list[str]
    expected: dict[str, int]


def _renamed(stmt, prefix, sid_offset):
    """A refeval statement with every variable prefixed and every branch
    site renumbered, so several programs can be joined into one."""

    def expr(e):
        if e[0] == "var":
            return ("var", prefix + e[1])
        if e[0] == "un":
            return ("un", e[1], expr(e[2]))
        if e[0] == "bin":
            return ("bin", e[1], expr(e[2]), expr(e[3]))
        return e

    def block(stmts):
        return [_renamed(x, prefix, sid_offset) for x in stmts]

    kind = stmt[0]
    if kind in ("decl", "assign"):
        return (kind, prefix + stmt[1], expr(stmt[2]))
    if kind == "if":
        return ("if", stmt[1] + sid_offset, expr(stmt[2]), block(stmt[3]), block(stmt[4]))
    return ("while", stmt[1] + sid_offset, expr(stmt[2]), block(stmt[3]))


OP_STATEMENTS = 40  # statements the oracle executes per base op


def _executed(stmts) -> int:
    """How many statements the oracle executes in a run of ``stmts``; it
    sizes ops, the expected values come from the oracle's own run."""
    budget = [refeval._ITER_CAP]
    env = {}
    for st in stmts:
        refeval._exec(st, env, None, budget)
    return refeval._ITER_CAP - budget[0]


def program_units(root: Path, rng: random.Random, tiny: bool):
    """Each op joins seeded refeval programs into one testmain until they
    execute OP_STATEMENTS statements, within a quarter (twice that for x2,
    every fourth op): the size of a single program varies too much from
    seed to seed. Every other op has garbage in all the branches the oracle
    shows are untaken."""
    units = []
    for index in range(16 if tiny else 1200):
        size = X2 if index % 4 == 3 else BASE
        target = (6 if tiny else OP_STATEMENTS) * (2 if size == X2 else 1)
        stmts, top, executed, part = [], [], 0, 0
        while executed < target:
            more, more_top = refeval.gen_program(rng, max_stmts=30)
            count = _executed(more)
            if executed + count > target * 5 // 4:
                continue  # would overshoot: draw another
            prefix = f"p{part}_"
            stmts += [_renamed(st, prefix, 10_000 * part) for st in more]
            top += [prefix + name for name in more_top]
            executed += count
            part += 1
        coverage = {}
        env = refeval.run_program(stmts, coverage)
        sites = refeval.untaken_sites(stmts, coverage) if index % 2 == 0 else []
        source = refeval.render_program(stmts, garbage_at=set(sites), rng=rng)
        units.append(ProgramSpec("program", size, source, top,
                                 {name: env[name] for name in top}))
    return units


def run_program(root: Path, spec: ProgramSpec, probe: Probe) -> UnitResult:
    """One op: build a fresh in-memory session and run ``testmain``. The op
    includes its set-up, since every program pays it; setup_s is that part."""
    probe.on_op()
    t0 = perf_counter()
    session = Session(Corpus.from_sources({"prog.c": spec.source}))
    interp = Interp(session)
    t1 = perf_counter()
    probe.on_session(session)
    ok = False
    try:
        fdef = session.corpus.find_function("testmain")
        frame = Frame("testmain")
        session.frames.append(frame)
        # Looked up on ssi.interp, where the traced mode wraps it.
        nodes = ssi_interp.parse_hole_as_block(session.corpus, fdef.body,
                                               session.rules, session.on_parse)
        interp.exec_block(nodes, frame)
        session.frames.pop()
        t2 = perf_counter()
        got = {}
        for name in spec.top:
            slot = frame.locals[name]
            value = session.store.load(Location(slot.region, slot.offset), slot.width)
            got[name] = _int_of(session, value)
        ok = got == spec.expected
    except Exception:  # noqa: BLE001 - SsiError, RecursionError, ...: a failed op
        t2 = perf_counter()
    result = UnitResult(spec.kind, spec.size, t1 - t0)
    result.ops.append(OpResult(t2 - t0, session.steps, ok))
    return _finish(result, session)


# ---------------------------------------------------------------- hot-loop

HOT_ITERS = 20
HOT_OPS_PER_SESSION = 8

HOT_TEMPLATE = """\
/*
 * Generated driver-style module: a register header, a device struct with a
 * shadow array, a write helper that ends in writel, and one long loop.
 */

#include <linux/io.h>

{defines}

#define HL_BASE      0x{base:x}
#define HL_BLOCK     (HL_R{blk_a} + HL_R{blk_b})
#define HL_STRIDE    HL_R{stride}
#define HL_REG(n)    (HL_BLOCK + (n) * HL_STRIDE)
#define HL_SLOT(i)   ((i) & 7)
#define HL_KEY       0x{key:x}
#define HL_MASK      0x{mask:x}
#define HL_EVERY     3
#define HL_ITERS     {iters}
#define HL_ITERS_X2  {iters_x2}

struct hl_dev {{
	u32 base;
	u32 ctrl;
	u32 shadow[8];
}};

static struct hl_dev hl_storage;

static void hl_write(struct hl_dev *d, u32 reg, u32 val)
{{
	writel(val, d->base + reg);
}}

static int hl_loop(struct hl_dev *d, int n)
{{
	int x = 0;
	int i;

	d->ctrl = 0;
	for (i = 0; i < n; i++) {{
		x = x + i * 3;
		d->shadow[HL_SLOT(i)] = (x ^ HL_KEY) & HL_MASK;
		d->ctrl = d->ctrl + d->shadow[HL_SLOT(i)];
		if ((i & HL_EVERY) == 0)
			hl_write(d, HL_REG(i & 31), d->shadow[HL_SLOT(i)]);
	}}
	bench_locals(x, i, d->ctrl);
	return x;
}}

int hl_run(void)
{{
	struct hl_dev *d = &hl_storage;

	d->base = HL_BASE;
	return hl_loop(d, HL_ITERS);
}}

int hl_run_x2(void)
{{
	struct hl_dev *d = &hl_storage;

	d->base = HL_BASE;
	return hl_loop(d, HL_ITERS_X2);
}}
"""


@dataclass
class HotSpec:
    kind: str
    size: str
    source: str
    ops: int
    expected_locals: list[int]
    expected_traffic: list[tuple[int, int]]


def _hot_expected(iters, base, block, stride, key, mask):
    x = ctrl = 0
    traffic = []
    for i in range(iters):
        x = to_s32(x + i * 3)
        shadow = (x ^ key) & mask
        ctrl = (ctrl + shadow) & U32
        if i & 3 == 0:
            traffic.append(((base + block + (i & 31) * stride) & U32, shadow))
    return [x, iters, ctrl], traffic


def hot_units(root: Path, rng: random.Random, tiny: bool):
    """Sessions of a few ops over one generated corpus per session; every
    fourth session runs the loop at twice the iteration count."""
    units = []
    iters = 4 if tiny else HOT_ITERS
    for index in range(4 if tiny else 8):
        size = X2 if index % 4 == 3 else BASE
        regs = [rng.randrange(0, 0x1000, 4) for _ in range(400)]
        regs[1] = 4 * rng.randint(1, 4)  # the stride register
        defines = "\n".join(f"#define HL_R{k}\t0x{v:03x}" for k, v in enumerate(regs))
        blk_a, blk_b = rng.sample(range(2, len(regs)), 2)
        base = rng.randrange(0x7E000000, 0x7F000000, 0x1000)
        key, mask = rng.getrandbits(16), rng.getrandbits(12) | 0xF00
        source = HOT_TEMPLATE.format(defines=defines, base=base, blk_a=blk_a,
                                     blk_b=blk_b, stride=1, key=key, mask=mask,
                                     iters=iters, iters_x2=2 * iters)
        n = iters * (2 if size == X2 else 1)
        loc, traffic = _hot_expected(n, base, regs[blk_a] + regs[blk_b], regs[1],
                                     key, mask)
        units.append(HotSpec("hot-loop", size, source,
                             2 if tiny else HOT_OPS_PER_SESSION, loc, traffic))
    return units


def run_hot(root: Path, spec: HotSpec, probe: Probe) -> UnitResult:
    t0 = perf_counter()
    session = Session(Corpus.from_sources({"hl.c": spec.source}))
    interp = Interp(session)
    traffic, locals_seen = [], []

    def writel(ctx):
        traffic.append((_int_of(session, ctx.args[1]), _int_of(session, ctx.args[0])))

    def bench_locals(ctx):
        locals_seen.append([_int_of(session, a) for a in ctx.args])

    session.register_hook("writel", writel, doc="MMIO register write")
    session.register_hook("bench_locals", bench_locals, doc="report loop locals")
    session.commands = {"run": CommandSpec("hl_run"), "run-x2": CommandSpec("hl_run_x2")}
    result = UnitResult(spec.kind, spec.size, perf_counter() - t0)
    probe.on_session(session)
    command = "run-x2" if spec.size == X2 else "run"
    for _ in range(spec.ops):
        probe.on_op()
        del traffic[:], locals_seen[:]
        t1 = perf_counter()
        try:
            ret = interp.run_entry(command)
            t2 = perf_counter()
            ok = (_int_of(session, ret) == spec.expected_locals[0]
                  and locals_seen == [spec.expected_locals]
                  and traffic == spec.expected_traffic)
        except Exception:  # noqa: BLE001 - any exception fails the op
            t2, ok = perf_counter(), False
        result.ops.append(OpResult(t2 - t1, session.steps, ok))
    return _finish(result, session)


# ---------------------------------------------------- symbolic-accumulate

SYM_M = 40

SYM_TEMPLATE = """\
u32 g(int);

static u32 acc_loop(int m)
{{
	u32 x = g(1);
	u32 i;

	for (i = 0; i < m; i++) {{
		x = x + i;
		if (i % ACC_P == 0)
			x = x ^ ACC_K;
	}}
	x = x * ACC_C - ACC_D;
	return x;
}}

u32 acc_run(void)
{{
	return acc_loop(ACC_M);
}}

#define ACC_P {p}
#define ACC_K {k}
#define ACC_C {c}
#define ACC_D {d}
#define ACC_M {m}
"""


@dataclass
class SymSpec:
    kind: str
    size: str
    source: str
    bound: int
    expected: int


def sym_units(root: Path, rng: random.Random, tiny: bool):
    """x = g(1) with g unmodeled, then M accumulations; every fifth unit
    runs 2M. Each op binds g's result afterwards and checks the closed form.
    The xor period, which sets how long the term chains grow, cycles
    through 5 to 9 in blocks of five units, so the work of a pass does not
    depend on the seed; the constants do."""
    units = []
    m0 = 6 if tiny else SYM_M
    for index in range(10 if tiny else 50):
        size = X2 if index % 5 == 4 else BASE
        m = m0 * (2 if size == X2 else 1)
        p, k = 5 + index // 5 % 5, rng.getrandbits(20)
        c, d = rng.choice((3, 5, 7)), rng.getrandbits(16)
        bound = rng.getrandbits(31)
        x = bound
        for i in range(m):
            x = (x + i) & U32
            if i % p == 0:
                x ^= k
        expected = (x * c - d) & U32
        source = SYM_TEMPLATE.format(p=p, k=k, c=c, d=d, m=m)
        units.append(SymSpec("accumulate", size, source, bound, expected))
    return units


def run_sym(root: Path, spec: SymSpec, probe: Probe) -> UnitResult:
    t0 = perf_counter()
    session = Session(Corpus.from_sources({"acc.c": spec.source}))
    interp = Interp(session)
    session.commands = {"acc": CommandSpec("acc_run")}
    result = UnitResult(spec.kind, spec.size, perf_counter() - t0)
    probe.on_session(session)
    probe.on_op()
    t1 = perf_counter()
    ok = False
    try:
        x = interp.run_entry("acc")
        t2 = perf_counter()
        values = session.values
        residual = values.resolve(x)
        (blocker,) = residual.blockers  # g's return symbol, and nothing else
        values.concretize(values.get(blocker), make_concrete(32, spec.bound),
                          "closed-form check")
        ok = _int_of(session, x) == spec.expected
    except Exception:  # noqa: BLE001 - any exception fails the op
        t2 = perf_counter()
    result.ops.append(OpResult(t2 - t1, session.steps, ok))
    return _finish(result, session)


# ----------------------------------------------------------- machine speed

YARDSTICK_SEED = 12345


def yardstick_programs():
    """Three fixed refeval programs, each executing 30 to 60 statements."""
    rng = random.Random(YARDSTICK_SEED)
    programs = []
    while len(programs) < 3:
        stmts, _ = refeval.gen_program(rng, max_stmts=30)
        if 30 <= _executed(stmts) <= 60:
            programs.append(stmts)
    return programs


def yardstick(programs) -> float:
    """Seconds the oracle takes to run ``programs``: tree-walking interpreter
    work that does not touch ssi, to measure how fast the machine runs code
    of ssi's kind at the moment."""
    start = perf_counter()
    for stmts in programs:
        refeval.run_program(stmts)
    return perf_counter() - start


WORKLOADS = {
    "pinctrl-repl": (pinctrl_units, run_pinctrl),
    "random-programs": (program_units, run_program),
    "hot-loop": (hot_units, run_hot),
    "symbolic-accumulate": (sym_units, run_sym),
}
