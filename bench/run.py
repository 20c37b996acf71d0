"""ssi benchmark: one workload per run, from a seed, outputs checked.

    python3 bench/run.py --workload hot-loop --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src`` directory. One process, one thread, one client in
a closed loop: each op starts when the previous one has been checked.

With ``--trace 0`` the run cycles through the workload's fixed list of units
until ``--seconds`` have passed (and at least one full pass is done) and
reports the end-to-end metrics. With ``--trace 1`` it alternates untraced
and traced passes over the list for ``--seconds``, then runs units under
tracemalloc for one second, and reports the per-layer metrics. The last
line of standard output is one JSON object; the line before it gives
details (the tail percentile, its sample counts, the fail ratio).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REQUIRED = ("src/ssi/__init__.py", "tests/refeval.py", "example_pinctrl/pinctrl.json")

# The percentile op_tail_ms reads, fixed per workload so that every run and
# every version of the code reads the same one (see bench/README.md).
TAIL_PERCENTILE = {
    "pinctrl-repl": 98.0,
    "random-programs": 98.0,
    "hot-loop": 95.0,
    "symbolic-accumulate": 95.0,
}
TRACEMALLOC_SECONDS = 1.0
# Time of workloads.yardstick() at the reference speed: about the fastest it
# ran on the machine the benchmark was written on (2-vCPU Xeon, 2.1 GHz).
YARDSTICK_REF_S = 0.0002
SPEED_WINDOW = 5  # units whose yardstick times give a unit's speed


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few small units, for the smoke test")
    return p.parse_args(argv)


def _run_units(units, run_unit, probe, speed, seconds=0.0):
    """Run the units in list order, cycling, until at least one full pass is
    done and ``seconds`` have passed, timing the yardstick ``speed`` after
    each unit. Before each unit, untimed, the garbage of the units before it
    is collected, so that no op pays for collecting earlier sessions.
    Returns the results, their summed wall time and the yardstick times."""
    results, speeds, wall = [], [], 0.0
    start = perf_counter()
    while len(results) < len(units) or perf_counter() - start < seconds:
        gc.collect()
        t0 = perf_counter()
        results.append(run_unit(ROOT, units[len(results) % len(units)], probe))
        wall += perf_counter() - t0
        speeds.append(speed())
    return results, wall, speeds


def _percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, -(-round(p * 1000) * n // 100000))  # ceil(p / 100 * n)
    return sorted_values[rank - 1], n - rank


def _times(results, factors, w, p):
    """The time metrics of the run, each unit's times multiplied by its
    factor: set-up, op median, op tail, throughput and growth."""
    base = sorted(op.latency * f for r, f in zip(results, factors) if r.size == w.BASE
                  for op in r.ops if op.latency is not None)
    timed = [(op.steps, op.latency * f) for r, f in zip(results, factors)
             for op in r.ops if op.latency is not None]
    tail, beyond = _percentile(base, p)
    kind = next(r.kind for r in results if r.size == w.X2)

    def median_unit_time(size):
        return statistics.median(
            f * sum(op.latency for op in r.ops if op.latency is not None)
            for r, f in zip(results, factors) if r.size == size and r.kind == kind)

    return {
        "setup_s": statistics.median(r.setup_s * f for r, f in zip(results, factors)),
        "op_p50_ms": statistics.median(base) * 1e3,
        "op_tail_ms": tail * 1e3,
        "stmts_per_s": sum(s for s, _ in timed) / sum(t for _, t in timed),
        "growth_x2": median_unit_time(w.X2) / median_unit_time(w.BASE),
    }, beyond, len(base)


def end_to_end(units, results, speeds, w, workload):
    """Metrics over every op and set-up of the run, each counted once. Times
    are scaled to the reference speed: a unit's times are multiplied by
    YARDSTICK_REF_S over the median yardstick time of the SPEED_WINDOW units
    nearest it in the run, so that the drift of a shared machine's speed
    cancels out, also where it changes within a run. The unscaled figures
    are on the details line."""
    half = SPEED_WINDOW // 2
    scales = [YARDSTICK_REF_S / statistics.median(speeds[max(0, i - half): i + half + 1])
              for i in range(len(speeds))]
    p = TAIL_PERCENTILE[workload]
    scaled, beyond, base_ops = _times(results, scales, w, p)
    raw, _, _ = _times(results, [1.0] * len(results), w, p)
    attempted = sum(len(r.ops) for r in results)
    failed = sum(1 for r in results for op in r.ops if not op.ok)
    units_of = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                "stmts_per_s": "1/s", "growth_x2": "ratio"}
    metrics = {name: (value, units_of[name]) for name, value in scaled.items()}
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    details = {"fail_ratio": failed / attempted, "tail_percentile": p,
               "tail_samples_beyond": beyond, "base_ops": base_ops,
               "ops": attempted, "passes": len(results) / len(units),
               "speed_scale": statistics.median(scales),
               "yardstick_ms": statistics.median(speeds) * 1e3, "unscaled": raw}
    return metrics, attempted, failed, details


class _TracingProbe:
    def __init__(self, tracer):
        self.tracer = tracer

    def on_session(self, session):
        spans.wrap_hooks(self.tracer, session)

    def on_op(self):
        self.tracer.op_id += 1


def _live_bytes() -> int:
    gc.collect()  # sessions are reference cycles; drop the dead ones first
    return tracemalloc.get_traced_memory()[0]


class _MemoryProbe:
    """Keeps the current session alive and remembers what was allocated and
    minted when its set-up ended."""

    def __init__(self):
        self.session = None
        self.mark = (0, 0)

    def on_session(self, session):
        self.session = session
        self.mark = (_live_bytes(), len(session.values))

    def on_op(self):
        pass


def per_layer(units, run_unit, speed, w, workload, seconds):
    # Untraced and traced passes alternate, at least twice each and until
    # ``seconds`` have passed; the overhead compares the fastest of each.
    # Counts and self times come from the first traced pass.
    results, walls, traced_walls, tracer = [], [], [], None
    start = perf_counter()
    while len(walls) < 2 or perf_counter() - start < seconds:
        done, wall, _ = _run_units(units, run_unit, w.Probe(), speed)
        results += done
        walls.append(wall)
        t, patches = spans.Tracer(), spans.Patches()
        spans.install(t, patches)
        try:
            done, wall, _ = _run_units(units, run_unit, _TracingProbe(t), speed)
        finally:
            patches.undo()
        if tracer is None:
            tracer, traced = t, done
        results += done
        traced_walls.append(wall)

    mem = _MemoryProbe()
    grown = minted = 0
    tracemalloc.start()
    try:
        start = perf_counter()
        for spec in units:
            results.append(run_unit(ROOT, spec, mem))
            grown += _live_bytes() - mem.mark[0]
            minted += len(mem.session.values) - mem.mark[1]
            mem.session = None
            if perf_counter() - start >= TRACEMALLOC_SECONDS:
                break
    finally:
        tracemalloc.stop()

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}.tsv")
    self_s = tracer.self_times()
    calls = tracer.calls

    def total(attr):
        return sum(getattr(r, attr) for r in traced)

    tokenize_s = self_s.get("tokens.tokenize", 0.0)
    hole_calls = calls.get("islands.parse_hole_as_block", 0)
    metrics = {
        "tokens.tokenize.calls": (calls.get("tokens.tokenize", 0), "count"),
        "tokens.tokenize.self_s": (tokenize_s, "s"),
        "tokens.tokens_per_s": (calls.get("tokens.made", 0) / tokenize_s
                                if tokenize_s else 0.0, "1/s"),
        "islands.parse_hole_as_block.calls": (hole_calls, "count"),
        "islands.parse_hole_as_block.self_s":
            (self_s.get("islands.parse_hole_as_block", 0.0), "s"),
        "islands.parse_next_statement.calls":
            (calls.get("islands.parse_next_statement", 0), "count"),
        "islands.statements_parsed": (total("statements_parsed"), "count"),
        "islands.parsed_per_ktok":
            (1000 * total("statements_parsed") / total("corpus_tokens"), "1/ktok"),
        "islands.block_hit_ratio":
            (calls.get("islands.block_hits", 0) / hole_calls if hole_calls else 0.0,
             "ratio"),
        "macros.expand.calls": (calls.get("macros.expand", 0), "count"),
        "macros.expand.self_s": (self_s.get("macros.expand", 0.0), "s"),
        "macros.scan_defines.self_s": (self_s.get("macros.scan_defines", 0.0), "s"),
        "interp.exec_node.calls": (calls.get("interp.exec_node", 0), "count"),
        "interp.exec_node.self_s": (self_s.get("interp.exec_node", 0.0), "s"),
        "interp.eval_tokens.calls": (calls.get("interp.eval_tokens", 0), "count"),
        "interp.eval_tokens.self_s": (self_s.get("interp.eval_tokens", 0.0), "s"),
        "interp.call_function_def.calls":
            (calls.get("interp.call_function_def", 0), "count"),
        "interp.steps": (sum(op.steps for r in traced for op in r.ops), "count"),
        "values.resolve.calls": (calls.get("values.resolve", 0), "count"),
        "values.resolve.self_s": (self_s.get("values.resolve", 0.0), "s"),
        "values.apply_binop.calls": (calls.get("values.apply_binop", 0), "count"),
        "values.minted": (total("values_minted"), "count"),
        "values.bytes_per_value": (grown / minted if minted else 0.0, "B"),
        "memory.load.calls": (calls.get("memory.load", 0), "count"),
        "memory.store.calls": (calls.get("memory.store", 0), "count"),
        "memory.self_s": (self_s.get("memory.load", 0.0)
                          + self_s.get("memory.store", 0.0), "s"),
        "hooks.calls": (total("hook_calls"), "count"),
        "hooks.self_s": (self_s.get("hooks", 0.0), "s"),
        "hooks.missing_model": (total("missing_model"), "count"),
        "dtsi.dtsi_find.calls": (calls.get("dtsi.dtsi_find", 0), "count"),
        "dtsi.dtsi_find.self_s": (self_s.get("dtsi.dtsi_find", 0.0), "s"),
        "config.load_config.self_s": (self_s.get("config.load_config", 0.0), "s"),
        "config.build_session.self_s": (self_s.get("config.build_session", 0.0), "s"),
        "trace.overhead_ratio": (min(traced_walls) / min(walls), "ratio"),
    }
    attempted = sum(len(r.ops) for r in results)
    failed = sum(1 for r in results for op in r.ops if not op.ok)
    details = {"fail_ratio": failed / attempted, "spans": len(tracer.start),
               "untraced_wall_s": min(walls), "traced_wall_s": min(traced_walls),
               "tracemalloc_values": minted}
    return metrics, attempted, failed, details


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"bench: not inside an ssi checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads as w

    if args.workload not in w.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(w.WORKLOADS)}", file=sys.stderr)
        return 2
    make_units, run_unit = w.WORKLOADS[args.workload]
    units = make_units(ROOT, random.Random(args.seed), args.size == "tiny")
    programs = w.yardstick_programs()

    def speed():
        return w.yardstick(programs)

    if args.trace:
        metrics, attempted, failed, details = per_layer(
            units, run_unit, speed, w, args.workload, args.seconds)
    else:
        results, _, speeds = _run_units(units, run_unit, w.Probe(), speed, args.seconds)
        metrics, attempted, failed, details = end_to_end(
            units, results, speeds, w, args.workload)
    details = {"workload": args.workload, "seed": args.seed, **details}
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
