"""Record the benchmark's baseline: two sets of runs of every workload.

    python3 bench/baseline.py --out bench/results/baseline.json

Each set runs every workload of ``BENCHMARK.json`` once per seed 1 to 10,
each run a fresh process of ``bench/run.py``, one at a time; then one traced
run per workload gives the per-layer figures. For every end-to-end metric
and set it reports the median and the quartile spread (the distance between
the first and third quartiles as a share of the median), also of the
unscaled times, and whether the spread is below a third of the metric's
bound. It then reports by what share the second set's median is worse than
the first's, against the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)
TRACED_SEED = 1
SETS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180, check=True).stdout.splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worse_by(first, second, better):
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    change = second / first - 1
    return change if better == "lower" else -change


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(runs, metric):
    """Median and spread of one metric over one set of runs, scaled and, for
    the times the benchmark scales, unscaled."""
    name, bound = metric["name"], metric["bound"]
    med, sp = spread([r["metrics"][name] for r in runs])
    row = {"median": med, "spread": sp, "bound": bound, "steady": sp < bound / 3}
    if name in runs[0]["unscaled"]:
        row["unscaled_median"], row["unscaled_spread"] = spread(
            [r["unscaled"][name] for r in runs])
    return row


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for workload in workloads:
            for seed in SEEDS:
                d, r = run_once(workload, seed, seconds, 0)
                runs[workload][s].append({
                    "seed": seed, "failed": r["failed"],
                    "metrics": {k: m["value"] for k, m in r["metrics"].items()},
                    **{k: d[k] for k in ("speed_scale", "unscaled", "tail_percentile",
                                         "tail_samples_beyond", "base_ops", "ops")}})
                print(f"set {s + 1} {workload} seed {seed} done", flush=True)

    report = {
        "machine": {"cpu": _cpu_model(), "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "note": "shared container, no CPU isolation; other tenants "
                            "may run on the same cores"},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "recorded": time.strftime("%Y-%m-%d"),
        "workloads": {},
    }
    for workload in workloads:
        sets = runs[workload]
        summary = [{m["name"]: summarise(set_runs, m) for m in spec["end_to_end"]}
                   for set_runs in sets]
        agreement = {m["name"]: worse_by(summary[0][m["name"]]["median"],
                                         summary[1][m["name"]]["median"], m["better"])
                     for m in spec["end_to_end"]}
        agreement_unscaled = {
            m["name"]: worse_by(summary[0][m["name"]]["unscaled_median"],
                                summary[1][m["name"]]["unscaled_median"], m["better"])
            for m in spec["end_to_end"] if "unscaled_median" in summary[0][m["name"]]}
        d, r = run_once(workload, TRACED_SEED, seconds, 1)
        report["workloads"][workload] = {
            "failed": sum(run["failed"] for s in sets for run in s) + r["failed"],
            "end_to_end": summary,
            "second_set_worse_by": agreement,
            "second_set_worse_by_unscaled": agreement_unscaled,
            "per_layer": {k: m["value"] for k, m in r["metrics"].items()},
            "traced_details": d,
            "runs": sets,
        }
        for name in summary[0]:
            rows = " | ".join(
                f"median {row['median']:11.5g} spread {row['spread']:.3f}"
                + (f" (unscaled {row['unscaled_spread']:.3f})"
                   if "unscaled_spread" in row else "")
                for row in (summary[0][name], summary[1][name]))
            bound = summary[0][name]["bound"]
            print(f"{workload:20} {name:13} {rows} | worse by {agreement[name]:+.3f} "
                  f"bound {bound:.2f}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
