"""Smoke test of the benchmark: every workload once, at a tiny size.

    python3 -m pytest -q bench/smoke.py

Not collected by the repository's own test run (the file name does not
match ``test_*.py``); it runs ``bench/run.py`` in a subprocess, as a
benchmark run does.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts that later changes may cite as evidence; they must repeat exactly.
EXACT = ("interp.steps", "values.minted", "hooks.calls", "islands.statements_parsed")


def run(workload, trace, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    details, last = proc.stdout.splitlines()[-2:]
    return json.loads(details), json.loads(last)


def assert_metrics(res, declared):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    details, res = result(workload, 0)
    assert_metrics(res, SPEC["end_to_end"])
    assert details["fail_ratio"] == 0
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload):
    _, first = result(workload, 1)
    _, second = result(workload, 1)
    assert_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert set(EXACT) <= set(counts)
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["interp.steps"]["value"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
