"""The shape of the per-change benchmark records, ``BENCH_<n>.json``.

Each record names the parent commit, the change and the command run, and
holds, per workload declared in ``BENCHMARK.json`` and per side (``parent``,
``change``), the seeds run and the median and quartiles of every end-to-end
metric, taken from ``bench/run.py --trace 0`` output.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_every_workload_and_metric(path):
    record = json.loads(path.read_text())
    for key in ("parent", "change", "command"):
        assert isinstance(record[key], str) and record[key]
    for workload in DECLARED["workloads"]:
        sides = record["workloads"][workload["name"]]
        for side in ("parent", "change"):
            run = sides[side]
            assert run["correct"] is True and run["failed"] == 0
            assert run["seeds"] and all(isinstance(s, int) for s in run["seeds"])
            for metric in DECLARED["end_to_end"]:
                figures = run["metrics"][metric["name"]]
                assert figures["q1"] <= figures["median"] <= figures["q3"]
                assert len(figures["runs"]) == len(run["seeds"])
