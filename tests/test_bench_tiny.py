"""The benchmark harness, every workload once at its tiny size.

Reuses ``bench/smoke.py`` as it is (it runs ``bench/run.py`` in a
subprocess), so a change that breaks the workloads' calls into ``ssi`` fails
here. Neither this process nor the runs write bytecode under ``bench/``, and
an untraced run writes no span file.
"""

import importlib.util
import sys

import pytest

from conftest import REPO_DIR

BENCH_DIR = REPO_DIR / "bench"


def _import_smoke():
    spec = importlib.util.spec_from_file_location("bench_smoke", BENCH_DIR / "smoke.py")
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


smoke = _import_smoke()


def _outputs():
    out = BENCH_DIR / "out"
    return {p.name: p.stat().st_mtime_ns for p in out.iterdir()} if out.is_dir() else {}


@pytest.mark.parametrize("workload", smoke.WORKLOADS)
def test_untraced_tiny_run_checks_every_op(workload, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    before = _outputs()
    details, res = smoke.result(workload, 0)
    smoke.assert_metrics(res, smoke.SPEC["end_to_end"])
    assert details["fail_ratio"] == 0
    assert _outputs() == before
