import os
import subprocess
import sys

import pytest

from conftest import REPO_DIR

DEMOS = sorted((REPO_DIR / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=REPO_DIR, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
