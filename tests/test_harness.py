"""The test harness itself: settings that every test run depends on."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # the repository's pytest settings and root conftest, run on a file
    # outside it from a directory outside it, so nothing is written here
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    env = dict(os.environ, PYTHONPATH=str(REPO), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "conftest", "-p",
         "no:cacheprovider", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
