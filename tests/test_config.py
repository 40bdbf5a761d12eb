"""The test run's own settings: a warning fails the run, and a failing
Hypothesis property is reported as one failure among the others."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 5


def test_one_that_passes():
    pass
'''


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # When a property fails, Hypothesis's pytest plugin imports a module
    # whose import warns; pyproject.toml's "error" filter made that warning
    # an INTERNALERROR that stopped the run.
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
