"""The suite's own pytest settings count a failing test as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_hypothesis_test_is_counted_as_failed(tmp_path):
    # hypothesis's failure report imports a module that raises a
    # DeprecationWarning; under filterwarnings = error alone that ended the
    # run in INTERNALERROR (exit 3) instead of one counted failure
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out and "INTERNALERROR" not in out, out
