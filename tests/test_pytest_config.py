"""The pytest settings in pyproject.toml report a failing hypothesis test as
one failure, with its falsifying example, and go on to the tests after it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_after():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml")]
    argv += ["--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_failing.py"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
