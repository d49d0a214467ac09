"""The suite's own pytest settings: warnings are errors, and a failure never ends the session."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

INNER = """\
import numpy as np
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 5


def test_a_numpy_warning_is_an_error():
    np.float64(1e308) * 10.0


def test_a_later_test():
    pass
"""


def test_a_failing_property_test_leaves_later_tests_running(tmp_path):
    # with filterwarnings = ["error"] alone, hypothesis's report raised mypy_extensions'
    # DeprecationWarning inside a pluggy teardown: INTERNALERROR, and no later test ran
    (tmp_path / "test_inner.py").write_text(INNER)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout.splitlines()[-1], textwrap.shorten(run.stdout, 2000)
    assert "FAILED test_inner.py::test_a_numpy_warning_is_an_error - RuntimeWarning" in run.stdout
