"""The test run's warning filters (pyproject.toml), seen from a pytest subprocess."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _pytest(tmp_path, source):
    """Run pytest under the project's settings on one test file holding ``source``."""
    (tmp_path / "test_sample.py").write_text(source)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q",
         str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_failing_hypothesis_test_fails_alone(tmp_path):
    # On a failing example hypothesis imports libcst, which warns a DeprecationWarning
    # of its own; the filters must let that test fail and the run go on to the next.
    run = _pytest(tmp_path, (
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n@given(st.integers())\n"
        "def test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    assert True\n"
    ))
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed")


def test_other_deprecation_warnings_stay_errors(tmp_path):
    run = _pytest(tmp_path, (
        "import warnings\n\n\n"
        "def test_warns():\n    warnings.warn('some call is deprecated', DeprecationWarning)\n"
    ))
    assert run.returncode == 1, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed")
