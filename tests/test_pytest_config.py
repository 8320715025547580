"""The test settings in pyproject.toml keep a session going past a failing
hypothesis property: reporting the failure must not abort the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PROPERTY_THEN_PLAIN_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, derandomize=True)
@given(st.integers())
def test_failing_property(n):
    assert n < 0


def test_after_it():
    pass
'''


def test_failing_property_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_THEN_PLAIN_TEST)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                          str(tmp_path / "test_property.py")],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
