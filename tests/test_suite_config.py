"""The pytest configuration in pyproject.toml turns warnings into errors.
A failing property test must still print its falsifying example, and
the tests after it must still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_plain():
    pass
'''


def test_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out
