"""The repository's pytest settings keep a failing property readable.

``filterwarnings = ["error"]`` turns every warning into an error, also
one that a plugin raises inside its own report hook.  Hypothesis prints
a failing property's falsifying example from such a hook; an error
there ends the run in an INTERNALERROR (exit code 3) and hides the
example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "x=5" in output
