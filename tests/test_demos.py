"""The demos and the README's library example run end to end and print
their result lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    """A fresh interpreter on ``args`` with the package's ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize(
    "script, result_line",
    [
        ("01_state_walkthrough.py", "every fired probe read the resent message bit exactly"),
        ("02_eavesdropper_leak.py", "detected_rate          0.0000"),
        ("03_malicious_agent.py", "attack detected: False"),
        ("04_improved_immunity.py", "the price: qubit efficiency drops from 1/2 to 1/4"),
        ("05_blocking_detection.py", "  4   0.9465     0.9375"),
    ],
)
def test_demo_runs(script, result_line):
    done = run_python(str(ROOT / "demos" / script))
    assert done.returncode == 0, done.stderr
    assert result_line in done.stdout


def test_readme_library_example_runs():
    # The first python block under "## Library", with warnings as errors.
    library = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    done = run_python("-W", "error", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[0] in ("equal", "not-equal")
