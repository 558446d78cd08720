"""The demos run end to end and print their result lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, result_line",
    [
        ("01_state_walkthrough.py", "every fired probe read the resent message bit exactly"),
        ("02_eavesdropper_leak.py", "detected_rate          0.0000"),
        ("03_malicious_agent.py", "attack detected: False"),
        ("04_improved_immunity.py", "the price: qubit efficiency drops from 1/2 to 1/4"),
        ("05_blocking_detection.py", "  4   0.9400     0.9375"),
    ],
)
def test_demo_runs(script, result_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert result_line in done.stdout
