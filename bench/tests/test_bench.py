"""Tests of the benchmark itself.  Run from the repository root with

    python -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def tiny_runs():
    cache = {}

    def get(workload, seed, trace):
        if (workload, seed, trace) not in cache:
            cache[workload, seed, trace] = run_bench(workload, seed, trace)
        return cache[workload, seed, trace]

    return get


def test_benchmark_json_names_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert PER_LAYER == dict(tracing.PER_LAYER)
    assert set(END_TO_END) == {"trials_per_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(tiny_runs, workload, trace):
    proc = tiny_runs(workload, 7, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"])
        assert any(line.startswith(f"{name} ") and line.endswith(f" {m['unit']}") for line in lines), name
    assert any(line.startswith("error_rate 0 ") for line in lines)
    assert any(line.startswith("machine {") for line in lines)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_argument_changes_the_generated_inputs(workload):
    digest = workloads.WORKLOADS[workload].input_digest
    assert digest(1, 0) == digest(1, 0)
    assert digest(1, 0) != digest(2, 0)
    assert digest(1, 0) != digest(1, 1)


def test_kernel_call_counts_repeat_across_traced_runs(tiny_runs):
    for workload in ("jiang-eve", "kernel-born"):
        first = json.loads(tiny_runs(workload, 7, 1).stdout.splitlines()[-1])["metrics"]
        second = json.loads(run_bench(workload, 7, 1).stdout.splitlines()[-1])["metrics"]
        calls = [name for name in PER_LAYER if name.startswith("kernel.") and name.endswith(".calls")]
        assert {n: first[n]["value"] for n in calls} == {n: second[n]["value"] for n in calls}
        assert sum(first[n]["value"] for n in calls) > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("jiang-eve", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_born_oracle_on_known_states():
    s = math.sqrt(0.5)
    plus_zero = np.array([s, 0, s, 0], dtype=complex)  # |+>|0>
    assert workloads.z_probabilities(plus_zero, 0) == pytest.approx([0.5, 0.5])
    assert workloads.z_probabilities(plus_zero, 1) == pytest.approx([1.0, 0.0])
    assert workloads.x_probabilities(plus_zero, 0) == pytest.approx([1.0, 0.0])
    psi_minus = np.array([0, s, -s, 0], dtype=complex)
    assert workloads.bell_probabilities(psi_minus, 0, 1) == pytest.approx([0, 0, 0, 1])
    # |0>|psi+> with the pair on wires (2, 1): psi+ is symmetric, so order does not matter.
    state = np.kron([1, 0], [0, s, s, 0]).astype(complex)
    assert workloads.bell_probabilities(state, 2, 1) == pytest.approx([0, 0, 1, 0])
