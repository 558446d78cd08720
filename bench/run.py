"""Benchmark for sqpc: trials per second, set-up time and memory per workload.

Usage, from the repository root:

    python3 bench/run.py --workload jiang-eve --seed 1 --seconds 30 --trace 0

``--trace 0`` runs rounds of the workload's blocks for ``--seconds``
seconds and reports the end-to-end metrics of ``BENCHMARK.json``:
``trials_per_s`` (a round's trials over the sum of each block's best
time), ``setup_s`` (median over fresh ``python -m sqpc.cli`` launches spread
over the run) and ``peak_rss_mb``.  ``--trace 1`` runs ``--seconds`` / 5
rounds untraced, then the same rounds with every public entry point of
kernel, jiang, improved, attacks and harness wrapped in spans, and reports
the per-layer metrics.  Either way the run checks the workload's outputs
and prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 1 if a check fails and
2 if it cannot find the package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# The workload runs on one thread; numpy must not start a BLAS pool.
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

CLI_ARGS = ["-m", "sqpc.cli", "run", "--scenario", "jiang", "--L", "1", "--trials", "1", "--format", "csv"]
SETUP_LAUNCHES = 9
WORKLOAD_NAMES = ("jiang-eve", "improved-curve", "kernel-born")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "sqpc").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def launch_cli(importtime: bool) -> tuple[float, str, float | None, str]:
    """One fresh CLI process: (wall s, stdout, sqpc import s or None, error)."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), *CLI_ARGS]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    import_s = None
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "sqpc":
            import_s = int(parts[1]) / 1e6
    error = "" if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return seconds, proc.stdout, import_s, error


def setup_metric(launches: list, importtime: bool) -> tuple[float, bool, str]:
    """Median wall time (or sqpc import time) of the CLI launches, whether
    every launch succeeded and printed the same report, and a detail line."""
    errors = [error for _, _, _, error in launches if error]
    reports = {stdout for _, stdout, _, _ in launches}
    ok = not errors and len(reports) == 1 and next(iter(reports)).startswith("metric,mean,")
    detail = errors[0] if errors else f"{len(launches)} launches, {len(reports)} distinct report(s)"
    if importtime:
        values = [import_s for _, _, import_s, _ in launches if import_s is not None]
        ok = ok and len(values) == len(launches)
    else:
        values = [seconds for seconds, _, _, _ in launches]
    return (statistics.median(values) if values else 0.0), ok, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sqpc" / "__init__.py").is_file():
        print(f"bench: no sqpc package at {SRC / 'sqpc'}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import runner
    import sqpc
    import tracing
    import workloads

    if not Path(sqpc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported sqpc from {sqpc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    machine = machine_facts()
    launch_cli(bool(args.trace))  # fills the bytecode cache; not counted
    launches = []
    if args.trace:
        launches = [launch_cli(True) for _ in range(SETUP_LAUNCHES)]
        setup_value, setup_ok, setup_detail = setup_metric(launches, importtime=True)
        run, values, path = runner.trace(workload, args.seed, args.seconds, OUT_DIR, machine)
        values["cli.import_s"] = setup_value
        units = dict(tracing.PER_LAYER)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        # Launches between rounds, one per SETUP_LAUNCHES-th of the run, sample
        # the host's load over the whole run rather than over its first seconds.
        marks = [args.seconds * i / SETUP_LAUNCHES for i in range(SETUP_LAUNCHES)]

        def between_rounds(measured: float) -> None:
            if marks and measured >= marks[0]:
                marks.pop(0)
                launches.append(launch_cli(False))

        run, rate, detail = runner.measure(workload, args.seed, args.seconds, between_rounds)
        launches += [launch_cli(False) for _ in range(SETUP_LAUNCHES - len(launches))]
        setup_value, setup_ok, setup_detail = setup_metric(launches, importtime=False)
        values = {
            "trials_per_s": rate,
            "setup_s": setup_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(detail)

    checks = [workloads.Check("cli_setup", setup_ok, setup_detail), *runner.correctness(run)]
    attempted, failed = run.attempted, run.failed
    correct = all(c.passed for c in checks)
    for c in checks:
        print(f"check {c.name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})")
    print(f"machine {json.dumps(machine)}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {failed / attempted:.6g} fraction ({failed} of {attempted} operations failed)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
