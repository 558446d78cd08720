"""Run every workload at several seeds and summarise each end-to-end metric.

    python3 bench/record.py --seeds 10                  # print medians and spreads
    python3 bench/record.py --seeds 10 --append LABEL   # also add a trajectory entry

For each workload and metric it prints the median of the per-seed values,
their quartiles, and the spread: the distance between the quartiles as a
share of the median.  A spread below a third of the metric's bound in
``BENCHMARK.json`` is marked steady.  ``--append`` also makes one traced run
per workload and appends everything, with the machine facts, to
``bench/trajectory.json``.  Any run that fails its checks stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = BENCH_DIR / "trajectory.json"


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    machine = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("machine "))
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--append", metavar="LABEL", help="append a trajectory entry with this label")
    args = parser.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    names = [w["name"] for w in SPEC["workloads"]]

    entry = {"label": args.append, "run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, 0) for seed in seeds]
        entry["machine"] = runs[-1][1]
        end_to_end = {}
        for metric in SPEC["end_to_end"]:
            summary = summarize([result["metrics"][metric["name"]]["value"] for result, _ in runs])
            end_to_end[metric["name"]] = {"unit": metric["unit"], **summary}
            steady = "steady" if summary["spread"] < metric["bound"] / 3 else "NOT steady"
            print(
                f"{name:15s} {metric['name']:13s} median {summary['median']:.6g} {metric['unit']}"
                f"  q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}  spread {summary['spread']:.4f}"
                f"  (bound {metric['bound']}: {steady})  values {[float(f'{v:.5g}') for v in summary['values']]}",
                flush=True,
            )
        entry["workloads"][name] = {"end_to_end": end_to_end}

    if args.append:
        for name in names:
            result, _ = run_once(name, seeds[0], 1)
            entry["workloads"][name]["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append(entry)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended entry {args.append!r} to {TRAJECTORY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
