"""In-process measurement of one workload: rounds of blocks, best-of timing,
the traced run, and the correctness checks."""

from __future__ import annotations

import traceback
from pathlib import Path
from typing import Callable

import tracing
from workloads import BLOCKS_PER_ROUND, Block, Check, Workload


def run_block(workload: Workload, seed: int, index: int, draw: int) -> Block:
    try:
        return workload.run(seed, index, draw)
    except Exception:
        traceback.print_exc()
        return Block(0, workload.block_trials, workload.block_trials, 0.0, "")


class Run:
    """Counts, pooled data and report comparisons of one run.  Nothing is
    kept per round, so memory does not grow with the number of rounds."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.trials = 0
        self.seconds = 0.0
        self.distinct: list[Block] = []  # round 0; a redrawing workload's later data is added in
        self.compared = 0
        self.mismatched = 0

    def block(self, index: int, draw: int) -> Block:
        block = run_block(self.workload, self.seed, index, draw)
        self.attempted += block.attempted
        self.failed += block.failed
        self.trials += block.trials
        self.seconds += block.seconds
        return block

    def compare(self, first: Block, again: Block) -> None:
        self.compared += 1
        self.mismatched += not (first.report and first.report.encode() == again.report.encode())

    def round(self, draw: int) -> list[Block]:
        """One pass over the blocks.  A workload that does not redraw repeats
        round 0, and every repeat must reproduce round 0's report."""
        draw = draw if self.workload.redraws else 0
        blocks = [self.block(index, draw) for index in range(BLOCKS_PER_ROUND)]
        if not self.distinct:
            self.distinct = blocks
        elif self.workload.redraws:
            for pooled, block in zip(self.distinct, blocks):
                if pooled.data is not None and block.data is not None:
                    pooled.data = pooled.data + block.data
        else:
            for first, again in zip(self.distinct, blocks):
                self.compare(first, again)
        return blocks


def measure(
    workload: Workload, seed: int, seconds: int, between_rounds: Callable[[float], None]
) -> tuple[Run, float, str]:
    """Rounds until ``seconds`` of measured work, at least two, calling
    ``between_rounds`` with the seconds measured so far after each.  The
    rate is a round's trials over the sum of each block's best time across
    rounds.  On a host shared with other tenants a block runs up to twice as
    fast in quiet spells; the best of many short repeats varies least
    between runs."""
    run = Run(workload, seed)
    best = [b.seconds for b in run.round(0)]
    between_rounds(run.seconds)
    rounds = 1
    while rounds < 2 or run.seconds < seconds:
        for index, block in enumerate(run.round(rounds)):
            best[index] = min(best[index], block.seconds)
        between_rounds(run.seconds)
        rounds += 1
    if workload.redraws:
        run.compare(run.distinct[0], run_block(workload, seed, 0, 0))
    ok = [i for i, b in enumerate(run.distinct) if b.failed == 0 and best[i] > 0]
    rate = sum(run.distinct[i].trials for i in ok) / sum(best[i] for i in ok) if ok else 0.0
    detail = f"{rounds} rounds of {BLOCKS_PER_ROUND} blocks; all blocks together ran {run.trials / run.seconds:.6g} trials/s"
    return run, rate, detail


def trace(workload: Workload, seed: int, seconds: int, out_dir: Path, machine: dict):
    """The same rounds untraced, then traced; returns the run, the per-layer
    metrics and the spans file."""
    draws = range(max(1, seconds // 5)) if workload.redraws else [0] * max(1, seconds // 5)
    run_block(workload, seed, 0, 0)  # warm-up
    run = Run(workload, seed)
    untraced = [block for draw in draws for block in run.round(draw)]
    tracer = tracing.Tracer().install()
    try:
        traced = [run.block(index, draw) for draw in draws for index in range(BLOCKS_PER_ROUND)]
    finally:
        tracer.uninstall()
    for first, again in zip(untraced, traced):
        run.compare(first, again)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = best_seconds(traced) / best_seconds(untraced) - 1.0
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}.csv"
    tracer.write(path, machine)
    return run, metrics, path


def best_seconds(blocks: list[Block]) -> float:
    """Sum over block indices of the best time across rounds; ``blocks`` is
    a whole number of rounds in block order."""
    return sum(min(b.seconds for b in blocks[i::BLOCKS_PER_ROUND]) for i in range(BLOCKS_PER_ROUND))


def correctness(run: Run) -> list[Check]:
    """No failed operation, the workload's pooled checks, and byte-identical
    re-runs."""
    checks = [Check("operations", run.failed == 0, f"{run.failed} of {run.attempted} failed")]
    good = [b for b in run.distinct if b.data is not None]
    if good:
        checks += run.workload.check(run.seed, good)
    checks.append(
        Check(
            "reproducible_report",
            run.compared > 0 and run.mismatched == 0,
            f"{run.compared} blocks re-run, {run.mismatched} reports differ",
        )
    )
    return checks
