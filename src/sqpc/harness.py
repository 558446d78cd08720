"""Experiment runner: scenario wiring, Monte Carlo aggregation, reports.

Every trial gets its own rng seeded by a splitmix64 hash of (master seed,
trial index), so aggregates do not depend on execution order and a spec
re-run reproduces every sampled bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from .attacks import (
    AttackReport,
    BlockingAttacker,
    ChannelTap,
    DoubleCnotEve,
    InterceptResendZ,
    MaliciousAgent,
)
from .improved import ImprovedConfig, run_improved_session, qubit_efficiency
from .jiang import (
    BALANCED,
    MODE_POLICIES,
    Bits,
    ComparisonOutcome,
    SessionConfig,
    random_bits,
    run_session,
)

SCENARIOS = ("jiang", "improved")

ATTACKS = (
    "none",
    "double-cnot",
    "double-cnot-midflight",
    "malicious-agent",
    "blocking",
    "intercept-resend-z",
)

# blocking detection is defined by the disclosure check, which only the
# improved protocol has.
VALID_ATTACKS = {
    "jiang": ("none", "double-cnot", "double-cnot-midflight", "malicious-agent", "intercept-resend-z"),
    "improved": ATTACKS,
}

SCHEMA_VERSION = 1

_MASK64 = (1 << 64) - 1


class SpecValidationError(ValueError):
    """Invalid experiment spec; ``field`` names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass
class ExperimentSpec:
    scenario: str
    attack: str = "none"
    L: int = 32
    trials: int = 10_000
    seed: int = 0
    mode_policy: str = BALANCED
    error_threshold: float = 0.0
    target: str = "A"
    attacked_count: int | None = None

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise SpecValidationError("scenario", f"must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.attack not in ATTACKS:
            raise SpecValidationError("attack", f"must be one of {ATTACKS}, got {self.attack!r}")
        if self.attack not in VALID_ATTACKS[self.scenario]:
            raise SpecValidationError(
                "attack", f"{self.attack!r} is not valid for scenario {self.scenario!r}"
            )
        if self.L < 1:
            raise SpecValidationError("L", f"must be >= 1, got {self.L}")
        if self.trials < 1:
            raise SpecValidationError("trials", f"must be >= 1, got {self.trials}")
        if self.mode_policy not in MODE_POLICIES:
            raise SpecValidationError("mode_policy", f"must be one of {MODE_POLICIES}, got {self.mode_policy!r}")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise SpecValidationError("error_threshold", f"must lie in [0, 1], got {self.error_threshold}")
        if self.target not in ("A", "B"):
            raise SpecValidationError("target", f"must be 'A' or 'B', got {self.target!r}")
        if self.attacked_count is not None and self.attacked_count < 0:
            raise SpecValidationError("attacked_count", f"must be >= 0, got {self.attacked_count}")


@dataclass
class TrialResult:
    outcome: ComparisonOutcome
    detected: bool
    aborted: bool
    correct: bool
    leak_fraction: float
    leak_accuracy: float
    sift_indicator_rate: float | None = None
    x_mismatch_rate: float | None = None


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    count: int

    @classmethod
    def from_values(cls, values: list[float]) -> "MetricSummary":
        """Mean and population-std error of ``values``, bit-identical to
        ``ndarray.mean``/``std``: the same pairwise ``np.add.reduce`` sums,
        divisions by the count, deviations, squares and square roots, in
        the same order, without their per-call dispatch."""
        arr = np.asarray(values, dtype=float)
        count = len(arr)
        mean = float(np.add.reduce(arr)) / count
        deviation = arr - mean
        variance = float(np.add.reduce(deviation * deviation)) / count
        std_error = math.sqrt(variance) / math.sqrt(count)
        return cls(
            mean=mean,
            std_error=std_error,
            ci_low=mean - 1.96 * std_error,
            ci_high=mean + 1.96 * std_error,
            count=count,
        )

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class AggregateStats:
    spec: ExperimentSpec
    metrics: dict[str, MetricSummary]
    qubit_efficiency: Fraction
    started_at: str
    elapsed_ms: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "spec": dataclasses.asdict(self.spec),
            "metrics": {name: summary.as_dict() for name, summary in self.metrics.items()},
            "qubit_efficiency": float(self.qubit_efficiency),
            "started_at": self.started_at,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_csv_text(self) -> str:
        lines = ["metric,mean,std_error,ci_low,ci_high,count"]
        for name, m in self.metrics.items():
            lines.append(f"{name},{m.mean!r},{m.std_error!r},{m.ci_low!r},{m.ci_high!r},{m.count}")
        eff = float(self.qubit_efficiency)
        trials = self.spec.trials
        lines.append(f"qubit_efficiency,{eff!r},0.0,{eff!r},{eff!r},{trials}")
        return "\n".join(lines) + "\n"


def splitmix64(seed: int, index: int) -> int:
    """Stable 64-bit mix of (seed, index) for per-trial rng streams."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _build_taps(spec: ExperimentSpec, key: Bits) -> list[ChannelTap]:
    if spec.attack == "none":
        return []
    if spec.attack == "double-cnot":
        return [DoubleCnotEve(target=spec.target)]
    if spec.attack == "double-cnot-midflight":
        return [DoubleCnotEve(target=spec.target, midflight=True)]
    if spec.attack == "malicious-agent":
        return [MaliciousAgent(victim=spec.target, key=key, intercept_count=spec.attacked_count)]
    if spec.attack == "blocking":
        return [BlockingAttacker(target=spec.target, attack_count=spec.attacked_count)]
    if spec.attack == "intercept-resend-z":
        return [InterceptResendZ(target=spec.target)]
    raise SpecValidationError("attack", f"unknown attack {spec.attack!r}")


def _expected_outcome(secret_a: Bits, secret_b: Bits) -> ComparisonOutcome:
    for i, (a, b) in enumerate(zip(secret_a, secret_b)):
        if a != b:
            return ComparisonOutcome.not_equal(i)
    return ComparisonOutcome.equal()


def _x_mismatch_rate(transcript, report: AttackReport) -> float | None:
    """Mismatch rate of TP's X checks over the attacked CTRL positions."""
    results = transcript.x_results.get(report.target, {})
    attacked = [pos for pos in report.probed_positions if pos in results]
    if not attacked:
        return None
    return sum(int(results[pos][1]) for pos in attacked) / len(attacked)


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialResult:
    """One independent session under the spec, with a derived seed."""
    rng = np.random.default_rng(splitmix64(spec.seed, trial_index))
    L = spec.L
    secret_a = random_bits(L, rng)
    secret_b = list(secret_a) if rng.random() < 0.5 else random_bits(L, rng)
    key = random_bits(L, rng)
    taps = _build_taps(spec, key)

    if spec.scenario == "jiang":
        config = SessionConfig(L=L, error_threshold=spec.error_threshold, mode_policy=spec.mode_policy)
        transcript, outcome, reports = run_session(config, secret_a, secret_b, key, taps, rng=rng)
    else:
        config = ImprovedConfig(L=L, error_threshold=spec.error_threshold, mode_policy=spec.mode_policy)
        transcript, outcome, reports = run_improved_session(config, secret_a, secret_b, key, taps, rng=rng)

    expected = _expected_outcome(secret_a, secret_b)
    correct = (not outcome.is_aborted) and outcome == expected

    report = reports[0] if reports else None
    leak_fraction = (report.learned_count / L) if report else 0.0
    leak_accuracy = report.accuracy if report and report.accuracy is not None else 1.0
    result = TrialResult(
        outcome=outcome,
        detected=outcome.attacker_detected,
        aborted=outcome.is_aborted,
        correct=correct,
        leak_fraction=leak_fraction,
        leak_accuracy=leak_accuracy,
    )
    if report is not None and spec.attack in ("double-cnot", "double-cnot-midflight"):
        rate = report.sift_indicator_rate
        result.sift_indicator_rate = rate if rate is not None else 0.0
    if report is not None and spec.scenario == "improved":
        result.x_mismatch_rate = _x_mismatch_rate(transcript, report)
    return result


def run_experiment(spec: ExperimentSpec) -> AggregateStats:
    """Run ``spec.trials`` independent sessions and aggregate the metrics.

    Metrics are Bernoulli or [0, 1] fractions per trial; the summary
    reports mean, std error sqrt(p(1-p)/n)-style, and a 1.96-sigma CI.
    """
    spec.validate()
    started_at = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()

    columns: dict[str, list[float]] = {
        "abort_rate": [],
        "detected_rate": [],
        "outcome_correct": [],
        "leak_fraction": [],
        "leak_accuracy": [],
    }
    if spec.attack in ("double-cnot", "double-cnot-midflight"):
        columns["sift_indicator_rate"] = []
    if spec.scenario == "improved" and spec.attack != "none":
        columns["x_mismatch_rate"] = []

    for i in range(spec.trials):
        trial = run_trial(spec, i)
        columns["abort_rate"].append(float(trial.aborted))
        columns["detected_rate"].append(float(trial.detected))
        columns["outcome_correct"].append(float(trial.correct))
        columns["leak_fraction"].append(trial.leak_fraction)
        columns["leak_accuracy"].append(trial.leak_accuracy)
        if "sift_indicator_rate" in columns and trial.sift_indicator_rate is not None:
            columns["sift_indicator_rate"].append(trial.sift_indicator_rate)
        if "x_mismatch_rate" in columns and trial.x_mismatch_rate is not None:
            columns["x_mismatch_rate"].append(trial.x_mismatch_rate)

    metrics = {
        name: MetricSummary.from_values(values) for name, values in columns.items() if values
    }
    return AggregateStats(
        spec=spec,
        metrics=metrics,
        qubit_efficiency=qubit_efficiency(spec.scenario),
        started_at=started_at,
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )


@dataclass(frozen=True)
class CurveRow:
    k: int
    detection_rate: float
    std_error: float
    count: int


@dataclass
class DetectionCurve:
    spec: ExperimentSpec
    rows: list[CurveRow]
    started_at: str
    elapsed_ms: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "spec": dataclasses.asdict(self.spec),
            "curve": [dataclasses.asdict(row) for row in self.rows],
            "started_at": self.started_at,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_csv_text(self) -> str:
        lines = ["k,detection_rate,std_error,count"]
        for row in self.rows:
            lines.append(f"{row.k},{row.detection_rate!r},{row.std_error!r},{row.count}")
        return "\n".join(lines) + "\n"


def estimate_detection_curve(spec: ExperimentSpec, attacked_counts: list[int]) -> DetectionCurve:
    """Detection rate as a function of attack size k.

    For the blocking attack, k is the number of disclosed-and-attacked
    bits: the attacker hits every return position and the secret length
    is set to k, so all k disclosed bits are corrupted candidates.  For
    the malicious agent, k is the number of return positions it measures
    (its hits on CTRL positions drive the X-check detection).
    """
    spec.validate()
    if spec.scenario != "improved":
        raise SpecValidationError("scenario", "detection curves are defined for the improved protocol")
    if spec.attack not in ("blocking", "malicious-agent"):
        raise SpecValidationError("attack", "detection curves need attack 'blocking' or 'malicious-agent'")
    for k in attacked_counts:
        if k < 0:
            raise SpecValidationError("attacked_count", f"curve points must be >= 0, got {k}")
    started_at = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()

    rows = []
    for row_index, k in enumerate(attacked_counts):
        if spec.attack == "blocking":
            row_spec = dataclasses.replace(spec, L=max(k, 1), attacked_count=None)
            if k == 0:
                row_spec = dataclasses.replace(row_spec, attacked_count=0)
        else:
            row_spec = dataclasses.replace(spec, attacked_count=k)
        row_spec = dataclasses.replace(row_spec, seed=splitmix64(spec.seed, 0x10_0000 + row_index))
        detections = []
        for i in range(spec.trials):
            detections.append(float(run_trial(row_spec, i).detected))
        summary = MetricSummary.from_values(detections)
        rows.append(CurveRow(k=k, detection_rate=summary.mean, std_error=summary.std_error, count=summary.count))

    return DetectionCurve(
        spec=spec,
        rows=rows,
        started_at=started_at,
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )


def emit_report(stats, format: str = "json", path: str | None = None) -> str:
    """Serialize a report (AggregateStats or DetectionCurve) and optionally
    write it to ``path``.  UTF-8, line-feed terminated."""
    if format == "json":
        text = json.dumps(stats.to_json_dict(), indent=2) + "\n"
    elif format == "csv":
        text = stats.to_csv_text()
    else:
        raise SpecValidationError("format", f"must be 'json' or 'csv', got {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text
