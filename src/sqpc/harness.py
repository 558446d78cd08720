"""Experiment runner: scenario wiring, Monte Carlo aggregation, reports.

Every trial gets its own rng seeded by a splitmix64 hash of (master seed,
trial index), so aggregates do not depend on execution order and a spec
re-run reproduces every sampled bit.  Experiments and detection-curve
rows run their trials in chunks (:func:`run_chunk`): consecutive trials
of one spec share one register of at most ``CHUNK_ROWS`` rows, on which
each protocol step is one kernel call, while each trial draws from its
own rng in the order a lone session would; :func:`run_trial` is a chunk
of one trial and gives the same result.
Every per-scenario fact lives in one ``SCENARIO_TABLE`` entry and every
per-attack fact in one ``ATTACK_TABLE`` entry.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .attacks import (
    AttackReport,
    BlockingAttacker,
    ChannelTap,
    DoubleCnotEve,
    InterceptResendZ,
    MaliciousAgent,
    Streams,
)
# The single-session drivers stay importable here, where a tracer patches them.
from .improved import run_improved_session, run_improved_sessions  # noqa: F401
from .improved import x_mismatch_rate
from .jiang import (
    BALANCED,
    MODE_POLICIES,
    ComparisonOutcome,
    SessionConfig,
    first_difference,
    random_bits,
    run_session,  # noqa: F401
    run_sessions,
)


@dataclass(frozen=True)
class Scenario:
    """Everything the harness knows about one protocol.

    ``run`` calls its chunk session driver, looked up here at call time
    so that a tracer that patches this module's ``run_sessions`` or
    ``run_improved_sessions`` takes effect (patching the single-session
    drivers times nothing: experiments call the chunk drivers);
    ``positions_per_bit`` counts the positions of one participant's
    channel per compared bit, which bounds an attacked count and gives
    the qubit efficiency; ``rows_per_bit`` counts register rows per
    compared bit of a session; ``has_curve`` says whether detection
    curves are defined and ``x_mismatch_rate``, when set, reads a trial's
    ``x_mismatch_rate`` off its transcript and its attack report.
    """

    run: Callable[..., list]
    positions_per_bit: int
    rows_per_bit: int
    has_curve: bool = False
    x_mismatch_rate: Callable[[object, AttackReport], float | None] | None = None

    @functools.cached_property
    def qubit_efficiency(self) -> Fraction:
        """Compared secret bits per photon delivered to one participant."""
        return Fraction(1, self.positions_per_bit)


SCENARIO_TABLE = {
    "jiang": Scenario(lambda *a, **k: run_sessions(*a, **k), positions_per_bit=2, rows_per_bit=2),
    "improved": Scenario(
        lambda *a, **k: run_improved_sessions(*a, **k),
        positions_per_bit=4,
        rows_per_bit=8,
        has_curve=True,
        x_mismatch_rate=x_mismatch_rate,
    ),
}

SCENARIOS = tuple(SCENARIO_TABLE)

SCHEMA_VERSION = 1

# Register rows of one chunk at most; a trial wider than this is a chunk
# of its own.
CHUNK_ROWS = 2**14

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
        if self.attack not in ATTACK_TABLE:
            raise SpecValidationError("attack", f"must be one of {tuple(ATTACK_TABLE)}, got {self.attack!r}")
        attack = ATTACK_TABLE[self.attack]
        if self.scenario not in attack.scenarios:
            raise SpecValidationError(
                "attack", f"{self.attack!r} is not valid for scenario {self.scenario!r}"
            )
        numbers = dict(L=(int,), trials=(int,), seed=(int,), error_threshold=(int, float), attacked_count=(int, type(None)))
        for name, kinds in numbers.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise SpecValidationError(name, f"must be {'a number' if float in kinds else 'an int'}, got {value!r}")
        if self.L < 1:
            raise SpecValidationError("L", f"must be >= 1, got {self.L}")
        if self.trials < 1:
            raise SpecValidationError("trials", f"must be >= 1, got {self.trials}")
        if not 0 <= self.seed <= _MASK64:
            raise SpecValidationError("seed", f"must lie in [0, 2**64), got {self.seed}")
        if self.mode_policy not in MODE_POLICIES:
            raise SpecValidationError("mode_policy", f"must be one of {MODE_POLICIES}, got {self.mode_policy!r}")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise SpecValidationError("error_threshold", f"must lie in [0, 1], got {self.error_threshold}")
        if self.target not in ("A", "B"):
            raise SpecValidationError("target", f"must be 'A' or 'B', got {self.target!r}")
        if self.attacked_count is not None and not attack.takes_count:
            raise SpecValidationError("attacked_count", f"attack {self.attack!r} takes no attacked count")
        if self.attacked_count is not None and self.attacked_count < 0:
            raise SpecValidationError("attacked_count", f"must be >= 0, got {self.attacked_count}")
        positions = SCENARIO_TABLE[self.scenario].positions_per_bit * self.L
        if self.attacked_count is not None and self.attacked_count > positions:
            raise SpecValidationError(
                "attacked_count",
                f"must be <= {positions}, the positions of one channel at L={self.L}, got {self.attacked_count}",
            )


@dataclass(frozen=True)
class Attack:
    """Everything the harness knows about one attack.

    ``taps`` builds the taps of a chunk from the spec and the pre-shared
    keys of its trials, one L-bit int array per trial;
    ``columns`` are metrics beyond the common five, in report order, and
    one no trial fills (``x_mismatch_rate`` outside the improved protocol)
    is left out; ``curve_row`` maps a spec and an attack size k to that
    detection-curve row's spec (``None``: no curve).
    """

    taps: Callable[[ExperimentSpec, Sequence[np.ndarray]], list[ChannelTap]]
    scenarios: tuple[str, ...] = SCENARIOS
    columns: tuple[str, ...] = ("x_mismatch_rate",)
    takes_count: bool = False
    curve_row: Callable[[ExperimentSpec, int], ExperimentSpec] | None = None


_PROBE_COLUMNS = ("sift_indicator_rate", "x_mismatch_rate")

ATTACK_TABLE = {
    "none": Attack(lambda spec, keys: [], columns=()),
    "double-cnot": Attack(lambda spec, keys: [DoubleCnotEve(spec.target)], columns=_PROBE_COLUMNS),
    "double-cnot-midflight": Attack(
        lambda spec, keys: [DoubleCnotEve(spec.target, midflight=True)], columns=_PROBE_COLUMNS
    ),
    # Curve k: the return positions measured, whose CTRL hits trip the X check.
    "malicious-agent": Attack(
        lambda spec, keys: [MaliciousAgent(spec.target, keys, spec.attacked_count)],
        takes_count=True,
        curve_row=lambda spec, k: dataclasses.replace(spec, attacked_count=k),
    ),
    # Detected by the disclosure check, which only the improved protocol
    # has.  Curve k: disclosed-and-attacked bits, every return position
    # attacked at secret length k (k = 0 attacks nothing).
    "blocking": Attack(
        lambda spec, keys: [BlockingAttacker(spec.target, spec.attacked_count)],
        scenarios=("improved",),
        takes_count=True,
        curve_row=lambda spec, k: dataclasses.replace(spec, L=max(k, 1), attacked_count=None if k else 0),
    ),
    "intercept-resend-z": Attack(lambda spec, keys: [InterceptResendZ(spec.target)]),
}


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


def _trial_result(
    spec: ExperimentSpec, secret_a: np.ndarray, secret_b: np.ndarray, transcript, outcome, reports
) -> TrialResult:
    """A trial's metrics from its session."""
    correct = not outcome.is_aborted and outcome == first_difference(secret_a, secret_b)

    report = reports[0] if reports else None
    leak_fraction = (report.learned_count / spec.L) if report else 0.0
    leak_accuracy = report.accuracy if report and report.accuracy is not None else 1.0
    result = TrialResult(
        outcome=outcome,
        detected=outcome.attacker_detected,
        aborted=outcome.is_aborted,
        correct=correct,
        leak_fraction=leak_fraction,
        leak_accuracy=leak_accuracy,
    )
    if report is not None and "sift_indicator_rate" in ATTACK_TABLE[spec.attack].columns:
        rate = report.sift_indicator_rate
        result.sift_indicator_rate = rate if rate is not None else 0.0
    scenario = SCENARIO_TABLE[spec.scenario]
    if report is not None and scenario.x_mismatch_rate is not None:
        result.x_mismatch_rate = scenario.x_mismatch_rate(transcript, report)
    return result


def run_chunk(spec: ExperimentSpec, start: int, stop: int) -> list[TrialResult]:
    """Trials ``start`` to ``stop - 1`` of the spec as one chunk: one
    register holding every trial's rows, one kernel call per protocol
    step.  Trial i draws everything from its own rng, seeded from (spec
    seed, i), in the order a lone session would."""
    gens = [np.random.default_rng(splitmix64(spec.seed, i)) for i in range(start, stop)]
    L = spec.L
    bits = []
    for rng in gens:
        secret_a = random_bits(L, rng)
        bits.append((secret_a, secret_a if rng.random() < 0.5 else random_bits(L, rng), random_bits(L, rng)))
    # Alice's secrets, Bob's and the keys, one L-bit array per trial each.
    secrets_a, secrets_b, keys = zip(*bits)
    taps = ATTACK_TABLE[spec.attack].taps(spec, keys)

    config = SessionConfig(L=L, error_threshold=spec.error_threshold, mode_policy=spec.mode_policy)
    sessions = SCENARIO_TABLE[spec.scenario].run(config, secrets_a, secrets_b, keys, taps, rng=Streams(gens))
    return [
        _trial_result(spec, secret_a, secret_b, *session)
        for secret_a, secret_b, session in zip(secrets_a, secrets_b, sessions)
    ]


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialResult:
    """One independent session under the spec, with a derived seed: a
    chunk of one trial."""
    return run_chunk(spec, trial_index, trial_index + 1)[0]


def _run_trials(spec: ExperimentSpec):
    """Every trial of the spec in order, run chunk by chunk."""
    size = max(1, CHUNK_ROWS // (SCENARIO_TABLE[spec.scenario].rows_per_bit * spec.L))
    for start in range(0, spec.trials, size):
        yield from run_chunk(spec, start, min(start + size, spec.trials))


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
    extra = ATTACK_TABLE[spec.attack].columns
    columns.update((name, []) for name in extra)

    for trial in _run_trials(spec):
        columns["abort_rate"].append(float(trial.aborted))
        columns["detected_rate"].append(float(trial.detected))
        columns["outcome_correct"].append(float(trial.correct))
        columns["leak_fraction"].append(trial.leak_fraction)
        columns["leak_accuracy"].append(trial.leak_accuracy)
        for name in extra:
            value = getattr(trial, name)
            if value is not None:
                columns[name].append(value)

    metrics = {
        name: MetricSummary.from_values(values) for name, values in columns.items() if values
    }
    return AggregateStats(
        spec=spec,
        metrics=metrics,
        qubit_efficiency=SCENARIO_TABLE[spec.scenario].qubit_efficiency,
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
    """Detection rate as a function of attack size k, for an attack whose
    ``ATTACK_TABLE`` entry has a ``curve_row``: it sets what k means.
    Every row's spec is validated before the first trial runs.
    """
    spec.validate()
    if not SCENARIO_TABLE[spec.scenario].has_curve:
        raise SpecValidationError("scenario", f"scenario {spec.scenario!r} has no detection curve")
    curve_row = ATTACK_TABLE[spec.attack].curve_row
    if curve_row is None:
        raise SpecValidationError("attack", f"attack {spec.attack!r} has no detection curve")
    if spec.attacked_count is not None:
        raise SpecValidationError("attacked_count", "a detection curve sets the attacked count from its k values")
    if not attacked_counts:
        raise SpecValidationError("attacked_count", "a detection curve needs at least one k value")
    for k in attacked_counts:
        if k < 0:
            raise SpecValidationError("attacked_count", f"curve points must be >= 0, got {k}")
    started_at = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()

    row_specs = [
        dataclasses.replace(curve_row(spec, k), seed=splitmix64(spec.seed, 0x10_0000 + row_index))
        for row_index, k in enumerate(attacked_counts)
    ]
    for row_spec in row_specs:
        row_spec.validate()

    rows = []
    for k, row_spec in zip(attacked_counts, row_specs):
        detections = [float(trial.detected) for trial in _run_trials(row_spec)]
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
