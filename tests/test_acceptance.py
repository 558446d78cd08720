"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import itertools
import json
import math
import time

import numpy as np

from sqpc.attacks import DoubleCnotEve, MaliciousAgent
from sqpc.harness import ExperimentSpec, emit_report, estimate_detection_curve, run_experiment
from sqpc.improved import ImprovedConfig, qubit_efficiency, run_improved_session
from sqpc.jiang import (
    ComparisonOutcome,
    PairBatch,
    SessionConfig,
    attack_state_checks,
    participant_respond,
    random_bits,
    run_session,
    tp_resolve_positions,
)
from sqpc.kernel import (
    BellState,
    apply_cnot,
    apply_hadamard,
    measure_bell,
    measure_x,
    measure_z,
    prepare_z,
    tensor,
)
from conftest import BELL_VECTORS, oracle_projector_probability, random_state

from fractions import Fraction


def report_line(number: int, name: str, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number:2d}] {name}: {status}  ({detail}; {elapsed:.1f}s)"
    print(line)
    assert passed, line


def test_criterion_1_equation_suite():
    t0 = time.monotonic()
    checks = attack_state_checks(tol=1e-9)
    ok = len(checks) == 6 and all(c.passed for c in checks)
    detail = ", ".join(f"{c.name}={'ok' if c.passed else 'BAD'}" for c in checks)
    report_line(1, "exact attack-state reproduction", ok, detail, time.monotonic() - t0)


def test_criterion_2_silent_ctrl_restoration():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    mismatches = 0
    trials_per_state = 10_000
    ctrl = np.zeros(trials_per_state, dtype=bool)
    for variant in BellState:
        # One batch position per trial.
        pairs = PairBatch.prepare([variant.value] * trials_per_state)
        eve = DoubleCnotEve("A")
        pairs.wires["A"] = eve.on_forward(pairs.positions, pairs.register, pairs.wires["A"], rng)
        pairs.returns["A"] = participant_respond(ctrl, pairs.register, pairs.wires["A"])
        pairs.returns["B"] = participant_respond(ctrl, pairs.register, pairs.wires["B"])
        pairs.returns["A"] = eve.on_return(pairs.positions, pairs.register, pairs.returns["A"], rng)
        bell, _, _ = tp_resolve_positions(pairs, ctrl, ctrl, rng)
        mismatches += int(np.count_nonzero(bell != pairs.prepared))
    ok = mismatches == 0
    report_line(
        2,
        "double C-NOT CTRL round trips stay silent",
        ok,
        f"mismatches={mismatches} over {4 * trials_per_state} trials",
        time.monotonic() - t0,
    )


def test_criterion_3_fifty_percent_leak_undetected():
    t0 = time.monotonic()
    spec = ExperimentSpec(scenario="jiang", attack="double-cnot", L=32, trials=10_000, seed=42)
    stats = run_experiment(spec)
    indicator = stats.metrics["sift_indicator_rate"].mean
    leak = stats.metrics["leak_fraction"].mean
    accuracy = stats.metrics["leak_accuracy"].mean
    aborts = stats.metrics["abort_rate"].mean
    ok = (
        0.48 <= indicator <= 0.52
        and 0.48 <= leak <= 0.52
        and accuracy == 1.0
        and aborts == 0.0
    )
    report_line(
        3,
        "eavesdropper learns half the message, undetected",
        ok,
        f"indicator={indicator:.4f} leak={leak:.4f} accuracy={accuracy} aborts={aborts}",
        time.monotonic() - t0,
    )


def test_criterion_4_malicious_agent_overlap():
    t0 = time.monotonic()
    spec = ExperimentSpec(scenario="jiang", attack="malicious-agent", L=32, trials=10_000, seed=42)
    stats = run_experiment(spec)
    leak = stats.metrics["leak_fraction"].mean
    accuracy = stats.metrics["leak_accuracy"].mean
    detected = stats.metrics["detected_rate"].mean

    # Brute-force cross-check at L=2: enumerate every balanced mode
    # arrangement for both participants and average the SIFT overlap.
    subsets = list(itertools.combinations(range(4), 2))
    exact = float(np.mean([len(set(a) & set(b)) / 2 for a in subsets for b in subsets]))
    rng = np.random.default_rng(57)
    config = SessionConfig(L=2)
    small = []
    for _ in range(2_000):
        secret_a, secret_b, key = (random_bits(2, rng) for _ in range(3))
        _, _, reports = run_session(config, secret_a, secret_b, key, [MaliciousAgent("A", key)], rng=rng)
        small.append(len(reports[0].secret_bits) / 2)
    small_mean = float(np.mean(small))

    ok = (
        0.48 <= leak <= 0.52
        and accuracy == 1.0
        and detected == 0.0
        and exact == 0.5
        and abs(small_mean - exact) <= 4 * math.sqrt(0.25 * 0.5 / 2_000) + 0.01
    )
    report_line(
        4,
        "malicious participant steals half the secret, silently",
        ok,
        f"leak={leak:.4f} accuracy={accuracy} detected={detected} enum={exact} mc@L2={small_mean:.3f}",
        time.monotonic() - t0,
    )


def test_criterion_5_honest_correctness_both_protocols():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    failures = 0
    aborts = 0
    for trial in range(1_000):
        secret_a = random_bits(8, rng)
        secret_b = list(secret_a) if trial % 2 == 0 else random_bits(8, rng)
        key = random_bits(8, rng)
        _, outcome, _ = run_session(SessionConfig(L=8), secret_a, secret_b, key, rng=rng)
        expected = _expected(secret_a, secret_b)
        aborts += int(outcome.is_aborted)
        failures += int(outcome != expected)
    for trial in range(1_000):
        secret_a = random_bits(4, rng)
        secret_b = list(secret_a) if trial % 2 == 0 else random_bits(4, rng)
        key = random_bits(4, rng)
        _, outcome, _ = run_improved_session(ImprovedConfig(L=4), secret_a, secret_b, key, rng=rng)
        expected = _expected(secret_a, secret_b)
        aborts += int(outcome.is_aborted)
        failures += int(outcome != expected)
    ok = failures == 0 and aborts == 0
    report_line(
        5,
        "honest sessions compare correctly in both protocols",
        ok,
        f"failures={failures} aborts={aborts} over 2000 sessions",
        time.monotonic() - t0,
    )


def _expected(secret_a, secret_b):
    for i, (a, b) in enumerate(zip(secret_a, secret_b)):
        if a != b:
            return ComparisonOutcome.not_equal(i)
    return ComparisonOutcome.equal()


def test_criterion_6_improved_immune_to_double_cnot():
    t0 = time.monotonic()
    quiet = run_experiment(
        ExperimentSpec(scenario="improved", attack="double-cnot", L=4, trials=10_000, seed=42)
    )
    indicator = quiet.metrics["sift_indicator_rate"].mean
    leak = quiet.metrics["leak_fraction"].mean
    aborts = quiet.metrics["abort_rate"].mean

    loud = run_experiment(
        ExperimentSpec(scenario="improved", attack="double-cnot-midflight", L=4, trials=10_000, seed=42)
    )
    x_rate = loud.metrics["x_mismatch_rate"].mean

    ok = indicator == 0.0 and leak == 0.0 and aborts == 0.0 and 0.47 <= x_rate <= 0.53
    report_line(
        6,
        "improved protocol blinds the probe; mid-flight reads trip X checks",
        ok,
        f"indicator={indicator} leak={leak} aborts={aborts} midflight_x_mismatch={x_rate:.4f}",
        time.monotonic() - t0,
    )


def test_criterion_7_blocking_detection_curve():
    t0 = time.monotonic()
    spec = ExperimentSpec(scenario="improved", attack="blocking", L=1, trials=10_000, seed=42)
    curve = estimate_detection_curve(spec, [1, 2, 4, 8])
    deviations = []
    ok = True
    for row in curve.rows:
        expected = 1.0 - 0.5**row.k
        sigma = math.sqrt(expected * (1.0 - expected) / row.count)
        deviations.append(f"k={row.k}:{row.detection_rate:.4f}~{expected:.4f}")
        if abs(row.detection_rate - expected) > 3 * sigma:
            ok = False
    report_line(
        7,
        "blocking detection follows 1 - (1/2)^k",
        ok,
        " ".join(deviations),
        time.monotonic() - t0,
    )


def test_criterion_8_qubit_efficiency():
    t0 = time.monotonic()
    eff_base = qubit_efficiency("jiang")
    eff_improved = qubit_efficiency("improved")
    stats = run_experiment(ExperimentSpec(scenario="improved", attack="none", L=2, trials=5, seed=0))
    payload = json.loads(emit_report(stats, "json", None))
    ok = (
        eff_base == Fraction(1, 2)
        and eff_improved == Fraction(1, 4)
        and eff_improved / eff_base == Fraction(1, 2)
        and payload["qubit_efficiency"] == 0.25
    )
    report_line(
        8,
        "qubit efficiency accounting",
        ok,
        f"base={eff_base} improved={eff_improved} report_field={payload['qubit_efficiency']}",
        time.monotonic() - t0,
    )


def test_criterion_9_kernel_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(9)

    worst_norm_drift = 0.0
    for _ in range(1_000):
        sv = random_state(int(rng.integers(1, 3)), rng)
        for _ in range(20):
            n = sv.shape[0].bit_length() - 1
            op = int(rng.integers(5))
            if op == 0 and n < 4:
                sv = tensor(sv, prepare_z(int(rng.integers(2))))
            elif op == 1 and n >= 2:
                c, t = (int(x) for x in rng.choice(n, size=2, replace=False))
                sv = apply_cnot(sv, c, t)
            elif op == 2:
                sv = apply_hadamard(sv, int(rng.integers(n)))
            elif op == 3:
                _, sv = measure_z(sv, int(rng.integers(n)), rng)
            else:
                _, sv = measure_x(sv, int(rng.integers(n)), rng)
        worst_norm_drift = max(worst_norm_drift, abs(float(np.linalg.norm(sv)) - 1.0))
    norms_ok = worst_norm_drift <= 1e-9

    samples = 100_000
    freq_ok = True
    worst_pull = 0.0
    for state_index in range(50):
        if state_index < 20:
            n = 1 + state_index % 3
            kind = "z"
        elif state_index < 35:
            n = 1 + state_index % 3
            kind = "x"
        else:
            n = 2 + state_index % 2
            kind = "bell"
        sv = random_state(n, rng)
        if kind == "z":
            q = int(rng.integers(n))
            p1 = sum(
                abs(a) ** 2 for i, a in enumerate(sv) if (i >> (n - 1 - q)) & 1
            )
            ones = int(measure_z(_copies(sv, samples), q, rng)[0].sum())
            pulls = [_pull(ones / samples, p1, samples)]
        elif kind == "x":
            q = int(rng.integers(n))
            plus_vec = np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex)
            p_plus = oracle_projector_probability(sv, plus_vec, [q])
            plus = int((measure_x(_copies(sv, samples), q, rng)[0] == 0).sum())
            pulls = [_pull(plus / samples, p_plus, samples)]
        else:
            q1, q2 = (int(x) for x in rng.choice(n, size=2, replace=False))
            names = ["phi+", "phi-", "psi+", "psi-"]
            exact = [oracle_projector_probability(sv, BELL_VECTORS[name], [q1, q2]) for name in names]
            outcomes, _ = measure_bell(_copies(sv, samples), q1, q2, rng)
            counts = np.bincount(outcomes, minlength=4).tolist()
            pulls = [_pull(c / samples, p, samples) for c, p in zip(counts, exact)]
        worst_pull = max(worst_pull, max(pulls))
        if max(pulls) > 4.0:
            freq_ok = False
    ok = norms_ok and freq_ok
    report_line(
        9,
        "kernel normalization and Born frequencies",
        ok,
        f"worst_norm_drift={worst_norm_drift:.2e} worst_sigma_pull={worst_pull:.2f}",
        time.monotonic() - t0,
    )


def _copies(sv: np.ndarray, samples: int) -> np.ndarray:
    """``samples`` single shots of one state as one batch: the batch draws
    one uniform per shot from the same stream as ``samples`` single-state
    calls would."""
    return np.repeat(sv[:, None], samples, axis=1)


def _pull(frequency: float, probability: float, samples: int) -> float:
    sigma = math.sqrt(probability * (1.0 - probability) / samples)
    if sigma == 0.0:
        return 0.0 if frequency == probability else float("inf")
    return abs(frequency - probability) / sigma


def test_criterion_10_reports_are_reproducible():
    t0 = time.monotonic()
    spec = ExperimentSpec(scenario="jiang", attack="double-cnot", L=8, trials=300, seed=777)
    first = run_experiment(spec)
    second = run_experiment(spec)

    csv_identical = emit_report(first, "csv", None).encode() == emit_report(second, "csv", None).encode()

    a = json.loads(emit_report(first, "json", None))
    b = json.loads(emit_report(second, "json", None))
    # started_at and elapsed_ms are wall-clock by definition; everything
    # else must agree byte for byte once they are stripped.
    for volatile in ("started_at", "elapsed_ms"):
        a.pop(volatile)
        b.pop(volatile)
    json_identical = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    ok = csv_identical and json_identical
    report_line(
        10,
        "same spec, byte-identical report",
        ok,
        f"csv_identical={csv_identical} json_identical={json_identical}",
        time.monotonic() - t0,
    )
