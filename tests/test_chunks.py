"""Chunked trials: every trial of a run split into chunks equals the same
trial run on its own (a chunk of one), field for field."""

import pytest

from sqpc import harness
from sqpc.harness import ATTACK_TABLE, SCENARIO_TABLE, ExperimentSpec, estimate_detection_curve, run_experiment
from sqpc.jiang import INSUFFICIENT_SIFT

TRIALS_PER_CHUNK = 4
TRIALS = 11  # chunks of 4, 4 and 3 trials


def assert_chunks_match_lone_trials(chunks):
    # run_trial is a chunk of one, which the recorder would append.
    for spec, start, stop, results in list(chunks):
        assert len(results) == stop - start
        for i, result in zip(range(start, stop), results):
            assert result == harness.run_trial(spec, i), (spec, i)


def experiment_cases():
    for scenario in SCENARIO_TABLE:
        for attack, entry in ATTACK_TABLE.items():
            if scenario in entry.scenarios:
                for policy in ("balanced", "coin"):
                    for target in ("A", "B"):
                        yield pytest.param(scenario, attack, policy, target, id=f"{scenario}-{attack}-{policy}-{target}")


@pytest.mark.parametrize("scenario, attack, policy, target", list(experiment_cases()))
def test_chunked_experiment_equals_lone_trials(monkeypatch, scenario, attack, policy, target):
    spec = ExperimentSpec(
        scenario=scenario, attack=attack, L=2, trials=TRIALS, seed=23, mode_policy=policy, target=target
    )
    chunks = record_chunks(monkeypatch, spec)
    run_experiment(spec)
    assert [(start, stop) for _, start, stop, _ in chunks] == [(0, 4), (4, 8), (8, 11)]
    assert_chunks_match_lone_trials(chunks)


def test_insufficient_sift_abort_mid_chunk(monkeypatch):
    # Coin policy at L=2: a trial aborts when a participant SIFTs fewer
    # than 2 of 4 positions.  Trials after it in its chunk still run.
    spec = ExperimentSpec(scenario="jiang", attack="double-cnot", L=2, trials=TRIALS, seed=24, mode_policy="coin")
    chunks = record_chunks(monkeypatch, spec)
    run_experiment(spec)
    mid_chunk = [
        (start, j)
        for _, start, stop, results in chunks
        for j, result in enumerate(results)
        if 0 < j < stop - start - 1
        and result.outcome.abort_reason == INSUFFICIENT_SIFT
        and not results[j + 1].aborted
    ]
    assert mid_chunk, "no insufficient-sift abort with a live trial after it in its chunk"
    assert_chunks_match_lone_trials(chunks)


@pytest.mark.parametrize("attack, k_values", [("blocking", [2]), ("malicious-agent", [0, 3])])
def test_chunked_detection_curve_equals_lone_trials(monkeypatch, attack, k_values):
    spec = ExperimentSpec(scenario="improved", attack=attack, L=2, trials=TRIALS, seed=5)
    chunks = record_chunks(monkeypatch, spec)
    curve = estimate_detection_curve(spec, k_values)
    assert len(chunks) == 3 * len(k_values)
    assert_chunks_match_lone_trials(chunks)
    for row_index, row in enumerate(curve.rows):
        results = [r for _, _, _, rs in chunks[3 * row_index : 3 * row_index + 3] for r in rs]
        assert row.detection_rate == sum(r.detected for r in results) / TRIALS


def record_chunks(monkeypatch, spec):
    """Set ``CHUNK_ROWS`` to hold ``TRIALS_PER_CHUNK`` trials of ``spec``
    and record every chunk the harness runs as (spec, start, stop,
    results)."""
    rows = SCENARIO_TABLE[spec.scenario].rows_per_bit * spec.L
    monkeypatch.setattr(harness, "CHUNK_ROWS", TRIALS_PER_CHUNK * rows)
    recorded = []
    real_run_chunk = harness.run_chunk

    def recording_run_chunk(chunk_spec, start, stop):
        results = real_run_chunk(chunk_spec, start, stop)
        recorded.append((chunk_spec, start, stop, results))
        return results

    monkeypatch.setattr(harness, "run_chunk", recording_run_chunk)
    return recorded
