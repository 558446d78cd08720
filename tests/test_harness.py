"""Harness tests: spec validation, determinism, aggregation, reports, CLI."""

import dataclasses
import json
import math

import numpy as np
import pytest

from sqpc import harness
from sqpc.attacks import AttackReport, DoubleCnotEve, MaliciousAgent
from sqpc.cli import _build_parser, main
from sqpc.harness import (
    ExperimentSpec,
    MetricSummary,
    SpecValidationError,
    emit_report,
    estimate_detection_curve,
    run_experiment,
    run_trial,
    splitmix64,
)
from sqpc.improved import run_improved_session
from sqpc.jiang import SessionConfig, run_session

def small_spec(**overrides):
    base = dict(scenario="jiang", attack="none", L=6, trials=40, seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)

class TestSpecValidation:
    def test_accepts_defaults(self):
        ExperimentSpec(scenario="jiang").validate()

    @pytest.mark.parametrize(
        "field,overrides",
        [
            ("scenario", dict(scenario="qkd")),
            ("attack", dict(attack="teleport")),
            ("attack", dict(scenario="jiang", attack="blocking")),
            ("L", dict(L=0)),
            ("trials", dict(trials=0)),
            ("mode_policy", dict(mode_policy="always")),
            ("error_threshold", dict(error_threshold=2.0)),
            ("target", dict(target="C")),
            ("attacked_count", dict(attacked_count=-1)),
            ("attacked_count", dict(attack="double-cnot", attacked_count=1)),
            ("attacked_count", dict(attack="blocking", L=2, attacked_count=9)),
            ("attacked_count", dict(scenario="jiang", attack="malicious-agent", L=2, attacked_count=5)),
            ("seed", dict(seed=-1)),
            ("seed", dict(seed=2**64)),
            ("seed", dict(seed=1.5)),
            ("L", dict(L=2.0)),
            ("trials", dict(trials=2.0)),
            ("attacked_count", dict(attack="blocking", attacked_count=1.0)),
            ("seed", dict(seed=True)),
            ("error_threshold", dict(error_threshold=True)),
            ("error_threshold", dict(error_threshold="0.1")),
            ("attack", dict(attack=["none"])),
        ],
    )
    def test_rejects_bad_fields(self, field, overrides):
        spec_kwargs = dict(scenario="improved", attack="none")
        spec_kwargs.update(overrides)
        with pytest.raises(SpecValidationError) as err:
            ExperimentSpec(**spec_kwargs).validate()
        assert err.value.field == field

class TestSeeding:
    def test_splitmix_is_stable(self):
        assert splitmix64(42, 0) == splitmix64(42, 0)
        assert splitmix64(42, 0) != splitmix64(42, 1)
        assert splitmix64(42, 0) != splitmix64(43, 0)
        assert 0 <= splitmix64(2**63, 12345) < 2**64

    def test_trials_are_order_independent(self):
        spec = small_spec(attack="double-cnot", trials=25)
        forward = [run_trial(spec, i).leak_fraction for i in range(25)]
        backward = [run_trial(spec, i).leak_fraction for i in reversed(range(25))]
        assert forward == backward[::-1]

    @pytest.mark.parametrize(
        "scenario, attack, lone, make_tap",
        [
            ("jiang", "double-cnot", run_session, lambda key: DoubleCnotEve("A")),
            ("improved", "malicious-agent", run_improved_session, lambda key: MaliciousAgent("A", key)),
        ],
    )
    def test_a_lone_session_replays_trial_0(self, monkeypatch, scenario, attack, lone, make_tap):
        # Fed trial 0's secrets and key and the spec's seed, a lone session
        # runs as that trial: same outcome, same tap report.
        spec = ExperimentSpec(scenario=scenario, attack=attack, L=4, trials=1, seed=2024)
        name = {"jiang": "run_sessions", "improved": "run_improved_sessions"}[scenario]
        chunk_driver, chunk = getattr(harness, name), {}

        def recording_driver(config, secrets_a, secrets_b, keys, taps, *, streams):
            chunk["inputs"] = secrets_a[0], secrets_b[0], keys[0]
            chunk["sessions"] = chunk_driver(config, secrets_a, secrets_b, keys, taps, streams=streams)
            return chunk["sessions"]

        monkeypatch.setattr(harness, name, recording_driver)
        (trial,) = harness.run_chunk(spec, 0, 1)
        ((_, chunk_outcome, (chunk_report,)),) = chunk["sessions"]
        secret_a, secret_b, key = chunk["inputs"]

        _, outcome, (report,) = lone(SessionConfig(L=spec.L), secret_a, secret_b, key, [make_tap(key)], seed=spec.seed)
        assert outcome == chunk_outcome == trial.outcome
        assert (report.intercepted_bits >= 0).any()  # a report with reads to compare
        for field in dataclasses.fields(AttackReport):
            assert np.array_equal(getattr(report, field.name), getattr(chunk_report, field.name)), field.name

    @pytest.mark.parametrize("seed", [True, 1.0, "7", -1, 2**64], ids=["bool", "float", "str", "negative", "2**64"])
    @pytest.mark.parametrize("lone", [run_session, run_improved_session])
    def test_a_lone_session_refuses_a_seed_the_spec_refuses(self, lone, seed):
        with pytest.raises(SpecValidationError):
            small_spec(seed=seed).validate()
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*64\)"):
            lone(SessionConfig(L=1), [0], [1], [1], seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("lone", [run_session, run_improved_session])
    def test_a_lone_session_takes_every_seed_the_spec_takes(self, lone, seed):
        small_spec(seed=seed).validate()
        _, outcome, _ = lone(SessionConfig(L=1), [0], [1], [1], seed=seed)
        assert outcome.first_diff_index == 0

class TestRunTrial:
    """``run_trial`` runs only a trial that ``run_experiment`` would run."""

    @pytest.mark.parametrize(
        "field,overrides",
        [
            ("attack", dict(attack="blocking")),
            ("seed", dict(seed=-5)),
            ("attacked_count", dict(scenario="improved", attack="blocking", L=2, attacked_count=99)),
            ("L", dict(L=0)),
        ],
    )
    def test_rejects_a_spec_the_experiment_rejects(self, field, overrides):
        with pytest.raises(SpecValidationError) as err:
            run_trial(small_spec(**overrides), 0)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "index", [-1, 40, 41, True, 1.0, "0"], ids=["negative", "trials", "past-trials", "bool", "float", "str"]
    )
    def test_rejects_an_index_outside_the_trials(self, index):
        with pytest.raises(SpecValidationError) as err:
            run_trial(small_spec(), index)  # trials 0 to 39
        assert err.value.field == "trial_index"

    def test_runs_the_experiment_s_last_trial(self):
        spec = small_spec(attack="double-cnot")
        assert run_trial(spec, 39) == harness.run_chunk(spec, 39, 40)[0]


class TestAggregation:
    def test_bernoulli_std_error_formula(self):
        values = [1.0] * 30 + [0.0] * 70
        summary = MetricSummary.from_values(values)
        p = 0.3
        assert summary.std_error == pytest.approx(math.sqrt(p * (1 - p) / 100), abs=1e-12)
        assert summary.ci_low == pytest.approx(summary.mean - 1.96 * summary.std_error)
        assert summary.ci_high == pytest.approx(summary.mean + 1.96 * summary.std_error)
        assert summary.count == 100

    def test_summary_bit_identical_to_ndarray_reductions(self):
        # The reference is numpy's own mean/std; every float must agree
        # exactly, not within a tolerance.
        rng = np.random.default_rng(8)
        for size in (1, 2, 3, 7, 8, 9, 31, 127, 128, 129, 1000, 10_000):
            for values in (
                (rng.random(size) < 0.3).astype(float),
                rng.random(size),
                rng.random(size) * 1e-7 + 0.5,
                np.full(size, 0.1),
            ):
                summary = MetricSummary.from_values(values.tolist())
                assert summary.mean == float(values.mean())
                assert summary.std_error == float(values.std(ddof=0) / np.sqrt(values.size))
                assert summary.count == size

    def test_honest_experiment_metrics(self):
        stats = run_experiment(small_spec(L=8, trials=1_000))
        assert stats.metrics["abort_rate"].mean == 0.0
        assert stats.metrics["outcome_correct"].mean == 1.0
        assert stats.metrics["leak_fraction"].mean == 0.0
        assert float(stats.qubit_efficiency) == 0.5
        assert all(m.count == 1_000 for m in stats.metrics.values())

    def test_improved_efficiency_field(self):
        stats = run_experiment(small_spec(scenario="improved", L=2, trials=20))
        assert float(stats.qubit_efficiency) == 0.25

    def test_double_cnot_metrics_present(self):
        stats = run_experiment(small_spec(attack="double-cnot", L=16, trials=60))
        assert "sift_indicator_rate" in stats.metrics
        assert abs(stats.metrics["leak_fraction"].mean - 0.5) < 0.05
        assert stats.metrics["leak_accuracy"].mean == 1.0
        assert stats.metrics["detected_rate"].mean == 0.0

class TestReports:
    def test_json_round_trip(self, tmp_path):
        stats = run_experiment(small_spec(trials=10))
        path = tmp_path / "report.json"
        text = emit_report(stats, "json", str(path))
        parsed = json.loads(path.read_text(encoding="utf-8"))
        assert parsed == json.loads(text)
        assert parsed["schema_version"] == 1
        assert parsed["spec"]["scenario"] == "jiang"
        assert parsed["qubit_efficiency"] == 0.5
        for name in ("abort_rate", "detected_rate", "outcome_correct", "leak_fraction", "leak_accuracy"):
            assert set(parsed["metrics"][name]) == {"mean", "std_error", "ci_low", "ci_high", "count"}
        assert "started_at" in parsed and "elapsed_ms" in parsed
        assert text.endswith("\n")

    def test_csv_schema(self, tmp_path):
        stats = run_experiment(small_spec(trials=10))
        text = emit_report(stats, "csv", None)
        lines = text.splitlines()
        assert lines[0] == "metric,mean,std_error,ci_low,ci_high,count"
        names = [line.split(",")[0] for line in lines[1:]]
        assert "abort_rate" in names
        assert names[-1] == "qubit_efficiency"
        assert text.endswith("\n")

    def test_rerun_reports_identical(self):
        spec = small_spec(attack="double-cnot", L=8, trials=30, seed=404)
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert emit_report(first, "csv", None) == emit_report(second, "csv", None)
        a = json.loads(emit_report(first, "json", None))
        b = json.loads(emit_report(second, "json", None))
        for volatile in ("started_at", "elapsed_ms"):
            a.pop(volatile)
            b.pop(volatile)
        assert a == b

    def test_bad_format_rejected(self):
        stats = run_experiment(small_spec(trials=5))
        with pytest.raises(SpecValidationError):
            emit_report(stats, "xml", None)

class TestDetectionCurve:
    def test_blocking_curve_matches_closed_form(self):
        spec = ExperimentSpec(scenario="improved", attack="blocking", L=2, trials=400, seed=11)
        curve = estimate_detection_curve(spec, [0, 1, 2, 3])
        for row in curve.rows:
            expected = 1.0 - 0.5 ** row.k if row.k else 0.0
            sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / row.count)
            assert abs(row.detection_rate - expected) <= 4 * sigma + 1e-9

    def test_malicious_curve_matches_hypergeometric_oracle(self):
        # Oracle at 4L = 8: positions hold 2L = 4 reflected photons; each hit
        # trips the X check with probability 1/2.
        def undetected(m):
            total = math.comb(8, m)
            acc = 0.0
            for j in range(max(0, m - 4), min(4, m) + 1):
                acc += math.comb(4, j) * math.comb(4, m - j) / total * 0.5**j
            return acc

        spec = ExperimentSpec(scenario="improved", attack="malicious-agent", L=2, trials=500, seed=3)
        curve = estimate_detection_curve(spec, [0, 2, 4, 8])
        for row in curve.rows:
            expected = 1.0 - undetected(row.k)
            sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / row.count)
            assert abs(row.detection_rate - expected) <= 4 * sigma + 1e-9

    def test_curve_csv(self):
        spec = ExperimentSpec(scenario="improved", attack="blocking", L=1, trials=20, seed=1)
        curve = estimate_detection_curve(spec, [1, 2])
        text = emit_report(curve, "csv", None)
        assert text.splitlines()[0] == "k,detection_rate,std_error,count"

    @pytest.fixture
    def trial_calls(self, monkeypatch):
        """Indices of the trials run through ``harness.run_chunk``, which
        runs every trial of an experiment or a curve."""
        calls = []
        real_run_chunk = harness.run_chunk

        def counting_run_chunk(spec, start, stop):
            calls.extend(range(start, stop))
            return real_run_chunk(spec, start, stop)

        monkeypatch.setattr(harness, "run_chunk", counting_run_chunk)
        return calls

    def test_valid_curve_records_its_trials(self, trial_calls):
        # Positive control for the two "no trial ran" checks below.
        spec = ExperimentSpec(scenario="improved", attack="blocking", L=1, trials=5, seed=1)
        estimate_detection_curve(spec, [1, 2])
        assert trial_calls == [0, 1, 2, 3, 4] * 2

    @pytest.mark.parametrize("attack", ["blocking", "malicious-agent"])
    @pytest.mark.parametrize(
        "k_values",
        [[1, 2, -1], [1, 1.5], [True], [1, np.int64(2)], ["2"]],
        ids=["negative", "float", "bool", "numpy-int", "str"],
    )
    def test_rejects_negative_count_before_any_trial(self, trial_calls, k_values, attack):
        # A point that is not a count is blamed on the count, not on L.
        spec = ExperimentSpec(scenario="improved", attack=attack, L=1, trials=5, seed=1)
        with pytest.raises(SpecValidationError) as err:
            estimate_detection_curve(spec, k_values)
        assert err.value.field == "attacked_count"
        assert trial_calls == []

    def test_rejects_empty_curve_before_any_trial(self, trial_calls):
        # A curve of no k values would report nothing and look like success.
        spec = ExperimentSpec(scenario="improved", attack="blocking", L=1, trials=5, seed=1)
        with pytest.raises(SpecValidationError) as err:
            estimate_detection_curve(spec, [])
        assert err.value.field == "attacked_count"
        assert trial_calls == []

    @pytest.mark.parametrize("attack", ["blocking", "malicious-agent"])
    def test_rejects_spec_attacked_count_before_any_trial(self, trial_calls, attack):
        # The k values set each row's count; a count in the spec would be ignored.
        spec = ExperimentSpec(scenario="improved", attack=attack, L=4, trials=5, seed=1, attacked_count=3)
        with pytest.raises(SpecValidationError) as err:
            estimate_detection_curve(spec, [1, 2])
        assert err.value.field == "attacked_count"
        assert trial_calls == []

    def test_rejects_count_beyond_channel_before_any_trial(self, trial_calls):
        # L=2 gives a channel of 8 positions; the last row asks for more.
        spec = ExperimentSpec(scenario="improved", attack="malicious-agent", L=2, trials=5, seed=1)
        with pytest.raises(SpecValidationError) as err:
            estimate_detection_curve(spec, [1, 8, 9])
        assert err.value.field == "attacked_count"
        assert trial_calls == []

    def test_rejects_wrong_scenario(self):
        spec = ExperimentSpec(scenario="jiang", attack="malicious-agent", trials=5)
        with pytest.raises(SpecValidationError):
            estimate_detection_curve(spec, [1])

class TestCli:
    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "run", "--scenario", "jiang", "--attack", "none", "--L", "4",
            "--trials", "10", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        parsed = json.loads(out.read_text())
        assert parsed["spec"]["L"] == 4

    def test_run_stdout_csv(self, capsys):
        code = main([
            "run", "--scenario", "jiang", "--L", "4", "--trials", "5", "--format", "csv",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("metric,mean")

    def test_validation_error_exit_code(self, capsys):
        code = main([
            "run", "--scenario", "jiang", "--attack", "blocking", "--trials", "5",
        ])
        assert code == 1
        assert "attack" in capsys.readouterr().err

    @pytest.mark.parametrize("seed,code", [(-1, 1), (2**64, 1), (0, 0), (2**64 - 1, 0)])
    def test_seed_range_exit_code(self, seed, code, capsys):
        argv = ["run", "--scenario", "jiang", "--L", "2", "--trials", "2", "--seed", str(seed), "--format", "csv"]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert ("seed" in captured.err) == bool(code)
        assert (captured.out == "") == bool(code)

    @pytest.mark.parametrize("command", ["run", "detection-curve"])
    def test_omitted_flags_take_the_spec_defaults(self, command, monkeypatch):
        # A fresh default on every field shows the parser reads them from the spec.
        fields = [f for f in dataclasses.fields(ExperimentSpec) if f.name != "scenario"]
        for f in fields:
            monkeypatch.setattr(f, "default", object())
        args = _build_parser().parse_args([command, "--scenario", "jiang"])
        for f in fields:
            assert getattr(args, f.name) is f.default, f.name

    def test_bad_flag_exit_code(self, capsys):
        assert main(["run", "--scenario", "nope"]) == 1

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main([
            "run", "--scenario", "jiang", "--L", "2", "--trials", "2",
            "--out", str(tmp_path / "missing-dir" / "r.json"),
        ])
        assert code == 2

    def test_verify_equations(self, capsys):
        assert main(["verify-equations"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_detection_curve_cli(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "detection-curve", "--scenario", "improved", "--attack", "blocking",
            "--k", "1,2", "--trials", "30", "--seed", "2", "--format", "csv",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[0] == "k,detection_rate,std_error,count"

    def test_detection_curve_cli_rejects_empty_k(self, capsys):
        code = main(["detection-curve", "--scenario", "improved", "--attack", "blocking", "--k", ","])
        assert code == 1
        assert "attacked_count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["detection-curve", "--scenario", "improved", "--attack", "malicious-agent", "--L", "2", "--k", "100"],
            ["run", "--scenario", "improved", "--attack", "blocking", "--L", "2", "--attacked-count", "100"],
        ],
    )
    def test_rejects_count_beyond_channel(self, argv, capsys):
        assert main([*argv, "--trials", "2", "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "attacked_count" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["detection-curve", "--scenario", "improved", "--attack", "malicious-agent", "--L", "2", "--k", "8"],
            ["run", "--scenario", "improved", "--attack", "blocking", "--L", "2", "--attacked-count", "8"],
            ["run", "--scenario", "jiang", "--attack", "malicious-agent", "--L", "2", "--attacked-count", "4"],
        ],
    )
    def test_count_of_whole_channel_runs(self, argv, capsys):
        assert main([*argv, "--trials", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out.count("\n") >= 2
