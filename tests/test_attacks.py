"""Adversary tests: tap state evolutions, leak statistics, silence claims."""

import itertools

import numpy as np
import pytest

from sqpc import jiang
from sqpc.attacks import (
    BlockingAttacker,
    DoubleCnotEve,
    InterceptResendZ,
    MaliciousAgent,
    PublicRecord,
    Streams,
)
from sqpc.jiang import (
    INDEPENDENT_COIN,
    INSUFFICIENT_SIFT,
    ComparisonOutcome,
    PairBatch,
    SessionConfig,
    attack_state_checks,
    participant_respond,
    random_bits,
    run_session,
)
from sqpc.kernel import SQRT_HALF, BellState, Register, amplitudes_close, prepare_z


def bits(text):
    return [int(c) for c in text]


class TestStateCheckSuite:
    def test_all_checks_pass(self):
        checks = attack_state_checks()
        assert len(checks) == 6
        for check in checks:
            assert check.passed, check.name

    def test_pipeline_retained_states_exact(self, rng):
        # Full tap + SIFT pipeline on phi+, wires (A, B, E, F): the true
        # register state is the GHZ correlations tensored with the fresh
        # |m>, for either message bit.
        for m, indices in ((0, (0b0000, 0b1110)), (1, (0b0001, 0b1111))):
            pairs = PairBatch.prepare([BellState.PHI_PLUS.value])
            eve = DoubleCnotEve("A")
            pairs.wires["A"] = eve.on_forward(pairs.positions, pairs.register, pairs.wires["A"], rng)
            pairs.returns["A"] = participant_respond(np.array([True]), pairs.register, pairs.wires["A"], [m])
            expected = np.zeros(16, dtype=complex)
            for i in indices:
                expected[i] = SQRT_HALF
            assert amplitudes_close(pairs.register.amps[:, 0], expected, 1e-9)

    def test_forward_tap_on_psi_plus(self, rng):
        # CNOT into a fresh ancilla maps psi+ into matched three-way flips.
        pairs = PairBatch.prepare([BellState.PSI_PLUS.value])
        eve = DoubleCnotEve("A")
        pairs.wires["A"] = eve.on_forward(pairs.positions, pairs.register, pairs.wires["A"], rng)
        expected = np.zeros(8, dtype=complex)  # wires (A, B, E)
        expected[0b010] = SQRT_HALF
        expected[0b101] = SQRT_HALF
        assert amplitudes_close(pairs.register.amps[:, 0], expected, 1e-9)
        assert np.linalg.norm(pairs.register.amps) == pytest.approx(1.0, abs=1e-12)


def _chunk_layout(seed):
    """A random chunk: 1-4 trials of one or two blocks of rows each, a
    random real state per row, a measurement on one or two per-row wires
    and an ascending row subset (sometimes every row)."""
    rng = np.random.default_rng(seed)
    trials, blocks, block = int(rng.integers(1, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 6))
    size, n = trials * blocks * block, 3
    amps = rng.normal(size=(1 << n, size))
    amps /= np.linalg.norm(amps, axis=0)
    op = ("measure_z", "measure_x", "measure_bell")[int(rng.integers(3))]
    first = rng.integers(n, size=size) if rng.random() < 0.7 else np.full(size, int(rng.integers(n)))
    wires = [first] if op != "measure_bell" else [first, (first + rng.integers(1, n, size=size)) % n]
    rows = np.arange(size) if rng.random() < 0.2 else (rng.random(size) < 0.7).nonzero()[0]
    return amps, op, rows, [w[rows] for w in wires], trials, block


class TestStreamsMeasure:
    """One ``Streams.measure`` call is one lone measurement per (trial,
    block, wires), in ascending order, each from that trial's generator."""

    @pytest.mark.parametrize("seed", range(60))
    @pytest.mark.parametrize("per_block", [False, True])
    def test_matches_lone_measurements(self, seed, per_block):
        amps, op, rows, wires, trials, block = _chunk_layout(seed)
        trial_rows = amps.shape[1] // trials
        gens = [np.random.default_rng([seed, t]) for t in range(trials)]
        lone_gens = [np.random.default_rng([seed, t]) for t in range(trials)]
        register, lone = Register(amps.copy()), Register(amps.copy())

        reads = Streams(gens).measure(register, op, rows, *wires, block=block if per_block else None)

        expected = np.full(len(rows), -1)
        groups = rows // (block if per_block else trial_rows)
        keys = sorted({(int(g), *(int(w[i]) for w in wires)) for i, g in enumerate(groups)})
        for group, *key in keys:
            picked = (groups == group) & np.logical_and.reduce([w == k for w, k in zip(wires, key)])
            gen = lone_gens[rows[picked][0] // trial_rows]
            expected[picked] = getattr(lone, op)(*key, gen, rows[picked])
        assert reads.tolist() == expected.tolist()
        assert np.array_equal(register.amps, lone.amps)
        assert [gen.random() for gen in gens] == [gen.random() for gen in lone_gens]

    @pytest.mark.parametrize("trials", [1, 3])
    def test_empty_rows_draw_nothing(self, trials):
        gens = [np.random.default_rng([7, t]) for t in range(trials)]
        register = Register(np.tile(prepare_z(0)[:, None], (1, 2 * trials)))
        before = register.amps.copy()
        register.measure_z = None  # a kernel call would fail
        reads = Streams(gens).measure(register, "measure_z", np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
        assert len(reads) == 0
        assert np.array_equal(register.amps, before)
        assert [gen.random() for gen in gens] == [np.random.default_rng([7, t]).random() for t in range(trials)]


class TestDoubleCnotEve:
    @pytest.mark.parametrize("variant", list(BellState))
    def test_ctrl_restoration_is_exact(self, variant, rng):
        # 500 round trips per Bell state, one batch position each: the
        # probe never fires and TP's Bell read never mismatches.
        trips = 500
        pairs = PairBatch.prepare([variant.value] * trips)
        eve = DoubleCnotEve("A")
        pairs.wires["A"] = eve.on_forward(pairs.positions, pairs.register, pairs.wires["A"], rng)
        ctrl = np.zeros(trips, dtype=bool)
        pairs.returns["A"] = participant_respond(ctrl, pairs.register, pairs.wires["A"])
        pairs.returns["B"] = participant_respond(ctrl, pairs.register, pairs.wires["B"])
        pairs.returns["A"] = eve.on_return(pairs.positions, pairs.register, pairs.returns["A"], rng)
        report = eve.finalize(PublicRecord(L=trips // 2))
        assert report.indicator_bits == {pos: 0 for pos in range(trips)}
        bell, _, _ = jiang.tp_resolve_positions(pairs, ctrl, ctrl, rng)
        assert (bell != pairs.prepared).tolist() == [False] * trips

    def test_indicator_and_data_read_on_sift(self, rng):
        trials = 3000
        m = rng.integers(2, size=trials)
        pairs = PairBatch.prepare([BellState.PHI_PLUS.value] * trials)
        eve = DoubleCnotEve("A")
        pairs.wires["A"] = eve.on_forward(pairs.positions, pairs.register, pairs.wires["A"], rng)
        pairs.returns["A"] = participant_respond(np.ones(trials, dtype=bool), pairs.register, pairs.wires["A"], m)
        pairs.returns["A"] = eve.on_return(pairs.positions, pairs.register, pairs.returns["A"], rng)
        report = eve.finalize(PublicRecord(L=trials // 2))
        fired = sorted(pos for pos, bit in report.indicator_bits.items() if bit)
        # a fired probe reads the bit exactly
        assert report.intercepted_bits == {pos: int(m[pos]) for pos in fired}
        # and the read does not disturb the resent eigenstate
        (wire,) = set(pairs.returns["A"][fired].tolist())
        assert np.array_equal(pairs.register.measure_z(wire, rng, np.array(fired)), m[fired])
        assert abs(len(fired) / trials - 0.5) < 4 * np.sqrt(0.25 / trials)

    def test_session_report_decodes_masked_secret(self, rng):
        config = SessionConfig(L=32)
        secret_a, secret_b, key = (random_bits(32, rng) for _ in range(3))
        _, outcome, reports = run_session(config, secret_a, secret_b, key, [DoubleCnotEve("A")], rng=rng)
        report = reports[0]
        assert report.detected is False
        assert report.accuracy == 1.0
        # every learned message index decodes to Secret xor K
        for idx, bit in report.masked_secret_bits.items():
            assert bit == secret_a[idx] ^ key[idx]
        assert set(report.message_bits) == set(report.masked_secret_bits)

    def test_abort_rate_zero_over_sessions(self, rng):
        config = SessionConfig(L=8)
        for _ in range(100):
            s = random_bits(8, rng)
            _, outcome, reports = run_session(config, s, s, random_bits(8, rng), [DoubleCnotEve("A")], rng=rng)
            assert not outcome.is_aborted
            assert reports[0].detected is False

    def test_targets_bob_channel_symmetrically(self, rng):
        config = SessionConfig(L=16)
        secret_a, secret_b, key = (random_bits(16, rng) for _ in range(3))
        _, _, reports = run_session(config, secret_a, secret_b, key, [DoubleCnotEve("B")], rng=rng)
        report = reports[0]
        assert report.target == "B"
        for idx, bit in report.masked_secret_bits.items():
            assert bit == secret_b[idx] ^ key[idx]

    def test_reused_tap_reports_only_its_own_session(self):
        # One tap across sessions: a session that aborts before any transit
        # reports no reads, not the previous session's.
        eve = DoubleCnotEve("A")
        config = SessionConfig(L=2, mode_policy=INDEPENDENT_COIN)
        aborted = 0
        for seed in range(10):
            _, outcome, (report,) = run_session(
                config, bits("01"), bits("11"), bits("10"), [eve], rng=np.random.default_rng(seed)
            )
            if outcome.abort_reason == INSUFFICIENT_SIFT:
                aborted += 1
                assert report.probed_positions == []
                assert report.indicator_bits == {}
                assert report.intercepted_bits == {}
        assert aborted > 0

    def test_midflight_on_base_protocol_is_loud_but_total(self):
        # Reading the probe mid-flight collapses the pair: the declared SIFT
        # message decodes completely, and CTRL/CTRL checks start failing.
        config = SessionConfig(L=16)
        rng = np.random.default_rng(17)
        detected = 0
        trials = 60
        for _ in range(trials):
            secret_a, secret_b, key = (random_bits(16, rng) for _ in range(3))
            _, outcome, reports = run_session(
                config, secret_a, secret_b, key, [DoubleCnotEve("A", midflight=True)], rng=rng
            )
            report = reports[0]
            detected += outcome.attacker_detected
            assert len(report.message_bits) == 16
            assert report.accuracy == 1.0
        # each CTRL/CTRL position mismatches with probability 1/2, so with
        # ~8 such positions per session detection is near certain
        assert detected / trials > 0.9


class TestMaliciousAgent:
    def test_steals_exact_bits_silently(self, rng):
        config = SessionConfig(L=32)
        for _ in range(40):
            secret_a, secret_b, key = (random_bits(32, rng) for _ in range(3))
            _, outcome, reports = run_session(
                config, secret_a, secret_b, key, [MaliciousAgent(victim="A", key=key)], rng=rng
            )
            report = reports[0]
            assert not outcome.is_aborted
            assert report.detected is False
            assert report.accuracy == 1.0
            for idx, bit in report.secret_bits.items():
                assert bit == secret_a[idx]

    def test_outcome_survives_interception(self, rng):
        # measure-and-resend of Z eigenstates is invisible to TP's reads
        config = SessionConfig(L=8)
        for _ in range(60):
            secret_a = random_bits(8, rng)
            secret_b = random_bits(8, rng)
            key = random_bits(8, rng)
            _, outcome, _ = run_session(
                config, secret_a, secret_b, key, [MaliciousAgent(victim="A", key=key)], rng=rng
            )
            expected = ComparisonOutcome.equal() if secret_a == secret_b else ComparisonOutcome.not_equal(
                next(i for i, (a, b) in enumerate(zip(secret_a, secret_b)) if a != b)
            )
            assert outcome == expected

    def test_overlap_fraction_matches_enumeration_at_l2(self):
        # Oracle: both SIFT sets are uniform 2-subsets of 4 positions, so the
        # expected overlap fraction is enumerable exactly.
        subsets = list(itertools.combinations(range(4), 2))
        exact = np.mean([len(set(a) & set(b)) / 2 for a in subsets for b in subsets])
        assert exact == pytest.approx(0.5)

        config = SessionConfig(L=2)
        rng = np.random.default_rng(23)
        fractions = []
        for _ in range(3000):
            secret_a, secret_b, key = (random_bits(2, rng) for _ in range(3))
            _, _, reports = run_session(
                config, secret_a, secret_b, key, [MaliciousAgent(victim="A", key=key)], rng=rng
            )
            fractions.append(len(reports[0].secret_bits) / 2)
        assert abs(np.mean(fractions) - exact) < 0.02

    def test_victim_ctrl_positions_contribute_nothing(self, rng):
        config = SessionConfig(L=8)
        secret_a, secret_b, key = (random_bits(8, rng) for _ in range(3))
        transcript, _, reports = run_session(
            config, secret_a, secret_b, key, [MaliciousAgent(victim="A", key=key)], rng=rng
        )
        report = reports[0]
        message_positions = set(transcript.message_positions["A"])
        claimed_positions = {transcript.message_positions["A"][i] for i in report.secret_bits}
        assert claimed_positions <= (set(report.probed_positions) & message_positions)


class TestBlocking:
    def test_x_outcomes_carry_no_information(self, rng):
        # Outcome distribution is uniform whatever the Z bit: sample both.
        # 4000 returned qubits per Z bit, one batch position each.
        counts = {0: [0, 0], 1: [0, 0]}
        positions = np.arange(4000)
        for z_bit in (0, 1):
            tap = BlockingAttacker("A")
            tap.begin_session(len(positions), rng)
            reg = Register(prepare_z(np.full(len(positions), z_bit)))
            tap.on_return(positions, reg, np.zeros(len(positions), dtype=int), rng)
            for read in tap.finalize(PublicRecord(L=1)).intercepted_bits.values():
                counts[z_bit][read] += 1
        for z_bit in (0, 1):
            frac = counts[z_bit][0] / 4000
            assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / 4000)

    def test_report_claims_nothing(self, rng):
        config = SessionConfig(L=4)
        secret = random_bits(4, rng)
        # library-level: blocking CAN run on the base protocol
        _, _, reports = run_session(config, secret, secret, random_bits(4, rng), [BlockingAttacker("A")], rng=rng)
        report = reports[0]
        assert report.learned_count == 0
        assert report.accuracy == 1.0


class TestInterceptResend:
    def test_learns_nothing_useful_and_gets_caught(self):
        config = SessionConfig(L=16)
        rng = np.random.default_rng(31)
        detected = 0
        trials = 80
        for _ in range(trials):
            secret = random_bits(16, rng)
            _, outcome, reports = run_session(
                config, secret, secret, random_bits(16, rng), [InterceptResendZ("A")], rng=rng
            )
            report = reports[0]
            assert report.learned_count == 0
            detected += outcome.attacker_detected
        # ~8 CTRL/CTRL positions, each mismatching with probability 1/2
        assert detected / trials > 0.9
