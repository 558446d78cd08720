"""Adversary tests: tap state evolutions, leak statistics, silence claims."""

import dataclasses
import itertools

import numpy as np
import pytest

from sqpc import improved, jiang
from sqpc.attacks import (
    AttackReport,
    BlockingAttacker,
    ChannelTap,
    DoubleCnotEve,
    GroundTruth,
    InterceptResendZ,
    MaliciousAgent,
    SITES,
    PublicRecord,
    Streams,
    score_report,
    splitmix64,
)
from sqpc.improved import run_improved_session
from sqpc.jiang import (
    INDEPENDENT_COIN,
    INSUFFICIENT_SIFT,
    ComparisonOutcome,
    PairBatch,
    SessionConfig,
    attack_state_checks,
    participant_respond,
    run_session,
)
from sqpc.kernel import SQRT_HALF, BellState, Register, amplitudes_close, prepare_z


def bits(text):
    return [int(c) for c in text]


def assert_reports_equal(report, expected):
    """Every field of two attack reports equal, arrays by value."""
    for name in (f.name for f in dataclasses.fields(AttackReport)):
        assert np.array_equal(getattr(report, name), getattr(expected, name)), name


def assert_claims_nothing(report):
    assert report.learned_count == 0
    assert not any(len(claims) for claims in report.claims)


class TestStateCheckSuite:
    def test_all_checks_pass(self):
        checks = attack_state_checks()
        assert len(checks) == 6
        for check in checks:
            assert check.passed, check.name

    def test_pipeline_retained_states_exact(self):
        # Full tap + SIFT pipeline on phi+, wires (A's channel, B, E, the
        # discarded half): the true register state is the fresh |m> on A's
        # channel tensored with the GHZ correlations of the other three,
        # for either message bit.
        for m, indices in ((0, (0b0000, 0b0111)), (1, (0b1000, 0b1111))):
            pairs = PairBatch.prepare([BellState.PHI_PLUS.value])
            eve = DoubleCnotEve("A")
            eve.on_forward(pairs.positions, pairs.register, 0, Streams([0]))
            participant_respond(np.array([True]), pairs.register, 0, [m])
            expected = np.zeros(16, dtype=complex)
            for i in indices:
                expected[i] = SQRT_HALF
            assert amplitudes_close(pairs.register.amps[:, 0], expected, 1e-9)

    def test_forward_tap_on_psi_plus(self):
        # CNOT into a fresh ancilla maps psi+ into matched three-way flips.
        pairs = PairBatch.prepare([BellState.PSI_PLUS.value])
        eve = DoubleCnotEve("A")
        eve.on_forward(pairs.positions, pairs.register, 0, Streams([0]))
        expected = np.zeros(8, dtype=complex)  # wires (A, B, E)
        expected[0b010] = SQRT_HALF
        expected[0b101] = SQRT_HALF
        assert amplitudes_close(pairs.register.amps[:, 0], expected, 1e-9)
        assert np.linalg.norm(pairs.register.amps) == pytest.approx(1.0, abs=1e-12)


def _chunk_layout(seed):
    """A random chunk: 1-4 trials of 1-10 rows each, a random real state
    per row, a measurement on one or two int wires, an ascending row
    subset (sometimes every row) and a draw site."""
    rng = np.random.default_rng(seed)
    trials, trial_rows = int(rng.integers(1, 5)), int(rng.integers(1, 11))
    size, n = trials * trial_rows, 3
    amps = rng.normal(size=(1 << n, size))
    amps /= np.linalg.norm(amps, axis=0)
    op = ("measure_z", "measure_x", "measure_bell")[int(rng.integers(3))]
    first = int(rng.integers(n))
    wires = [first] if op != "measure_bell" else [first, (first + int(rng.integers(1, n))) % n]
    rows = np.arange(size) if rng.random() < 0.2 else (rng.random(size) < 0.7).nonzero()[0]
    site = list(SITES)[int(rng.integers(len(SITES)))]
    return amps, op, site, rows, wires, [splitmix64(seed, t) for t in range(trials)]


def _move_qubits(amps: np.ndarray, order: list[int]) -> np.ndarray:
    """Every row's state with qubit q moved to wire ``order[q]``."""
    n = len(order)
    axes = [order.index(wire) for wire in range(n)] + [n]
    return amps.reshape((2,) * n + amps.shape[1:]).transpose(axes).reshape(amps.shape)


class TestStreamsMeasure:
    """One ``Streams.read`` call without a mask is one lone measurement
    per row, each with the uniform of its trial, the read's site and its
    position; moving the measured qubits to other wires changes no read."""

    @pytest.mark.parametrize("seed", range(60))
    @pytest.mark.parametrize("moved", [False, True])
    def test_matches_lone_measurements(self, seed, moved):
        amps, op, site, rows, wires, keys = _chunk_layout(seed)
        trial_rows = amps.shape[1] // len(keys)
        streams = Streams(keys)
        register = Register(amps.copy())

        reads = streams.read(register, op, site, rows, *wires)

        # Each row alone, on a register whose qubits sit on other wires
        # when ``moved``.
        order = list(np.random.default_rng([seed, 1]).permutation(3)) if moved else [0, 1, 2]
        lone = Register(_move_qubits(amps, order))
        uniforms = streams.random(site, trial_rows).reshape(-1)
        expected = [
            getattr(lone, op)(*(order[w] for w in wires), uniforms[row : row + 1], np.array([row]))[0]
            for row in rows.tolist()
        ]
        assert reads.tolist() == expected
        # Moved qubits sum a row's probabilities in another order, so the
        # amplitudes agree to rounding.
        restored = _move_qubits(lone.amps, [order.index(q) for q in range(3)])
        assert np.allclose(register.amps, restored, rtol=0, atol=1e-12) if moved else np.array_equal(register.amps, restored)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_empty_rows_draw_nothing(self, trials):
        register = Register(np.tile(prepare_z(0)[:, None], (1, 2 * trials)))
        before = register.amps.copy()
        register.measure_z = None  # a kernel call would fail
        reads = Streams(range(trials)).read(register, "measure_z", "tp_z", np.zeros(0, dtype=np.intp), 0)
        assert len(reads) == 0
        assert np.array_equal(register.amps, before)


class TestStreamsRead:
    """``Streams.read`` with a mask is the unmasked read of the entries it
    picks, -1 at the others."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("pick", ["some", "all", "none"])
    def test_measures_the_picked_entries(self, seed, pick):
        amps, op, site, rows, wires, keys = _chunk_layout(seed)
        mask = {
            "some": np.random.default_rng([seed, 99]).random(len(rows)) < 0.6,
            "all": np.ones(len(rows), dtype=bool),
            "none": np.zeros(len(rows), dtype=bool),
        }[pick]
        register, lone = Register(amps.copy()), Register(amps.copy())
        # Every kernel call's row selection, in one pass over the picked rows.
        measure, selections = getattr(register, op), []
        setattr(register, op, lambda *args: selections.append(args[-1]) or measure(*args))

        reads = Streams(keys).read(register, op, site, rows, *wires, picked=mask)

        expected = np.full(len(rows), -1)
        expected[mask] = Streams(keys).read(lone, op, site, rows[mask], *wires)
        assert reads.tolist() == expected.tolist()
        assert np.array_equal(register.amps, lone.amps)
        if not mask.any():
            assert selections == []
        elif mask.sum() == register.num_rows:
            assert selections == [None]
        else:
            assert len(selections) == 1 and selections[0].tolist() == rows[mask].tolist()

    def test_indices_are_refused(self):
        amps, op, site, rows, wires, keys = _chunk_layout(3)
        with pytest.raises(TypeError, match="boolean mask"):
            Streams(keys).read(Register(amps.copy()), op, site, rows, *wires, picked=np.arange(len(rows)))

    def test_no_pick_is_measure(self):
        # No mask reads exactly what a mask that picks every entry reads.
        amps, op, site, rows, wires, keys = _chunk_layout(3)
        everything = np.ones(len(rows), dtype=bool)
        reads = Streams(keys).read(Register(amps.copy()), op, site, rows, *wires)
        masked = Streams(keys).read(Register(amps.copy()), op, site, rows, *wires, picked=everything)
        assert reads.tolist() == masked.tolist()


class TestScoreReport:
    TRUTH = GroundTruth(
        L=4,
        secrets={"A": np.array([1, 0, 1, 1]), "B": np.array([0, 0, 0, 0])},
        key=np.array([0, 1, 1, 0]),
        messages={"A": np.array([1, 1, 0, 0]), "B": np.zeros(0, dtype=int)},
    )

    def test_wrong_claims_in_every_array(self):
        # Secret xor K is 1101.  Right/wrong per claimed index:
        # messages 0 right, 1 wrong, 3 right; masked 1 wrong, 2 wrong;
        # secret 0 right, 3 wrong.  3 of 7 claims match.
        report = AttackReport(
            "test",
            "A",
            indicator_bits=np.array([1, 0, -1, 1, 0]),
            message_bits=np.array([1, 0, -1, 0]),
            masked_secret_bits=np.array([-1, 0, 1, -1]),
            secret_bits=np.array([1, -1, -1, 0]),
        )
        score_report(report, self.TRUTH)
        assert report.accuracy == 3 / 7
        assert report.learned_count == 3
        assert report.indicator_events == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_a_loop_over_claimed_indices(self, seed):
        rng = np.random.default_rng(seed)
        L = int(rng.integers(1, 9))
        secret, key, message = (rng.integers(2, size=L) for _ in range(3))
        truth = GroundTruth(L=L, secrets={"A": secret}, key=key, messages={"A": message})
        expected = {
            "message_bits": message.tolist(),
            "masked_secret_bits": [s ^ k for s, k in zip(secret.tolist(), key.tolist())],
            "secret_bits": secret.tolist(),
        }
        arrays = {
            name: np.where(rng.random(L) < 0.6, rng.integers(2, size=L), -1)
            for name in expected
            if rng.random() < 0.7
        }
        report = AttackReport("test", "A", **arrays)
        score_report(report, truth)
        claims = [
            (bit, expected[name][i]) for name, a in arrays.items() for i, bit in enumerate(a.tolist()) if bit >= 0
        ]
        assert report.accuracy == (sum(bit == true for bit, true in claims) / len(claims) if claims else 1.0)
        assert report.learned_count == max((sum(bit >= 0 for bit in a.tolist()) for a in arrays.values()), default=0)

    @pytest.mark.parametrize("claims", [{}, {"masked_secret_bits": np.full(4, -1)}])
    def test_no_claims_score_one(self, claims):
        report = AttackReport("test", "A", **claims)
        score_report(report, self.TRUTH)
        assert report.accuracy == 1.0
        assert report.learned_count == 0
        assert report.indicator_events == 0


class TestDoubleCnotEve:
    @pytest.mark.parametrize("variant", list(BellState))
    def test_ctrl_restoration_is_exact(self, variant):
        # 500 round trips per Bell state, one batch position each: the
        # probe never fires and TP's Bell read never mismatches.
        trips = 500
        streams = Streams([0])
        pairs = PairBatch.prepare([variant.value] * trips)
        eve = DoubleCnotEve("A")
        eve.on_forward(pairs.positions, pairs.register, 0, streams)
        ctrl = np.zeros(trips, dtype=bool)
        participant_respond(ctrl, pairs.register, 0)
        participant_respond(ctrl, pairs.register, 1)
        eve.on_return(pairs.positions, pairs.register, 0, streams)
        report = eve.finalize(PublicRecord(L=trips // 2))
        assert report.indicator_bits.tolist() == [0] * trips
        bell, _, _ = jiang.tp_resolve_positions(pairs, ctrl, ctrl, streams)
        assert (bell != pairs.prepared).tolist() == [False] * trips

    def test_indicator_and_data_read_on_sift(self, rng):
        trials = 3000
        m = rng.integers(2, size=trials)
        streams = Streams([1])
        pairs = PairBatch.prepare([BellState.PHI_PLUS.value] * trials)
        eve = DoubleCnotEve("A")
        eve.on_forward(pairs.positions, pairs.register, 0, streams)
        participant_respond(np.ones(trials, dtype=bool), pairs.register, 0, m)
        eve.on_return(pairs.positions, pairs.register, 0, streams)
        report = eve.finalize(PublicRecord(L=trials // 2))
        fired = (report.indicator_bits == 1).nonzero()[0]
        # a fired probe reads the bit exactly, and an unfired one reads nothing
        assert report.intercepted_bits.tolist() == np.where(report.indicator_bits == 1, m, -1).tolist()
        # and the read does not disturb the resent eigenstate on A's channel
        assert np.array_equal(pairs.register.measure_z(0, rng, np.array(fired)), m[fired])
        assert abs(len(fired) / trials - 0.5) < 4 * np.sqrt(0.25 / trials)

    def test_session_report_decodes_masked_secret(self, rng):
        config = SessionConfig(L=32)
        secret_a, secret_b, key = (rng.integers(2, size=32) for _ in range(3))
        _, outcome, reports = run_session(config, secret_a, secret_b, key, [DoubleCnotEve("A")], seed=1)
        report = reports[0]
        assert report.detected is False
        assert report.accuracy == 1.0
        # every learned message index decodes to Secret xor K
        claimed = report.masked_secret_bits >= 0
        assert np.array_equal(report.masked_secret_bits[claimed], np.bitwise_xor(secret_a, key)[claimed])
        assert np.array_equal(report.message_bits >= 0, claimed)

    def test_abort_rate_zero_over_sessions(self, rng):
        config = SessionConfig(L=8)
        for seed in range(100):
            s = rng.integers(2, size=8)
            _, outcome, reports = run_session(config, s, s, rng.integers(2, size=8), [DoubleCnotEve("A")], seed=seed)
            assert not outcome.is_aborted
            assert reports[0].detected is False

    def test_targets_bob_channel_symmetrically(self, rng):
        config = SessionConfig(L=16)
        secret_a, secret_b, key = (rng.integers(2, size=16) for _ in range(3))
        _, _, reports = run_session(config, secret_a, secret_b, key, [DoubleCnotEve("B")], seed=1)
        report = reports[0]
        assert report.target == "B"
        claimed = report.masked_secret_bits >= 0
        assert np.array_equal(report.masked_secret_bits[claimed], np.bitwise_xor(secret_b, key)[claimed])

    def test_reused_tap_reports_as_a_fresh_tap(self):
        # One tap across sessions reports on each what a fresh tap does,
        # and a session that aborts for too few SIFT positions claims
        # nothing.
        eve = DoubleCnotEve("A")
        config = SessionConfig(L=2, mode_policy=INDEPENDENT_COIN)
        aborted = 0
        for seed in range(10):
            (_, outcome, (report,)), (_, _, (fresh,)) = (
                run_session(config, bits("01"), bits("11"), bits("10"), [tap], seed=seed)
                for tap in (eve, DoubleCnotEve("A"))
            )
            assert_reports_equal(report, fresh)
            if outcome.abort_reason == INSUFFICIENT_SIFT:
                aborted += 1
                assert_claims_nothing(report)
        assert aborted > 0

    def test_midflight_on_base_protocol_is_loud_but_total(self):
        # Reading the probe mid-flight collapses the pair: the declared SIFT
        # message decodes completely, and CTRL/CTRL checks start failing.
        config = SessionConfig(L=16)
        rng = np.random.default_rng(17)
        detected = 0
        trials = 60
        for seed in range(trials):
            secret_a, secret_b, key = (rng.integers(2, size=16) for _ in range(3))
            _, outcome, reports = run_session(
                config, secret_a, secret_b, key, [DoubleCnotEve("A", midflight=True)], seed=seed
            )
            report = reports[0]
            detected += outcome.attacker_detected
            assert np.count_nonzero(report.message_bits >= 0) == 16
            assert report.accuracy == 1.0
        # each CTRL/CTRL position mismatches with probability 1/2, so with
        # ~8 such positions per session detection is near certain
        assert detected / trials > 0.9


class TestMaliciousAgent:
    def test_steals_exact_bits_silently(self, rng):
        config = SessionConfig(L=32)
        for seed in range(40):
            secret_a, secret_b, key = (rng.integers(2, size=32) for _ in range(3))
            _, outcome, reports = run_session(
                config, secret_a, secret_b, key, [MaliciousAgent(victim="A", key=key)], seed=seed
            )
            report = reports[0]
            assert not outcome.is_aborted
            assert report.detected is False
            assert report.accuracy == 1.0
            claimed = report.secret_bits >= 0
            assert np.array_equal(report.secret_bits[claimed], np.asarray(secret_a)[claimed])

    def test_outcome_survives_interception(self, rng):
        # measure-and-resend of Z eigenstates is invisible to TP's reads
        config = SessionConfig(L=8)
        for seed in range(60):
            secret_a = rng.integers(2, size=8)
            secret_b = rng.integers(2, size=8)
            key = rng.integers(2, size=8)
            _, outcome, _ = run_session(
                config, secret_a, secret_b, key, [MaliciousAgent(victim="A", key=key)], seed=seed
            )
            expected = ComparisonOutcome.equal() if np.array_equal(secret_a, secret_b) else ComparisonOutcome.not_equal(
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
        for seed in range(3000):
            secret_a, secret_b, key = (rng.integers(2, size=2) for _ in range(3))
            _, _, reports = run_session(
                config, secret_a, secret_b, key, [MaliciousAgent(victim="A", key=key)], seed=seed
            )
            fractions.append(np.count_nonzero(reports[0].secret_bits >= 0) / 2)
        assert abs(np.mean(fractions) - exact) < 0.02

    def test_victim_ctrl_positions_contribute_nothing(self, rng):
        config = SessionConfig(L=8)
        secret_a, secret_b, key = (rng.integers(2, size=8) for _ in range(3))
        transcript, _, reports = run_session(
            config, secret_a, secret_b, key, [MaliciousAgent(victim="A", key=key)], seed=1
        )
        report = reports[0]
        message_positions = set(transcript.message_positions["A"])
        claimed_positions = set(transcript.message_positions["A"][report.secret_bits >= 0].tolist())
        assert claimed_positions <= (set(report.probed_positions) & message_positions)


class TestBlocking:
    def test_x_outcomes_carry_no_information(self):
        # Outcome distribution is uniform whatever the Z bit: sample both.
        # 4000 returned qubits per Z bit, one batch position each.
        counts = {0: [0, 0], 1: [0, 0]}
        positions = np.arange(4000)
        for z_bit in (0, 1):
            streams = Streams([z_bit])
            tap = BlockingAttacker("A")
            tap.begin_session(len(positions), streams)
            reg = Register(prepare_z(np.full(len(positions), z_bit)))
            tap.on_return(positions, reg, 0, streams)
            reads = tap.finalize(PublicRecord(L=1)).intercepted_bits
            for read in reads[reads >= 0].tolist():
                counts[z_bit][read] += 1
        for z_bit in (0, 1):
            frac = counts[z_bit][0] / 4000
            assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / 4000)

    def test_report_claims_nothing(self, rng):
        config = SessionConfig(L=4)
        secret = rng.integers(2, size=4)
        # library-level: blocking CAN run on the base protocol
        _, _, reports = run_session(config, secret, secret, rng.integers(2, size=4), [BlockingAttacker("A")], seed=1)
        report = reports[0]
        assert report.learned_count == 0
        assert report.accuracy == 1.0


class TestInterceptResend:
    def test_learns_nothing_useful_and_gets_caught(self):
        config = SessionConfig(L=16)
        rng = np.random.default_rng(31)
        detected = 0
        trials = 80
        for seed in range(trials):
            secret = rng.integers(2, size=16)
            _, outcome, reports = run_session(
                config, secret, secret, rng.integers(2, size=16), [InterceptResendZ("A")], seed=seed
            )
            report = reports[0]
            assert report.learned_count == 0
            detected += outcome.attacker_detected
        # ~8 CTRL/CTRL positions, each mismatching with probability 1/2
        assert detected / trials > 0.9


class TestTapsReusedAcrossChunks:
    """A tap kept for a second chunk reports on it what a fresh tap does,
    none of the first chunk's reads: the harness builds fresh taps for
    every chunk, so only a caller that reuses them reaches this."""

    KEYS = np.array([[1], [0]])
    CASES = {
        # L=1 under the coin policy: seeds whose first two-trial chunk
        # runs and whose second aborts for too few SIFT positions.
        "jiang": (
            jiang.run_sessions,
            lambda keys: [DoubleCnotEve("A"), MaliciousAgent("A", keys, 1), InterceptResendZ("B")],
            6,
        ),
        "improved": (
            improved.run_improved_sessions,
            lambda keys: [DoubleCnotEve("A"), BlockingAttacker("B")],
            9,
        ),
    }

    @pytest.mark.parametrize("protocol", CASES)
    def test_a_chunk_that_aborts_claims_nothing(self, protocol):
        run, make_taps, seed = self.CASES[protocol]
        config = SessionConfig(L=1, mode_policy=INDEPENDENT_COIN)
        taps = make_taps(self.KEYS)

        def chunk(first_trial, taps):
            streams = Streams.seeded(seed, range(first_trial, first_trial + 2))
            return run(config, [[0], [1]], [[1], [1]], self.KEYS, taps, streams=streams)

        ran, aborted, fresh = chunk(0, taps), chunk(2, taps), chunk(2, make_taps(self.KEYS))
        assert all(outcome.abort_reason != INSUFFICIENT_SIFT for _, outcome, _ in ran)
        assert all(any(len(r.probed_positions) for r in reports) for _, _, reports in ran)
        assert all(outcome.abort_reason == INSUFFICIENT_SIFT for _, outcome, _ in aborted)
        for (_, _, reports), (_, _, expected) in zip(aborted, fresh):
            assert len(reports) == len(taps)
            for report, fresh_report in zip(reports, expected):
                assert_reports_equal(report, fresh_report)
                assert_claims_nothing(report)


class TestShortTrialsRunTheQuantumPhase:
    """Under the coin policy a participant learns that it has too few SIFT
    positions only once every qubit has passed, so a trial that aborts
    for it still makes every transit: its taps read its whole channel,
    as their policy says, and TP reads none of it."""

    CASES = {"jiang": (jiang.run_sessions, 2), "improved": (improved.run_improved_sessions, 4)}  # positions at L=1
    TP_READS = {"jiang": ("bell_outcomes", "tp_bits"), "improved": ("x_results", "tp_r")}
    TAPS = {
        "double-cnot": lambda keys: DoubleCnotEve("A"),
        "double-cnot-midflight": lambda keys: DoubleCnotEve("A", midflight=True),
        "malicious-agent": lambda keys: MaliciousAgent("A", keys),
        "malicious-agent-count": lambda keys: MaliciousAgent("A", keys, intercept_count=1),
        "blocking": lambda keys: BlockingAttacker("A"),
        "blocking-count": lambda keys: BlockingAttacker("A", attack_count=1),
        "intercept-resend-z": lambda keys: InterceptResendZ("A"),
    }

    @pytest.mark.parametrize("kind", TAPS)
    @pytest.mark.parametrize("protocol", CASES)
    def test_short_trials_tap_their_whole_channel(self, protocol, kind):
        run, positions = self.CASES[protocol]
        trials = 8
        keys = np.zeros((trials, 1), dtype=np.intp)
        streams = Streams.seeded(3, range(trials))
        config = SessionConfig(L=1, mode_policy=INDEPENDENT_COIN)
        sessions = run(config, keys, keys, keys, [self.TAPS[kind](keys)], streams=streams)
        short = [(t, r) for t, outcome, (r,) in sessions if outcome.abort_reason == INSUFFICIENT_SIFT]
        assert short
        for transcript, report in short:
            assert all(getattr(transcript, name) is None for name in self.TP_READS[protocol])
            read = report.intercepted_bits >= 0
            assert len(read) == positions
            if kind.startswith("double-cnot"):
                assert np.array_equal(report.probed_positions, np.arange(positions))
                assert np.all(report.indicator_bits >= 0)
            expected = {
                "double-cnot": report.indicator_bits == 1,  # the data qubit where the probe fired
                "malicious-agent": transcript.modes["B"],  # the agent's own SIFT positions
            }.get(kind, np.ones(positions, dtype=bool))
            if kind.endswith("-count"):
                assert np.count_nonzero(read) == 1  # one drawn position
            else:
                assert np.array_equal(read, expected)
            assert_claims_nothing(report)


class TestTapTargets:
    """A tap on a participant with no channel is refused before any tap
    hook runs."""

    @pytest.mark.parametrize("run", [run_session, run_improved_session])
    def test_a_tap_on_no_channel_is_refused(self, run):
        calls = []

        class Witness(ChannelTap):
            def begin_session(self, num_positions, rng):
                calls.append("begin_session")

            def on_forward(self, rows, register, wire, rng):
                calls.append("on_forward")

        witness = Witness("A")
        calls.clear()  # the constructor begins an empty session
        with pytest.raises(ValueError, match="double-cnot on 'C'"):
            run(SessionConfig(L=2), bits("01"), bits("11"), bits("10"), [witness, DoubleCnotEve("C")], seed=1)
        assert calls == []


class TestAttackCount:
    """A tap built directly with an attack count outside the channel's
    positions is refused before it reads anything."""

    CASES = {
        # A channel's positions at L=2: 8 in the improved protocol, 4 in jiang.
        "blocking": (run_improved_session, lambda key, count: BlockingAttacker("A", attack_count=count), 8),
        "malicious-agent": (run_session, lambda key, count: MaliciousAgent("A", key, intercept_count=count), 4),
    }

    def run(self, attack, count):
        run, make_tap, _ = self.CASES[attack]
        key = bits("10")
        return run(SessionConfig(L=2), bits("01"), bits("11"), key, [make_tap(key, count)], seed=5)

    @pytest.mark.parametrize("offset", [-2, -1, 1, 42])
    @pytest.mark.parametrize("attack", CASES)
    def test_out_of_range_count_is_refused(self, attack, offset):
        positions = self.CASES[attack][2]
        count = offset if offset < 0 else positions + offset
        with pytest.raises(ValueError, match=rf"\[0, {positions}\].* got {count}$"):
            self.run(attack, count)

    @pytest.mark.parametrize("attack", CASES)
    def test_reads_exactly_count_positions(self, attack):
        for count in range(self.CASES[attack][2] + 1):
            _, _, (report,) = self.run(attack, count)
            assert np.count_nonzero(report.intercepted_bits >= 0) == count
