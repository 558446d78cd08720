"""Improved protocol tests: photon plumbing, checks, immunity claims."""

import numpy as np
import pytest

from sqpc.attacks import BlockingAttacker, DoubleCnotEve, MaliciousAgent, PublicRecord, Streams
from sqpc.harness import SCENARIO_TABLE
from sqpc.improved import (
    CheckDisclosure,
    PhotonBatch,
    disclose_half_r,
    run_improved_session,
    sift_measure_resend,
    tp_check_ctrl_x,
    tp_prepare_photons,
    tp_verify_disclosure,
)
from sqpc.jiang import (
    DISCLOSURE_MISMATCH,
    ComparisonOutcome,
    SessionConfig,
)
from sqpc.kernel import PLUS, prepare_x


def bits(text):
    return np.array([int(c) for c in text])

def probe_reads(eve):
    """The double C-NOT probe's per-position reads, as its report publishes them."""
    return eve.finalize(PublicRecord(L=1)).indicator_bits


class TestPreparation:
    def test_counts_per_participant(self):
        photons = tp_prepare_photons(SessionConfig(L=1), Streams([0]))
        assert len(photons.prepared_sign[photons.channel("A")]) == 4
        assert len(photons.prepared_sign[photons.channel("B")]) == 4

    def test_sign_frequency(self):
        photons = tp_prepare_photons(SessionConfig(L=1250), Streams([0]))
        signs = photons.prepared_sign
        assert abs(np.mean(signs) - 0.5) < 0.015

    def test_prepared_states_are_x_eigenstates(self, rng):
        photons = tp_prepare_photons(SessionConfig(L=2), Streams([0]))
        assert np.array_equal(photons.register.measure_x(0, rng), photons.prepared_sign)

class TestSiftMeasureResend:
    def test_r_bit_uniform_on_plus_input(self):
        # 4000 SIFTed |+> photons, one batch position each.
        trials = 4000
        photons = PhotonBatch.prepare([PLUS] * trials)
        sift_measure_resend(photons, np.ones(trials, dtype=bool), Streams([0]))
        ones = int(photons.sift_bit.sum())
        assert abs(ones / trials - 0.5) < 4 * np.sqrt(0.25 / trials)

    def test_resent_qubit_carries_the_bit(self, rng):
        photons = PhotonBatch.prepare([PLUS] * 50)
        sift_measure_resend(photons, np.ones(50, dtype=bool), Streams([0]))
        assert np.array_equal(photons.register.measure_z(0, rng), photons.sift_bit)

    def test_resend_is_the_measured_photon_in_place(self, rng):
        signs = rng.integers(2, size=64)
        sift = rng.integers(2, size=64).astype(bool)
        photons = PhotonBatch.prepare(signs)
        sift_measure_resend(photons, sift, Streams([0]))
        assert photons.register.n == 1
        # The other Z block of a measured photon is exactly zero, and its
        # own block carries the whole norm; CTRL rows are left as prepared.
        rows = sift.nonzero()[0]
        assert np.all(photons.register.amps[1 - photons.sift_bit[rows], rows] == 0.0)
        assert np.allclose(np.abs(photons.register.amps[photons.sift_bit[rows], rows]), 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(photons.register.amps[:, ~sift], prepare_x(signs[~sift]))

    @pytest.mark.parametrize(
        "make_taps",
        [
            lambda key: [],
            lambda key: [BlockingAttacker("A")],
            lambda key: [BlockingAttacker("B", attack_count=3)],
            # The malicious agent sends on the photon it measured.
            lambda key: [MaliciousAgent(victim="A", key=key)],
            lambda key: [MaliciousAgent(victim="B", key=key, intercept_count=5)],
        ],
        ids=["taps0", "taps1", "taps2", "taps3", "taps4"],
    )
    def test_register_keeps_one_qubit_per_photon(self, rng, make_taps):
        config = SessionConfig(L=3)
        secret, key = rng.integers(2, size=3), rng.integers(2, size=3)
        transcript, _, _ = run_improved_session(config, secret, secret, key, make_taps(key), seed=1)
        assert transcript.photons.register.n == 1

    @pytest.mark.parametrize(
        "make_tap",
        [
            lambda key: DoubleCnotEve("A"),
            lambda key: DoubleCnotEve("B"),
            lambda key: DoubleCnotEve("A", midflight=True),
        ],
    )
    def test_a_tap_adjoins_exactly_one_qubit(self, rng, make_tap):
        # One qubit per photon, plus the double C-NOT ancilla, the only
        # qubit any tap adjoins.
        config = SessionConfig(L=3)
        secret, key = rng.integers(2, size=3), rng.integers(2, size=3)
        transcript, _, _ = run_improved_session(config, secret, secret, key, [make_tap(key)], seed=1)
        assert transcript.photons.register.n == 2

    def test_tp_reads_what_the_participant_read_where_no_tap_was(self, rng):
        config = SessionConfig(L=4)
        for seed in range(20):
            secret = rng.integers(2, size=4)
            tap = BlockingAttacker("A", attack_count=5)
            transcript, _, reports = run_improved_session(config, secret, secret, rng.integers(2, size=4), [tap], seed=seed)
            photons = transcript.photons
            untouched = np.ones(len(photons.prepared_sign), dtype=bool)
            untouched[photons.channel("A")][reports[0].probed_positions] = False
            sift = (photons.sift_bit >= 0) & untouched
            assert np.count_nonzero(sift) >= 8
            assert np.array_equal(transcript.tp_r[sift], photons.sift_bit[sift])

    def test_wire_map_holds_the_agent_resends(self, rng):
        config = SessionConfig(L=3)
        secret, key = rng.integers(2, size=3), rng.integers(2, size=3)
        agent = MaliciousAgent(victim="B", key=key, intercept_count=5)
        transcript, _, (report,) = run_improved_session(config, secret, secret, key, [agent], seed=1)
        photons = transcript.photons
        resent = np.zeros(len(photons.prepared_sign), dtype=bool)
        resent[photons.channel("B")][report.probed_positions] = True
        assert np.count_nonzero(resent) == 5
        # Every photon comes back on wire 0, the agent's resends too: they
        # are the photons it measured, and TP Z-reads what it read.
        assert photons.register.n == 1
        read_by_both = resent & (transcript.tp_r >= 0)
        assert read_by_both.any()
        reads = report.payload_reads[read_by_both[photons.channel("B")]]
        assert transcript.tp_r[read_by_both].tolist() == reads.tolist()

class TestCtrlCheck:
    def test_honest_ctrl_always_matches(self):
        config = SessionConfig(L=4)
        streams = Streams([0])
        photons = tp_prepare_photons(config, streams)
        ctrl = np.ones(32, dtype=bool)
        mismatches, signs = tp_check_ctrl_x(photons, ctrl, streams)
        assert mismatches == 0
        assert all(np.count_nonzero(signs[photons.channel(p)] >= 0) == 16 for p in ("A", "B"))

    def test_z_measured_transit_flips_half_the_time(self, rng):
        # Oracle: |<-+|0>|^2 = |<-+|1>|^2 = 1/2 on either collapse branch.
        trials = 4000
        signs = rng.integers(2, size=trials)
        photons = PhotonBatch.prepare(signs)
        photons.register.measure_z(0, rng)  # adversarial Z read in transit
        mismatches = int((photons.register.measure_x(0, rng) != signs).sum())
        assert abs(mismatches / trials - 0.5) < 4 * np.sqrt(0.25 / trials)

    def test_double_cnot_roundtrip_keeps_x_state(self, rng):
        # Probe CNOT pairs leave reflected |+/-> photons untouched: enumerate
        # both signs.
        photons = PhotonBatch.prepare([0, 1])
        eve = DoubleCnotEve("A")
        streams = Streams([0])
        eve.on_forward(photons.rows, photons.register, 0, streams)
        eve.on_return(photons.rows, photons.register, 0, streams)
        assert probe_reads(eve).tolist() == [0, 0]
        assert photons.register.measure_x(0, rng).tolist() == [0, 1]

class TestDisclosure:
    def test_half_of_positions_disclosed(self, rng):
        positions = np.array([1, 4, 5, 9])
        disclosure = disclose_half_r(positions, bits("0110"), rng.permutation(4))
        assert len(disclosure.positions) == 2
        assert set(disclosure.positions.tolist()) <= set(positions.tolist())

    def test_values_align_with_positions(self, rng):
        positions = np.array([2, 3, 7, 8])
        r_bits = bits("1011")
        disclosure = disclose_half_r(positions, r_bits, rng.permutation(4))
        lookup = dict(zip(positions.tolist(), r_bits.tolist()))
        for pos, value in zip(disclosure.positions.tolist(), disclosure.values.tolist()):
            assert value == lookup[pos]

    def test_verify_counts_mismatches(self):
        disclosure = CheckDisclosure(positions=np.array([1, 3]), values=bits("01"))
        # TP's reads over positions 0..3, -1 where it read nothing.
        assert tp_verify_disclosure(disclosure, np.array([-1, 0, -1, 1])) == 0
        assert tp_verify_disclosure(disclosure, np.array([-1, 1, -1, 1])) == 1
        assert tp_verify_disclosure(disclosure, np.array([-1, 1, -1, 0])) == 2

class TestHonestSessions:
    def test_equal_and_not_equal(self, rng):
        config = SessionConfig(L=4)
        for trial in range(150):
            secret_a = rng.integers(2, size=4)
            secret_b = secret_a.copy() if trial % 2 == 0 else rng.integers(2, size=4)
            key = rng.integers(2, size=4)
            transcript, outcome, _ = run_improved_session(config, secret_a, secret_b, key, seed=trial)
            assert not outcome.is_aborted
            if np.array_equal(secret_a, secret_b):
                assert outcome == ComparisonOutcome.equal()
            else:
                first = next(i for i, (a, b) in enumerate(zip(secret_a, secret_b)) if a != b)
                assert outcome == ComparisonOutcome.not_equal(first)

    def test_mask_agreement(self, rng):
        config = SessionConfig(L=6)
        secret_a, secret_b, key = (rng.integers(2, size=6) for _ in range(3))
        transcript, outcome, _ = run_improved_session(config, secret_a, secret_b, key, seed=1)
        for p in ("A", "B"):
            # TP's Z-read agrees with the participant's measure-resend bit at
            # every honest SIFT position.
            own = transcript.photons.channel(p)
            tp_r = transcript.tp_r[own]
            read = tp_r >= 0
            assert np.array_equal(tp_r[read], transcript.photons.sift_bit[own][read])
            assert len(transcript.tp_masks[p]) == 6
        # masks cancel: published messages decode against TP masks
        published_m, tp_masks = transcript.published_m, transcript.tp_masks
        m_t_full = published_m["A"] ^ published_m["B"] ^ tp_masks["A"] ^ tp_masks["B"]
        assert np.array_equal(m_t_full, secret_a ^ secret_b)

    def test_transcript_structure(self, rng):
        config = SessionConfig(L=3)
        secret = rng.integers(2, size=3)
        transcript, _, _ = run_improved_session(config, secret, secret, rng.integers(2, size=3), seed=1)
        for p in ("A", "B"):
            assert len(transcript.sift_positions[p]) == 6
            assert len(transcript.r_positions[p]) == 6
            assert len(transcript.disclosures[p].positions) == 3
            assert np.count_nonzero(transcript.x_results[transcript.photons.channel(p)] >= 0) == 6
        assert transcript.ctrl_position_count == 12
        assert transcript.x_mismatch_count == 0
        assert transcript.disclosure_mismatch_count == 0

    def test_coin_policy_sessions(self):
        from sqpc.jiang import INDEPENDENT_COIN, INSUFFICIENT_SIFT

        config = SessionConfig(L=2, mode_policy=INDEPENDENT_COIN)
        secret_a, secret_b = bits("10"), bits("11")
        completed = aborted = 0
        for seed in range(150):
            _, outcome, _ = run_improved_session(
                config, secret_a, secret_b, bits("01"), seed=seed
            )
            if outcome.is_aborted:
                aborted += 1
                assert outcome.abort_reason == INSUFFICIENT_SIFT
            else:
                completed += 1
                assert outcome == ComparisonOutcome.not_equal(1)
        assert completed > 0 and aborted > 0

    def test_deterministic_given_seed(self):
        config = SessionConfig(L=4)
        secret_a, secret_b, key = bits("1011"), bits("1001"), bits("0110")

        def run():
            transcript, outcome, _ = run_improved_session(config, secret_a, secret_b, key, seed=123)
            return (
                {p: mask.tolist() for p, mask in transcript.modes.items()},
                transcript.tp_r.tolist(),
                {p: (d.positions.tolist(), d.values.tolist()) for p, d in transcript.disclosures.items()},
                {p: m.tolist() for p, m in transcript.published_m.items()},
                outcome,
            )

        assert run() == run()

class TestImmunity:
    def test_double_cnot_probe_never_fires(self, rng):
        config = SessionConfig(L=4)
        for seed in range(60):
            secret = rng.integers(2, size=4)
            _, outcome, reports = run_improved_session(
                config, secret, secret, rng.integers(2, size=4), [DoubleCnotEve("A")], seed=seed
            )
            report = reports[0]
            assert not outcome.is_aborted
            assert report.indicator_events == 0
            assert report.learned_count == 0

    def test_double_cnot_exact_by_enumeration(self):
        # For each prepared sign and each measured r bit the probe returns
        # to |0> with certainty: run the pipeline and assert the probe read
        # is 0 every time (the only randomness is the r draw itself).
        # 40 photons of each sign, one batch position each.
        photons = PhotonBatch.prepare([0] * 40 + [1] * 40)
        eve = DoubleCnotEve("A")
        streams = Streams([0])
        eve.on_forward(photons.rows, photons.register, 0, streams)
        sift_measure_resend(photons, np.ones(80, dtype=bool), streams)
        eve.on_return(photons.rows, photons.register, 0, streams)
        assert probe_reads(eve).tolist() == [0] * 80

    def test_midflight_triggers_x_mismatches(self, rng):
        config = SessionConfig(L=4)
        mismatches = 0
        ctrl_attacked = 0
        for seed in range(150):
            secret = rng.integers(2, size=4)
            transcript, outcome, _ = run_improved_session(
                config, secret, secret, rng.integers(2, size=4), [DoubleCnotEve("A", midflight=True)], seed=seed
            )
            own = transcript.photons.channel("A")
            signs = transcript.x_results[own]
            checked = signs >= 0
            mismatches += int(np.count_nonzero(checked & (signs != transcript.photons.prepared_sign[own])))
            ctrl_attacked += int(np.count_nonzero(checked))
        rate = mismatches / ctrl_attacked
        assert abs(rate - 0.5) < 4 * np.sqrt(0.25 / ctrl_attacked)

    def test_blocking_detected_with_expected_odds(self):
        # Full blocking corrupts every disclosed bit candidate; detection is
        # 1 - (1/2)^L.  At L=1 enumerate: single disclosed bit flips with
        # probability exactly 1/2.
        rng = np.random.default_rng(7)
        detected = 0
        trials = 2000
        config = SessionConfig(L=1)
        for seed in range(trials):
            secret = rng.integers(2, size=1)
            _, outcome, _ = run_improved_session(
                config, secret, secret, rng.integers(2, size=1), [BlockingAttacker("A")], seed=seed
            )
            if outcome.is_aborted:
                assert outcome.abort_reason == DISCLOSURE_MISMATCH
                detected += 1
        assert abs(detected / trials - 0.5) < 4 * np.sqrt(0.25 / trials)

    def test_threshold_knob_tolerates_mismatches(self, rng):
        # With the abort threshold maxed out the session always completes,
        # but blocking has corrupted TP's mask bits, so comparisons go wrong.
        config = SessionConfig(L=8, error_threshold=1.0)
        wrong = 0
        for seed in range(40):
            secret = rng.integers(2, size=8)
            _, outcome, _ = run_improved_session(
                config, secret, list(secret), rng.integers(2, size=8), [BlockingAttacker("A")], seed=seed
            )
            assert not outcome.is_aborted
            wrong += outcome != ComparisonOutcome.equal()
        assert wrong > 0

    def test_blocking_never_trips_the_x_check(self, rng):
        config = SessionConfig(L=3)
        for seed in range(50):
            secret = rng.integers(2, size=3)
            transcript, outcome, _ = run_improved_session(
                config, secret, secret, rng.integers(2, size=3), [BlockingAttacker("A")], seed=seed
            )
            assert transcript.x_mismatch_count == 0
            if outcome.is_aborted:
                assert outcome.abort_reason == DISCLOSURE_MISMATCH

    def test_malicious_agent_caught_via_ctrl_hits(self):
        # Z-measuring every victim return hits all 2L CTRL photons, each
        # tripping the X check with probability 1/2.
        rng = np.random.default_rng(13)
        config = SessionConfig(L=4)
        detected = 0
        trials = 300
        for seed in range(trials):
            secret_a, secret_b, key = (rng.integers(2, size=4) for _ in range(3))
            _, outcome, _ = run_improved_session(
                config, secret_a, secret_b, key,
                [MaliciousAgent(victim="A", key=key, intercept_count=16)], seed=seed,
            )
            detected += outcome.attacker_detected
        # undetected probability is E[(1/2)^{#CTRL hit}] = (1/2)^8 here
        assert detected / trials > 0.98

    def test_surviving_malicious_agent_decodes_true_bits(self):
        config = SessionConfig(L=2)
        rng = np.random.default_rng(29)
        survived_with_claims = 0
        for seed in range(400):
            secret_a, secret_b, key = (rng.integers(2, size=2) for _ in range(3))
            _, outcome, reports = run_improved_session(
                config, secret_a, secret_b, key,
                [MaliciousAgent(victim="A", key=key, intercept_count=3)], seed=seed,
            )
            report = reports[0]
            claimed = report.secret_bits >= 0
            if not outcome.is_aborted and claimed.any():
                survived_with_claims += 1
                assert report.accuracy == 1.0
                assert np.array_equal(report.secret_bits[claimed], np.asarray(secret_a)[claimed])
        assert survived_with_claims > 0

class TestConfigAndEfficiency:
    def test_efficiency_values(self):
        jiang, improved = (SCENARIO_TABLE[name].qubit_efficiency for name in ("jiang", "improved"))
        assert jiang == pytest.approx(0.5)
        assert improved == pytest.approx(0.25)
        assert float(improved / jiang) == pytest.approx(0.5)

    def test_efficiency_is_exact_rational(self):
        from fractions import Fraction

        assert SCENARIO_TABLE["jiang"].qubit_efficiency == Fraction(1, 2)
        assert SCENARIO_TABLE["improved"].qubit_efficiency == Fraction(1, 4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(L=0)
        with pytest.raises(ValueError):
            SessionConfig(L=2, error_threshold=1.5)
        # At L=3: channels of 4L = 12 photons (24 in all), 2L = 6 R
        # carriers per participant, L = 3 of them disclosed.
        secret = bits("101")
        transcript, outcome, _ = run_improved_session(SessionConfig(L=3), secret, secret, bits("011"), seed=1)
        assert not outcome.is_aborted
        assert len(transcript.photons.prepared_sign) == 24
        assert transcript.photons.channel_size == 12
        for participant in ("A", "B"):
            assert len(transcript.modes[participant]) == 12
            assert len(transcript.r_positions[participant]) == 6
            assert len(transcript.disclosures[participant].positions) == 3

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            run_improved_session(SessionConfig(L=3), bits("10"), bits("101"), bits("101"), seed=1)
