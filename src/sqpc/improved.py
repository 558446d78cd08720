"""The hardened single-photon comparison protocol (the "improved" scenario).

Instead of Bell pairs, TP prepares 8L single photons in random X-basis
states and sends 4L to each participant.  SIFT becomes measure-resend in
the Z basis: the measured bit joins the participant's R string (now 2L
bits) and never carries a message directly.  CTRL still reflects.  TP
X-checks every reflected photon against what it prepared, Z-reads every
SIFT return, and then each participant publishes a random half of their R
(positions and values) so TP can catch an attacker who corrupted the
returned classical data.  The surviving half of R becomes the mask: each
participant publishes M_i = Secret_i XOR mask_i XOR K_AB and TP compares
using its OWN Z-reads as the masks, which is what keeps R quantum
protected end to end.

The double C-NOT probe never fires here: a reflected X eigenstate undoes
the first C-NOT, and a measure-resend sends back exactly the bit the
probe got entangled with, so the second C-NOT always returns the probe to
|0>.  Costs: participants need measurement hardware and the qubit
efficiency halves (L compared bits for 4L photons each).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .attacks import AttackReport, ChannelTap, GroundTruth, PublicRecord
from .jiang import (
    BALANCED,
    DISCLOSURE_MISMATCH,
    EAVESDROPPER_DETECTED,
    INSUFFICIENT_SIFT,
    MODE_POLICIES,
    PARTICIPANTS,
    Bits,
    ComparisonOutcome,
    Mode,
    _finalize_taps,
    draw_modes,
    sift_mask,
    sift_positions,
    tp_compare,
    xor_bits,
)
from .kernel import Register, prepare_x, prepare_z, wire_groups


@dataclass
class ImprovedConfig:
    """Parameters of one improved-protocol session.

    All counts derive from the secret length: 4L photons per participant,
    2L of them SIFTed (the R carriers), L disclosed for the integrity
    check and L left as the message mask.
    """

    L: int
    error_threshold: float = 0.0
    mode_policy: str = BALANCED
    seed: int = 0

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ValueError(f"error_threshold must lie in [0, 1], got {self.error_threshold}")
        if self.mode_policy not in MODE_POLICIES:
            raise ValueError(f"mode_policy must be one of {MODE_POLICIES}, got {self.mode_policy!r}")

    @property
    def photons_per_participant(self) -> int:
        return 4 * self.L

    @property
    def photons_total(self) -> int:
        return 8 * self.L

    @property
    def sift_count(self) -> int:
        return 2 * self.L

    @property
    def check_count(self) -> int:
        return self.L


@dataclass
class PhotonBatch:
    """One participant's photon stream as one batched register, row p =
    position p.

    ``wire`` and ``return_wire`` are the per-position wires as delivered
    and as TP receives them; ``sift_bit`` holds the participant's own
    measure-resend read at SIFT positions and -1 elsewhere.
    """

    participant: str
    prepared_sign: np.ndarray
    register: Register
    wire: np.ndarray
    return_wire: np.ndarray | None = None
    sift_bit: np.ndarray | None = None

    @classmethod
    def prepare(cls, participant: str, signs) -> "PhotonBatch":
        """One photon per position in the X eigenstate of the given sign."""
        signs = np.asarray(signs, dtype=np.intp)
        return cls(participant, signs, Register(prepare_x(signs)), np.zeros(len(signs), dtype=np.intp))

    @property
    def positions(self) -> np.ndarray:
        return np.arange(len(self.prepared_sign))


@dataclass(frozen=True)
class CheckDisclosure:
    """A participant's published half of R: positions and measured values."""

    positions: tuple[int, ...]
    values: tuple[int, ...]


@dataclass
class ImprovedTranscript:
    config: ImprovedConfig
    records: dict[str, PhotonBatch]
    modes: dict[str, list[Mode]]
    sift_positions: dict[str, list[int]]
    r_positions: dict[str, list[int]]
    x_results: dict[str, dict[int, tuple[int, bool]]] = field(default_factory=dict)
    x_mismatch_count: int = 0
    ctrl_position_count: int = 0
    tp_r: dict[str, dict[int, int]] = field(default_factory=dict)
    disclosures: dict[str, CheckDisclosure] | None = None
    disclosure_mismatch_count: int | None = None
    tp_masks: dict[str, Bits] | None = None
    published_m: dict[str, Bits] | None = None
    m_t: Bits | None = None
    outcome: ComparisonOutcome | None = None


def tp_prepare_photons(config: ImprovedConfig, rng: np.random.Generator) -> dict[str, PhotonBatch]:
    """8L photons in uniformly random |+>/|-> states, the first 4L for
    participant A and the rest for B, one batched register each."""
    per = config.photons_per_participant
    signs = rng.integers(0, 2, size=2 * per)
    return {
        participant: PhotonBatch.prepare(participant, signs[offset : offset + per])
        for offset, participant in zip((0, per), PARTICIPANTS)
    }


def sift_measure_resend(photons: PhotonBatch, modes: Sequence[Mode], rng: np.random.Generator) -> np.ndarray:
    """Z-measure the incoming photon at every SIFT position and resend a
    fresh qubit carrying the outcome, recorded in ``photons.sift_bit``.
    CTRL positions reflect.  Returns the outgoing wire of every position."""
    sift = sift_mask(modes)
    photons.sift_bit = np.full(len(sift), -1, dtype=np.intp)
    if not sift.any():
        return photons.wire
    sifted = np.flatnonzero(sift)
    for (wire,), rows in wire_groups(sifted, photons.wire[sifted]):
        photons.sift_bit[rows] = photons.register.measure_z(wire, rng, rows)
    fresh = photons.register.adjoin(prepare_z(np.where(sift, photons.sift_bit, 0)))
    return np.where(sift, fresh, photons.wire)


def tp_check_ctrl_x(
    records: dict[str, PhotonBatch],
    modes: dict[str, list[Mode]],
    rng: np.random.Generator,
) -> tuple[int, dict[str, dict[int, tuple[int, bool]]]]:
    """X-measure every reflected photon and compare with the prepared sign.

    Returns the total mismatch count and the per-position results, keyed
    by participant then position.
    """
    mismatches = 0
    results: dict[str, dict[int, tuple[int, bool]]] = {}
    for participant in PARTICIPANTS:
        photons = records[participant]
        results[participant] = {}
        ctrl = np.flatnonzero(~sift_mask(modes[participant]))
        for (wire,), rows in wire_groups(ctrl, photons.return_wire[ctrl]):
            signs = photons.register.measure_x(wire, rng, rows)
            mismatch = signs != photons.prepared_sign[rows]
            mismatches += int(mismatch.sum())
            results[participant].update(zip(rows.tolist(), zip(signs.tolist(), mismatch.tolist())))
    return mismatches, results


def tp_read_sift(photons: PhotonBatch, modes: Sequence[Mode], rng: np.random.Generator) -> dict[int, int]:
    """TP's Z-reads of every SIFT return, keyed by position."""
    reads: dict[int, int] = {}
    sifted = np.flatnonzero(sift_mask(modes))
    for (wire,), rows in wire_groups(sifted, photons.return_wire[sifted]):
        reads.update(zip(rows.tolist(), photons.register.measure_z(wire, rng, rows).tolist()))
    return dict(sorted(reads.items()))


def disclose_half_r(
    positions: Sequence[int],
    r_bits: Sequence[int],
    rng: np.random.Generator,
    count: int | None = None,
) -> CheckDisclosure:
    """Publish a uniformly random ``count``-subset (default: half) of the
    R-carrying positions together with the measured bits."""
    if len(positions) != len(r_bits):
        raise ValueError("positions and bits must align")
    if count is None:
        count = len(positions) // 2
    picked = sorted(int(i) for i in rng.permutation(len(positions))[:count])
    return CheckDisclosure(
        positions=tuple(positions[i] for i in picked),
        values=tuple(r_bits[i] for i in picked),
    )


def tp_verify_disclosure(disclosure: CheckDisclosure, tp_reads: dict[int, int]) -> int:
    """Count disagreements between a disclosure and TP's own Z-reads."""
    return sum(
        int(tp_reads[pos] != value) for pos, value in zip(disclosure.positions, disclosure.values)
    )


def derive_improved_message(secret: Sequence[int], mask: Sequence[int], key: Sequence[int]) -> Bits:
    """M = Secret XOR mask XOR K, the mask being the undisclosed R bits in
    ascending position order."""
    return xor_bits(secret, mask, key)


def run_improved_session(
    config: ImprovedConfig,
    secret_a: Sequence[int],
    secret_b: Sequence[int],
    key: Sequence[int],
    taps: Sequence[ChannelTap] = (),
    rng: np.random.Generator | None = None,
) -> tuple[ImprovedTranscript, ComparisonOutcome, list[AttackReport]]:
    """Run one improved-protocol session; same driver contract as
    :func:`sqpc.jiang.run_session` (single rng, taps on both transits,
    declarations visible to taps only at finalize)."""
    L = config.L
    if not len(secret_a) == len(secret_b) == len(key) == L:
        raise ValueError("secrets and key must all have length L")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    records = tp_prepare_photons(config, rng)
    modes = {p: draw_modes(config.photons_per_participant, config.sift_count, config.mode_policy, rng) for p in PARTICIPANTS}
    sift = {p: sift_positions(modes[p]) for p in PARTICIPANTS}
    r_positions = {p: sift[p][: config.sift_count] for p in PARTICIPANTS}

    transcript = ImprovedTranscript(
        config=config,
        records=records,
        modes=modes,
        sift_positions=sift,
        r_positions=r_positions,
    )
    truth = GroundTruth(
        L=L,
        secrets={"A": list(secret_a), "B": list(secret_b)},
        key=list(key),
        messages={"A": [], "B": []},
    )
    secrets = {"A": list(secret_a), "B": list(secret_b)}

    if any(len(sift[p]) < config.sift_count for p in PARTICIPANTS):
        outcome = ComparisonOutcome.aborted(INSUFFICIENT_SIFT)
        transcript.outcome = outcome
        published = PublicRecord(protocol="improved", L=L, announced=outcome.kind)
        return transcript, outcome, _finalize_taps(taps, published, truth, outcome)

    for tap in taps:
        tap.begin_session(config.photons_per_participant, rng)
    for tap in taps:
        if tap.identity in PARTICIPANTS:
            tap.observe_own_modes(modes[tap.identity])

    for participant in PARTICIPANTS:
        photons = records[participant]
        for tap in taps:
            if tap.target == participant:
                photons.wire = tap.on_forward(photons.positions, photons.register, photons.wire, rng)

    for participant in PARTICIPANTS:
        records[participant].return_wire = sift_measure_resend(records[participant], modes[participant], rng)

    for participant in PARTICIPANTS:
        photons = records[participant]
        for tap in taps:
            if tap.target == participant:
                photons.return_wire = tap.on_return(photons.positions, photons.register, photons.return_wire, rng)

    # Receipt confirmed; modes are now declared.  TP measures everything,
    # then runs the two integrity checks in order.
    mismatches, x_results = tp_check_ctrl_x(records, modes, rng)
    transcript.x_results = x_results
    transcript.x_mismatch_count = mismatches
    transcript.ctrl_position_count = sum(
        len(modes[p]) - len(sift[p]) for p in PARTICIPANTS
    )
    for participant in PARTICIPANTS:
        transcript.tp_r[participant] = tp_read_sift(records[participant], modes[participant], rng)

    if transcript.ctrl_position_count > 0 and mismatches / transcript.ctrl_position_count > config.error_threshold:
        outcome = ComparisonOutcome.aborted(EAVESDROPPER_DETECTED)
        transcript.outcome = outcome
        published = PublicRecord(protocol="improved", L=L, modes=modes, announced=outcome.kind)
        return transcript, outcome, _finalize_taps(taps, published, truth, outcome)

    disclosures = {}
    for participant in PARTICIPANTS:
        bits = records[participant].sift_bit[r_positions[participant]].tolist()
        disclosures[participant] = disclose_half_r(
            r_positions[participant], bits, rng, count=config.check_count
        )
    transcript.disclosures = disclosures
    disclosure_mismatches = sum(
        tp_verify_disclosure(disclosures[p], transcript.tp_r[p]) for p in PARTICIPANTS
    )
    transcript.disclosure_mismatch_count = disclosure_mismatches
    disclosed_total = sum(len(disclosures[p].positions) for p in PARTICIPANTS)

    if disclosed_total > 0 and disclosure_mismatches / disclosed_total > config.error_threshold:
        outcome = ComparisonOutcome.aborted(DISCLOSURE_MISMATCH)
        transcript.outcome = outcome
        published = PublicRecord(
            protocol="improved", L=L, modes=modes, disclosures=disclosures, announced=outcome.kind
        )
        return transcript, outcome, _finalize_taps(taps, published, truth, outcome)

    masks_own: dict[str, Bits] = {}
    masks_tp: dict[str, Bits] = {}
    published_m: dict[str, Bits] = {}
    for participant in PARTICIPANTS:
        disclosed = set(disclosures[participant].positions)
        mask_positions = [pos for pos in r_positions[participant] if pos not in disclosed]
        masks_own[participant] = records[participant].sift_bit[mask_positions].tolist()
        masks_tp[participant] = [transcript.tp_r[participant][pos] for pos in mask_positions]
        published_m[participant] = derive_improved_message(
            secrets[participant], masks_own[participant], key
        )
    transcript.tp_masks = masks_tp
    transcript.published_m = published_m
    truth.messages = published_m

    outcome, m_t = tp_compare(published_m["A"], published_m["B"], masks_tp["A"], masks_tp["B"])
    transcript.m_t = m_t
    transcript.outcome = outcome
    published = PublicRecord(
        protocol="improved",
        L=L,
        modes=modes,
        disclosures=disclosures,
        messages=published_m,
        announced=outcome.kind,
    )
    return transcript, outcome, _finalize_taps(taps, published, truth, outcome)


def qubit_efficiency(protocol: str) -> Fraction:
    """Compared secret bits per photon delivered to one participant."""
    if protocol == "jiang":
        return Fraction(1, 2)
    if protocol == "improved":
        return Fraction(1, 4)
    raise ValueError(f"unknown protocol {protocol!r}")
