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

All 8L photons live in one batched register (see :mod:`sqpc.kernel`):
participant A's 4L positions are rows 0..4L-1 and B's are rows
4L..8L-1, so position p of B is row 4L + p.  Each protocol step is one
kernel call over both channels: SIFT measure-resend, TP's X checks and
TP's Z reads each measure their rows in (channel, wire, row) order, which
draws what the step would draw for A's rows then B's.  As in
:mod:`sqpc.jiang`, each participant's modes are one boolean SIFT mask
over their 4L positions (True = SIFT); the participants' own
measure-resend reads, TP's X reads and TP's Z reads are arrays over the
rows, -1 where nothing was read.  Taps, disclosures and the public record
see positions within a channel.

Sessions take :class:`sqpc.jiang.SessionConfig`, derive this protocol's
counts from L where they are used, and run on
:func:`sqpc.jiang.drive_session` with this protocol's own steps;
:func:`decode_claims` decodes tap reads of its R carriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attacks import AttackReport, ChannelTap, GroundTruth, PublicRecord, read_dict
from .jiang import (
    DISCLOSURE_MISMATCH,
    EAVESDROPPER_DETECTED,
    PARTICIPANTS,
    Bits,
    ComparisonOutcome,
    SessionConfig,
    draw_modes,
    drive_session,
    tp_compare,
    xor_bits,
)
from .kernel import Register, prepare_x, prepare_z, sort_rows


@dataclass
class PhotonBatch:
    """Photons as one batched register, row r = photon r.

    The rows split into channels of ``channel_size`` rows each, one per
    participant in ``PARTICIPANTS`` order.  ``wire`` and ``return_wire``
    are the per-row wires as delivered and as TP receives them;
    ``sift_bit`` holds the participant's own measure-resend read at SIFT
    rows and -1 elsewhere.
    """

    prepared_sign: np.ndarray
    register: Register
    wire: np.ndarray
    channel_size: int
    return_wire: np.ndarray | None = None
    sift_bit: np.ndarray | None = None

    @classmethod
    def prepare(cls, signs, channel_size: int | None = None) -> "PhotonBatch":
        """One photon per row in the X eigenstate of the given sign; one
        channel of all rows unless ``channel_size`` is given."""
        signs = np.asarray(signs, dtype=np.intp)
        wire = np.zeros(len(signs), dtype=np.intp)
        return cls(signs, Register(prepare_x(signs)), wire, channel_size or len(signs))

    @property
    def rows(self) -> np.ndarray:
        return np.arange(len(self.prepared_sign))

    def channel(self, participant: str) -> slice:
        """The rows of ``participant``'s positions."""
        start = PARTICIPANTS.index(participant) * self.channel_size
        return slice(start, start + self.channel_size)

    def by_channel_and_wire(self, selected: np.ndarray, wires: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``selected`` rows (a mask) and their entries of the per-row
        ``wires``, in (channel, wire, row) order: one measurement over them
        draws what one call per channel and wire would."""
        rows = selected.nonzero()[0]
        rows, _, wires = sort_rows(rows, rows // self.channel_size, wires[rows])
        return rows, wires


@dataclass(frozen=True)
class CheckDisclosure:
    """A participant's published half of R: positions and measured values."""

    positions: tuple[int, ...]
    values: tuple[int, ...]


@dataclass
class ImprovedTranscript:
    """Everything TP sees, plus the session's photon register.

    ``x_results`` is TP's X read of each reflected photon and ``tp_r`` its
    Z read of each SIFT return, both over the rows of ``photons`` and -1
    where nothing was measured (``None`` when the session aborted before
    TP measured).
    """

    config: SessionConfig
    photons: PhotonBatch
    modes: dict[str, np.ndarray]  # participant -> SIFT mask
    sift_positions: dict[str, np.ndarray]
    r_positions: dict[str, np.ndarray]
    x_results: np.ndarray | None = None
    x_mismatch_count: int = 0
    ctrl_position_count: int = 0
    tp_r: np.ndarray | None = None
    disclosures: dict[str, CheckDisclosure] | None = None
    disclosure_mismatch_count: int | None = None
    tp_masks: dict[str, Bits] | None = None
    published_m: dict[str, Bits] | None = None
    m_t: Bits | None = None
    outcome: ComparisonOutcome | None = None


def tp_prepare_photons(config: SessionConfig, rng: np.random.Generator) -> PhotonBatch:
    """8L photons in uniformly random |+>/|-> states in one batched
    register, the first 4L for participant A and the rest for B."""
    signs = rng.integers(0, 2, size=8 * config.L)
    return PhotonBatch.prepare(signs, 4 * config.L)


def sift_measure_resend(photons: PhotonBatch, sift: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Z-measure the incoming photon at every SIFT row (``sift`` is a mask
    over the rows) and resend a fresh qubit carrying the outcome, recorded
    in ``photons.sift_bit``.  CTRL rows reflect.  Returns the outgoing wire
    of every row."""
    photons.sift_bit = np.full(len(sift), -1, dtype=np.intp)
    if not sift.any():
        return photons.wire
    rows, wires = photons.by_channel_and_wire(sift, photons.wire)
    photons.sift_bit[rows] = photons.register.measure_z(wires, rng, rows)
    fresh = photons.register.adjoin(prepare_z(np.where(sift, photons.sift_bit, 0)))
    return np.where(sift, fresh, photons.wire)


def tp_check_ctrl_x(photons: PhotonBatch, ctrl: np.ndarray, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """X-measure every reflected photon (True in ``ctrl``, a mask over the
    rows) and compare with the prepared sign.

    Returns the mismatch count and the sign read at each row, -1 where
    nothing was measured.
    """
    signs = np.full(len(ctrl), -1, dtype=np.intp)
    rows, wires = photons.by_channel_and_wire(ctrl, photons.return_wire)
    signs[rows] = photons.register.measure_x(wires, rng, rows)
    return int(np.count_nonzero(signs[rows] != photons.prepared_sign[rows])), signs


def tp_read_sift(photons: PhotonBatch, sift: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """TP's Z-reads of every SIFT return (True in ``sift``, a mask over the
    rows), -1 at the other rows."""
    reads = np.full(len(sift), -1, dtype=np.intp)
    rows, wires = photons.by_channel_and_wire(sift, photons.return_wire)
    reads[rows] = photons.register.measure_z(wires, rng, rows)
    return reads


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
    picked = np.sort(rng.permutation(len(positions))[:count])
    return CheckDisclosure(
        positions=tuple(np.asarray(positions)[picked].tolist()),
        values=tuple(np.asarray(r_bits)[picked].tolist()),
    )


def tp_verify_disclosure(disclosure: CheckDisclosure, tp_reads: np.ndarray) -> int:
    """Count disagreements between a disclosure and TP's own Z-reads, an
    array over the participant's positions."""
    read = tp_reads[np.asarray(disclosure.positions, dtype=np.intp)]
    return int(np.count_nonzero(read != np.asarray(disclosure.values, dtype=np.intp)))


def mask_positions(sift: np.ndarray, L: int, disclosure: CheckDisclosure) -> np.ndarray:
    """The R carriers (the first 2L SIFT positions of the mask ``sift``)
    that ``disclosure`` left out, ascending: the i-th masks message bit i."""
    carriers = sift.nonzero()[0][: 2 * L]
    undisclosed = np.ones(len(sift), dtype=bool)
    undisclosed[list(disclosure.positions)] = False
    return carriers[undisclosed[carriers]]


def derive_improved_message(secret: Sequence[int], mask: Sequence[int], key: Sequence[int]) -> Bits:
    """M = Secret XOR mask XOR K, the mask being the undisclosed R bits in
    ascending position order."""
    return xor_bits(secret, mask, key)


def decode_claims(report: AttackReport, published: PublicRecord) -> None:
    """A tap's payload read at the target's i-th undisclosed R carrier
    (of the first 2L SIFT positions) is the mask of published message
    bit i; XOR-ing the two gives Secret_i XOR K_i."""
    if report.payload_reads is None or published.messages is None:
        return
    target = report.target
    masks = mask_positions(published.modes[target], published.L, published.disclosures[target])
    message = published.messages[target]
    reads = read_dict(report.payload_reads[masks])
    report.masked_secret_bits = {idx: message[idx] ^ bit for idx, bit in reads.items()}


def run_improved_session(
    config: SessionConfig,
    secret_a: Sequence[int],
    secret_b: Sequence[int],
    key: Sequence[int],
    taps: Sequence[ChannelTap] = (),
    *,
    rng: np.random.Generator,
) -> tuple[ImprovedTranscript, ComparisonOutcome, list[AttackReport]]:
    """Run one improved-protocol session; same driver contract as
    :func:`sqpc.jiang.run_session` (single rng, taps on both transits,
    declarations visible to taps only at finalize)."""
    L = config.L
    if not len(secret_a) == len(secret_b) == len(key) == L:
        raise ValueError("secrets and key must all have length L")

    # Each participant gets 4L photons and SIFTs 2L of them, the R
    # carriers; L of those are disclosed and L left as the message mask.
    photons = tp_prepare_photons(config, rng)
    modes = {p: draw_modes(4 * L, 2 * L, config.mode_policy, rng) for p in PARTICIPANTS}
    sift = {p: modes[p].nonzero()[0] for p in PARTICIPANTS}
    r_positions = {p: sift[p][: 2 * L] for p in PARTICIPANTS}

    transcript = ImprovedTranscript(
        config=config,
        photons=photons,
        modes=modes,
        sift_positions=sift,
        r_positions=r_positions,
    )
    secrets = {"A": list(secret_a), "B": list(secret_b)}
    truth = GroundTruth(L=L, secrets=secrets, key=list(key), messages={"A": [], "B": []})
    channel = {p: photons.channel(p) for p in PARTICIPANTS}
    sift_rows = np.concatenate([modes[p] for p in PARTICIPANTS])

    def respond() -> np.ndarray:
        photons.return_wire = sift_measure_resend(photons, sift_rows, rng)
        return photons.return_wire

    def tp_steps(published: PublicRecord) -> ComparisonOutcome:
        # Receipt confirmed; modes are now declared.  TP measures
        # everything, then runs the two integrity checks in order.
        published.modes = modes
        ctrl_rows = ~sift_rows
        mismatches, transcript.x_results = tp_check_ctrl_x(photons, ctrl_rows, rng)
        transcript.x_mismatch_count = mismatches
        transcript.ctrl_position_count = int(np.count_nonzero(ctrl_rows))
        transcript.tp_r = tp_read_sift(photons, sift_rows, rng)
        own_r = {p: photons.sift_bit[channel[p]] for p in PARTICIPANTS}
        tp_r = {p: transcript.tp_r[channel[p]] for p in PARTICIPANTS}

        if transcript.ctrl_position_count > 0 and mismatches / transcript.ctrl_position_count > config.error_threshold:
            return ComparisonOutcome.aborted(EAVESDROPPER_DETECTED)

        disclosures = {
            p: disclose_half_r(r_positions[p], own_r[p][r_positions[p]], rng, count=L)
            for p in PARTICIPANTS
        }
        transcript.disclosures = published.disclosures = disclosures
        disclosure_mismatches = sum(tp_verify_disclosure(disclosures[p], tp_r[p]) for p in PARTICIPANTS)
        transcript.disclosure_mismatch_count = disclosure_mismatches
        disclosed_total = sum(len(disclosures[p].positions) for p in PARTICIPANTS)

        if disclosed_total > 0 and disclosure_mismatches / disclosed_total > config.error_threshold:
            return ComparisonOutcome.aborted(DISCLOSURE_MISMATCH)

        masks_tp: dict[str, Bits] = {}
        published_m: dict[str, Bits] = {}
        for participant in PARTICIPANTS:
            masks = mask_positions(modes[participant], L, disclosures[participant])
            masks_tp[participant] = tp_r[participant][masks].tolist()
            published_m[participant] = derive_improved_message(
                secrets[participant], own_r[participant][masks].tolist(), key
            )
        transcript.tp_masks = masks_tp
        transcript.published_m = truth.messages = published.messages = published_m

        outcome, transcript.m_t = tp_compare(published_m["A"], published_m["B"], masks_tp["A"], masks_tp["B"])
        return outcome

    channels = {p: (photons.rows[channel[p]], channel[p]) for p in PARTICIPANTS}
    transcript.outcome, reports = drive_session(
        taps, modes, 2 * L, channels, photons.register, photons.wire, respond, tp_steps, decode_claims, truth, rng
    )
    return transcript, transcript.outcome, reports

