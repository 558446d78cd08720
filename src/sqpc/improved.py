"""The hardened single-photon comparison protocol (the "improved" scenario).

Instead of Bell pairs, TP prepares 8L single photons in random X-basis
states and sends 4L to each participant.  SIFT becomes measure-resend in
the Z basis: the participant sends back the measured photon itself, now
the Z eigenstate of its outcome, and the measured bit joins the
participant's R string (now 2L bits) and never carries a message
directly.  CTRL still reflects.  TP X-checks every reflected photon
against what it prepared, Z-reads every SIFT return, and then each
participant publishes a random half of their R
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

As in :mod:`sqpc.jiang`, sessions run in chunks of trials
(:func:`run_improved_sessions`; :func:`run_improved_session` is a chunk
of one) and all 8L photons of every trial in a chunk live in one batched
register (see :mod:`sqpc.kernel`): trial t takes rows 8Lt..8Lt+8L-1,
participant A's 4L positions first and B's after, so position p of B in
trial t is row 8Lt + 4L + p.  Every photon travels both ways on wire 0,
so an honest session's register has one qubit per row; only a tap that
adjoins qubits (an ancilla, a resend of its own) widens it.  Each
protocol step is one kernel call over both channels of every live
trial: SIFT measure-resend, TP's X checks and TP's Z reads are each one
:meth:`sqpc.attacks.Streams.measure` call in blocks of one channel,
which draws from each trial's own stream what the step would draw for
A's rows then B's.  Each participant's
modes are one boolean SIFT mask over their 4L positions (True = SIFT);
the participants' own measure-resend reads, TP's X reads and TP's Z
reads are arrays over the rows, -1 where nothing was read, and each
trial's transcript holds its own slice.  Taps, disclosures and the
public record see positions within a channel; disclosures, comparison
and decoding loop over the trials.

Sessions take :class:`sqpc.jiang.SessionConfig`, derive this protocol's
counts from L where they are used, and run on
:func:`sqpc.jiang.drive_session` with this protocol's own steps;
:func:`decode_claims` decodes tap reads of its R carriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attacks import AttackReport, ChannelTap, GroundTruth, PublicRecord, Streams, read_dict
from .jiang import (
    DISCLOSURE_MISMATCH,
    EAVESDROPPER_DETECTED,
    PARTICIPANTS,
    Bits,
    ComparisonOutcome,
    SessionConfig,
    check_lengths,
    derive_message,
    draw_modes,
    drive_session,
    tp_compare,
)
from .kernel import Register, prepare_x


@dataclass
class PhotonBatch:
    """Photons as one batched register, row r = photon r.

    The rows split into channels of ``channel_size`` rows each, one per
    participant in ``PARTICIPANTS`` order, and a chunk's trials lay their
    channel pairs end to end.  ``wire`` and ``return_wire``
    are the per-row wires as delivered and as TP receives them: a
    measure-resend sends the measured photon back on its own wire, so
    they differ only where a tap substituted a qubit of its own;
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

    def trial(self, rows: slice) -> "PhotonBatch":
        """The photons of one trial of a chunk, ``rows``, as a batch of
        their own; it shares the chunk's register, so its row r is
        register row ``rows.start + r``.  The batch itself when that is all
        of it."""
        if rows.stop - rows.start == len(self.prepared_sign):
            return self

        def part(values):
            return None if values is None else values[rows]

        return PhotonBatch(
            self.prepared_sign[rows],
            self.register,
            self.wire[rows],
            self.channel_size,
            part(self.return_wire),
            part(self.sift_bit),
        )

    def measure(self, op: str, selected: np.ndarray, wires: np.ndarray, rng) -> np.ndarray:
        """Register measurement ``op`` of the ``selected`` rows (a mask) on
        their entries of the per-row ``wires``: one
        :meth:`Streams.measure` call, in blocks of one channel.  Returns
        the reads at every row, -1 at the rows not selected."""
        reads = np.full(len(selected), -1, dtype=np.intp)
        rows = selected.nonzero()[0]
        reads[rows] = Streams.of(rng).measure(self.register, op, rows, wires[rows], block=self.channel_size)
        return reads


@dataclass(frozen=True)
class CheckDisclosure:
    """A participant's published half of R: positions and measured values."""

    positions: tuple[int, ...]
    values: tuple[int, ...]


@dataclass
class ImprovedTranscript:
    """Everything TP sees, plus the session's photons.

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


def tp_prepare_photons(config: SessionConfig, rng) -> PhotonBatch:
    """8L photons per trial of a chunk (``rng``: its :class:`Streams`, or
    one session's generator) in uniformly random |+>/|-> states in one
    batched register; in each trial's rows the first 4L are for
    participant A and the rest for B."""
    signs = np.concatenate([gen.integers(0, 2, size=8 * config.L) for gen in Streams.of(rng).gens])
    return PhotonBatch.prepare(signs, 4 * config.L)


def sift_measure_resend(photons: PhotonBatch, sift: np.ndarray, rng) -> np.ndarray:
    """Z-measure the incoming photon at every SIFT row (``sift`` is a mask
    over the rows), recording the outcome in ``photons.sift_bit``, and
    send the measured photon back: it is now exactly the Z eigenstate of
    its outcome, a product with every other qubit, so it is the state a
    fresh qubit carrying the outcome would be.  CTRL rows reflect.  Every
    photon returns on the wire it arrived on: returns ``photons.wire``."""
    photons.sift_bit = photons.measure("measure_z", sift, photons.wire, rng)
    return photons.wire


def tp_check_ctrl_x(photons: PhotonBatch, ctrl: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """X-measure every reflected photon (True in ``ctrl``, a mask over the
    rows) and compare with the prepared sign.

    Returns each trial's mismatch count (one trial's streams: an array of
    one) and the sign read at each row, -1 where nothing was measured.
    """
    signs = photons.measure("measure_x", ctrl, photons.return_wire, rng)
    mismatched = (signs >= 0) & (signs != photons.prepared_sign)
    return np.count_nonzero(mismatched.reshape(len(Streams.of(rng).gens), -1), axis=1), signs


def tp_read_sift(photons: PhotonBatch, sift: np.ndarray, rng) -> np.ndarray:
    """TP's Z-reads of every SIFT return (True in ``sift``, a mask over the
    rows), -1 at the other rows."""
    return photons.measure("measure_z", sift, photons.return_wire, rng)


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
    picked = rng.permutation(len(positions))[:count]
    picked.sort()
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


def x_mismatch_rate(transcript: ImprovedTranscript, report: AttackReport) -> float | None:
    """Mismatch rate of TP's X checks over the positions ``report``
    probed, counting only those TP X-checked; ``None`` when there are
    none, or TP never measured."""
    if transcript.x_results is None:
        return None
    channel = transcript.photons.channel(report.target)
    probed = np.asarray(report.probed_positions, dtype=np.intp)
    signs = transcript.x_results[channel][probed]
    checked = signs >= 0
    attacked = int(np.count_nonzero(checked))
    if not attacked:
        return None
    prepared = transcript.photons.prepared_sign[channel][probed]
    return int(np.count_nonzero(checked & (signs != prepared))) / attacked


def _tp_finish(
    transcript: ImprovedTranscript,
    published: PublicRecord,
    truth: GroundTruth,
    sift_bit: np.ndarray,
    rng: np.random.Generator,
) -> ComparisonOutcome:
    """One live trial's classical steps once TP has measured everything:
    the X check, the disclosures and their check, the published messages
    and the comparison.  ``sift_bit`` holds the participants' own reads
    over the trial's rows."""
    L = transcript.config.L
    published.modes = transcript.modes
    if (
        transcript.ctrl_position_count > 0
        and transcript.x_mismatch_count / transcript.ctrl_position_count > transcript.config.error_threshold
    ):
        return ComparisonOutcome.aborted(EAVESDROPPER_DETECTED)

    channel = {p: transcript.photons.channel(p) for p in PARTICIPANTS}
    own_r = {p: sift_bit[channel[p]] for p in PARTICIPANTS}
    tp_r = {p: transcript.tp_r[channel[p]] for p in PARTICIPANTS}
    r_positions = transcript.r_positions
    disclosures = {p: disclose_half_r(r_positions[p], own_r[p][r_positions[p]], rng, count=L) for p in PARTICIPANTS}
    transcript.disclosures = published.disclosures = disclosures
    disclosure_mismatches = sum(tp_verify_disclosure(disclosures[p], tp_r[p]) for p in PARTICIPANTS)
    transcript.disclosure_mismatch_count = disclosure_mismatches
    disclosed_total = sum(len(disclosures[p].positions) for p in PARTICIPANTS)

    if disclosed_total > 0 and disclosure_mismatches / disclosed_total > transcript.config.error_threshold:
        return ComparisonOutcome.aborted(DISCLOSURE_MISMATCH)

    masks_tp: dict[str, Bits] = {}
    published_m: dict[str, Bits] = {}
    for participant in PARTICIPANTS:
        masks = mask_positions(transcript.modes[participant], L, disclosures[participant])
        masks_tp[participant] = tp_r[participant][masks].tolist()
        published_m[participant] = derive_message(
            truth.secrets[participant], own_r[participant][masks].tolist(), truth.key
        )
    transcript.tp_masks = masks_tp
    transcript.published_m = truth.messages = published.messages = published_m

    outcome, transcript.m_t = tp_compare(published_m["A"], published_m["B"], masks_tp["A"], masks_tp["B"])
    return outcome


def run_improved_sessions(
    config: SessionConfig,
    secrets_a: Sequence[Sequence[int]],
    secrets_b: Sequence[Sequence[int]],
    keys: Sequence[Sequence[int]],
    taps: Sequence[ChannelTap] = (),
    *,
    rng,
) -> list[tuple[ImprovedTranscript, ComparisonOutcome, list[AttackReport]]]:
    """Run one improved-protocol session per trial of a chunk; same
    driver contract as :func:`sqpc.jiang.run_sessions` (one stream per
    trial, taps on both transits of every live trial in one call each,
    declarations visible to taps only at finalize)."""
    streams = Streams.of(rng)
    L = config.L
    check_lengths(L, streams, secrets_a, secrets_b, keys)
    size = 8 * L

    # Each participant gets 4L photons and SIFTs 2L of them, the R
    # carriers; L of those are disclosed and L left as the message mask.
    photons = tp_prepare_photons(config, streams)
    modes = [{p: draw_modes(4 * L, 2 * L, config.mode_policy, gen) for p in PARTICIPANTS} for gen in streams.gens]
    sift = {p: np.array([trial[p] for trial in modes]) for p in PARTICIPANTS}
    sift_rows = np.concatenate([sift[p] for p in PARTICIPANTS], axis=1).ravel()

    transcripts, truths = [], []
    for trial, (secret_a, secret_b, key) in enumerate(zip(secrets_a, secrets_b, keys)):
        positions = {p: modes[trial][p].nonzero()[0] for p in PARTICIPANTS}
        transcripts.append(
            ImprovedTranscript(
                config=config,
                photons=photons,
                modes=modes[trial],
                sift_positions=positions,
                r_positions={p: positions[p][: 2 * L] for p in PARTICIPANTS},
            )
        )
        secrets = {"A": list(secret_a), "B": list(secret_b)}
        truths.append(GroundTruth(L=L, secrets=secrets, key=list(key), messages={"A": [], "B": []}))

    def respond(live: np.ndarray) -> np.ndarray:
        photons.return_wire = sift_measure_resend(photons, sift_rows & live.repeat(size), streams)
        return photons.return_wire

    def tp_steps(live: np.ndarray, published: list[PublicRecord]) -> list[ComparisonOutcome]:
        # Receipt confirmed; modes are now declared.  TP measures
        # everything, then each trial runs the two integrity checks in
        # order.
        live_rows = live.repeat(size)
        ctrl_rows = ~sift_rows & live_rows
        mismatches, x_results = tp_check_ctrl_x(photons, ctrl_rows, streams)
        ctrl_counts = np.count_nonzero(ctrl_rows.reshape(-1, size), axis=1)
        tp_r = tp_read_sift(photons, sift_rows & live_rows, streams)
        outcomes = []
        for trial in live.nonzero()[0].tolist():
            rows = slice(trial * size, (trial + 1) * size)
            transcript = transcripts[trial]
            transcript.x_results = x_results[rows]
            transcript.x_mismatch_count = int(mismatches[trial])
            transcript.ctrl_position_count = int(ctrl_counts[trial])
            transcript.tp_r = tp_r[rows]
            outcomes.append(
                _tp_finish(transcript, published[trial], truths[trial], photons.sift_bit[rows], streams.gens[trial])
            )
        return outcomes

    rows = np.arange(len(photons.prepared_sign)).reshape(-1, len(PARTICIPANTS), 4 * L)
    channels = {p: (rows[:, i], ...) for i, p in enumerate(PARTICIPANTS)}
    outcomes, reports = drive_session(
        taps, sift, 2 * L, channels, photons.register, photons.wire, respond, tp_steps, decode_claims, truths, streams
    )
    for trial, (transcript, outcome) in enumerate(zip(transcripts, outcomes)):
        transcript.photons = photons.trial(slice(trial * size, (trial + 1) * size))
        transcript.outcome = outcome
    return list(zip(transcripts, outcomes, reports))


def run_improved_session(
    config: SessionConfig,
    secret_a: Sequence[int],
    secret_b: Sequence[int],
    key: Sequence[int],
    taps: Sequence[ChannelTap] = (),
    *,
    rng: np.random.Generator,
) -> tuple[ImprovedTranscript, ComparisonOutcome, list[AttackReport]]:
    """Run one improved-protocol session, a chunk of one trial (see
    :func:`run_improved_sessions`); same driver contract as
    :func:`sqpc.jiang.run_session`."""
    return run_improved_sessions(config, [secret_a], [secret_b], [key], taps, rng=rng)[0]
