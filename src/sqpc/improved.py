"""The hardened single-photon comparison protocol (the "improved" scenario).

Instead of Bell pairs, TP prepares 8L single photons in random X-basis
states and sends 4L to each participant.  SIFT becomes measure-resend in
the Z basis: the participant sends back the measured photon itself, now
the Z eigenstate of its outcome, and the measured bit joins the
participant's R string (now 2L bits) and never carries a message
directly.  CTRL still reflects.  TP X-checks every reflected photon
against what it prepared, Z-reads every SIFT return, and then each
participant publishes a random half of their R (positions and values)
so TP can catch an attacker who corrupted the returned classical data.
Each of the two checks aborts the session by the one rule
:meth:`sqpc.jiang.SessionConfig.exceeds`: its mismatch rate is above the
error threshold.  The surviving half of R becomes the mask: each
participant publishes M_i = Secret_i XOR mask_i XOR K_AB and TP compares
using its OWN Z-reads as the masks, which is what keeps R quantum
protected end to end.  Every bit string (secrets, keys, masks, published
messages, M_T, and a disclosure's positions and values) is a 1-D int
array.

The double C-NOT probe never fires here: a reflected X eigenstate undoes
the first C-NOT, and a measure-resend sends back exactly the bit the
probe got entangled with, so the second C-NOT always returns the probe to
|0>.  Costs: participants need measurement hardware and the qubit
efficiency halves (L compared bits for 4L photons each).

As in :mod:`sqpc.jiang`, sessions run in chunks of trials
(:func:`run_improved_sessions`; :func:`run_improved_session` is a chunk
of one) and all 8L photons of every trial in a chunk live in one batched
register (see :mod:`sqpc.kernel`): trial t takes rows 8Lt..8Lt+8L-1
(``ROWS_PER_BIT``), participant A's 4L positions (``POSITIONS_PER_BIT``)
first and B's after, so position p of B in trial t is row 8Lt + 4L + p.
Both channels are wire 0: every photon travels both ways on it, so an
honest session's register has one qubit per row, and only the double
C-NOT ancilla widens it.  Each protocol step is one kernel call over
both channels of every trial, and every draw one
:class:`sqpc.attacks.Streams` call at a named site: SIFT measure-resend,
TP's X checks and TP's Z reads each call its ``read`` directly on the
photons' rows, a read per row (-1 where nothing was read) keyed by the
row's trial and position, and the photon signs, SIFT masks and
disclosure permutations come a row per trial; each trial's transcript
holds views of its own rows.  Each participant's modes are one boolean
SIFT mask over their 4L positions (True = SIFT).  Taps, disclosures and
the public record see positions within a channel; the classical checks,
comparison and decoding loop over the trials.

Sessions take :class:`sqpc.jiang.SessionConfig`, derive this protocol's
counts from L where they are used, and run on
:func:`sqpc.jiang.drive_session` with this protocol's own steps;
:func:`decode_claims` decodes tap reads of its R carriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attacks import _NOTHING, AttackReport, ChannelTap, GroundTruth, PublicRecord, Streams
from .jiang import (
    DISCLOSURE_MISMATCH,
    EAVESDROPPER_DETECTED,
    PARTICIPANTS,
    ComparisonOutcome,
    SessionConfig,
    check_bits,
    derive_message,
    draw_modes,
    drive_session,
    tp_compare,
)
from .kernel import Register, prepare_x


_X_CHECK_FAILED = ComparisonOutcome.aborted(EAVESDROPPER_DETECTED)

POSITIONS_PER_BIT = 4
ROWS_PER_BIT = len(PARTICIPANTS) * POSITIONS_PER_BIT


@dataclass
class PhotonBatch:
    """Photons as one batched register, row r = photon r.

    The rows split into channels of ``channel_size`` rows each, one per
    participant in ``PARTICIPANTS`` order, and a chunk's trials lay their
    channel pairs end to end.  Every photon is on wire 0, both ways, and
    is read by :meth:`Streams.read` over ``rows``.  ``sift_bit`` holds the
    participant's own measure-resend read at SIFT rows and -1 elsewhere.
    """

    prepared_sign: np.ndarray
    register: Register
    channel_size: int
    sift_bit: np.ndarray | None = None

    @classmethod
    def prepare(cls, signs, channel_size: int | None = None) -> "PhotonBatch":
        """One photon per row in the X eigenstate of the given sign; one
        channel of all rows unless ``channel_size`` is given."""
        signs = np.asarray(signs, dtype=np.intp)
        return cls(signs, Register(prepare_x(signs)), channel_size or len(signs))

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
        sift_bit = None if self.sift_bit is None else self.sift_bit[rows]
        return PhotonBatch(self.prepared_sign[rows], self.register, self.channel_size, sift_bit)


@dataclass(frozen=True, eq=False)
class CheckDisclosure:
    """A participant's published half of R: positions and measured values,
    aligned 1-D int arrays."""

    positions: np.ndarray
    values: np.ndarray


@dataclass
class ImprovedTranscript:
    """Everything TP sees, plus the session's photons.

    ``x_results`` is TP's X read of each reflected photon and ``tp_r`` its
    Z read of each SIFT return, both over the rows of ``photons`` and -1
    where nothing was measured (``None`` when the session aborted before
    TP measured).
    """

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
    tp_masks: dict[str, np.ndarray] | None = None
    published_m: dict[str, np.ndarray] | None = None
    m_t: np.ndarray | None = None


def tp_prepare_photons(config: SessionConfig, streams: Streams) -> PhotonBatch:
    """8L photons per trial of a chunk in uniformly random |+>/|-> states
    in one batched register; in each trial's rows the first 4L are for
    participant A and the rest for B."""
    Streams.check(streams)
    return PhotonBatch.prepare(streams.integers("prepare", 2, ROWS_PER_BIT * config.L).ravel(), POSITIONS_PER_BIT * config.L)


def sift_measure_resend(photons: PhotonBatch, sift: np.ndarray, streams: Streams) -> None:
    """Z-measure the incoming photon at every SIFT row (``sift`` is a mask
    over the rows), recording the outcome in ``photons.sift_bit``, and
    send the measured photon back: it is now exactly the Z eigenstate of
    its outcome, a product with every other qubit, so it is the state a
    fresh qubit carrying the outcome would be.  CTRL rows reflect.  Every
    photon returns on wire 0, where it arrived."""
    photons.sift_bit = streams.read(photons.register, "measure_z", "sift", photons.rows, 0, picked=sift)


def tp_check_ctrl_x(photons: PhotonBatch, ctrl: np.ndarray, streams: Streams) -> tuple[np.ndarray, np.ndarray]:
    """X-measure every reflected photon (True in ``ctrl``, a mask over the
    rows) and compare with the prepared sign.

    Returns each trial's mismatch count and the sign read at each row, -1
    where nothing was measured.
    """
    signs = streams.read(photons.register, "measure_x", "tp_x", photons.rows, 0, picked=ctrl)
    mismatched = (signs >= 0) & (signs != photons.prepared_sign)
    return np.count_nonzero(mismatched.reshape(len(streams), -1), axis=1), signs


def disclose_half_r(positions: np.ndarray, r_bits: np.ndarray, order: np.ndarray) -> CheckDisclosure:
    """Publish half of the R-carrying positions, the ones a uniformly
    random permutation ``order`` of their indices puts first, together
    with the measured bits, both int arrays."""
    if not len(positions) == len(r_bits) == len(order):
        raise ValueError("positions, bits and order must align")
    picked = order[: len(order) // 2].copy()
    picked.sort()
    return CheckDisclosure(positions=positions[picked], values=r_bits[picked])


def tp_verify_disclosure(disclosure: CheckDisclosure, tp_reads: np.ndarray) -> int:
    """Count disagreements between a disclosure and TP's own Z-reads, an
    array over the participant's positions."""
    return int(np.count_nonzero(tp_reads[disclosure.positions] != disclosure.values))


def mask_positions(sift: np.ndarray, L: int, disclosure: CheckDisclosure) -> np.ndarray:
    """The R carriers (the first 2L SIFT positions of the mask ``sift``)
    that ``disclosure`` left out, ascending: the i-th masks message bit i."""
    carriers = sift.nonzero()[0][: 2 * L]
    undisclosed = np.ones(len(sift), dtype=bool)
    undisclosed[disclosure.positions] = False
    return carriers[undisclosed[carriers]]


def decode_claims(report: AttackReport, published: PublicRecord) -> None:
    """A tap's payload read at the target's i-th undisclosed R carrier
    (of the first 2L SIFT positions) is the mask of published message
    bit i; XOR-ing the two gives Secret_i XOR K_i."""
    if report.payload_reads is None or published.messages is None:
        return
    target = report.target
    masks = mask_positions(published.modes[target], published.L, published.disclosures[target])
    reads = report.payload_reads[masks]
    report.masked_secret_bits = np.where(reads >= 0, reads ^ published.messages[target], -1)


def x_mismatch_rate(transcript: ImprovedTranscript, report: AttackReport) -> float | None:
    """Mismatch rate of TP's X checks over the positions ``report``
    probed, counting only those TP X-checked; ``None`` when there are
    none, or TP never measured."""
    if transcript.x_results is None:
        return None
    channel = transcript.photons.channel(report.target)
    signs = transcript.x_results[channel][report.probed_positions]
    checked = signs >= 0
    attacked = int(np.count_nonzero(checked))
    if not attacked:
        return None
    prepared = transcript.photons.prepared_sign[channel][report.probed_positions]
    return int(np.count_nonzero(checked & (signs != prepared))) / attacked


def _tp_finish(
    config: SessionConfig,
    transcript: ImprovedTranscript,
    published: PublicRecord,
    truth: GroundTruth,
    sift_bit: np.ndarray,
    orders: dict[str, np.ndarray],
) -> ComparisonOutcome:
    """One trial's classical steps once TP has measured everything and
    the X check passed: the disclosures, drawn by each participant's
    permutation in ``orders``, their check, the published messages and
    the comparison.  ``sift_bit`` holds the participants' own reads over
    the trial's rows."""
    channel = {p: transcript.photons.channel(p) for p in PARTICIPANTS}
    own_r = {p: sift_bit[channel[p]] for p in PARTICIPANTS}
    tp_r = {p: transcript.tp_r[channel[p]] for p in PARTICIPANTS}
    r_positions = transcript.r_positions
    disclosures = {p: disclose_half_r(r_positions[p], own_r[p][r_positions[p]], orders[p]) for p in PARTICIPANTS}
    transcript.disclosures = published.disclosures = disclosures
    disclosure_mismatches = sum(tp_verify_disclosure(disclosures[p], tp_r[p]) for p in PARTICIPANTS)
    transcript.disclosure_mismatch_count = disclosure_mismatches
    disclosed_total = sum(len(disclosures[p].positions) for p in PARTICIPANTS)

    if config.exceeds(disclosure_mismatches, disclosed_total):
        return ComparisonOutcome.aborted(DISCLOSURE_MISMATCH)

    masks_tp, published_m = {}, {}
    for participant in PARTICIPANTS:
        masks = mask_positions(transcript.modes[participant], config.L, disclosures[participant])
        masks_tp[participant] = tp_r[participant][masks]
        published_m[participant] = derive_message(truth.secrets[participant], own_r[participant][masks], truth.key)
    transcript.tp_masks = masks_tp
    transcript.published_m = truth.messages = published.messages = published_m

    outcome, transcript.m_t = tp_compare(published_m["A"], published_m["B"], masks_tp["A"], masks_tp["B"])
    return outcome


def run_improved_sessions(
    config: SessionConfig,
    secrets_a,
    secrets_b,
    keys,
    taps: Sequence[ChannelTap] = (),
    *,
    streams: Streams,
) -> list[tuple[ImprovedTranscript, ComparisonOutcome, list[AttackReport]]]:
    """Run one improved-protocol session per trial of a chunk; same
    driver contract as :func:`sqpc.jiang.run_sessions` (one stream per
    trial, taps on both transits of every trial in one call each,
    declarations visible to taps only at finalize)."""
    L = config.L
    secrets_a, secrets_b, keys = check_bits(L, len(streams), secrets_a, secrets_b, keys)
    size = ROWS_PER_BIT * L

    # Each participant gets 4L photons and SIFTs 2L of them, the R
    # carriers; L of those are disclosed and L left as the message mask.
    photons = tp_prepare_photons(config, streams)
    sift = {p: draw_modes(POSITIONS_PER_BIT * L, 2 * L, config.mode_policy, streams, "modes_" + p) for p in PARTICIPANTS}
    sift_rows = np.concatenate([sift[p] for p in PARTICIPANTS], axis=1).ravel()

    transcripts, truths = [], []
    for trial, (secret_a, secret_b, key) in enumerate(zip(secrets_a, secrets_b, keys)):
        modes = {p: sift[p][trial] for p in PARTICIPANTS}
        positions = {p: modes[p].nonzero()[0] for p in PARTICIPANTS}
        transcripts.append(
            ImprovedTranscript(
                photons=photons,
                modes=modes,
                sift_positions=positions,
                r_positions={p: positions[p][: 2 * L] for p in PARTICIPANTS},
            )
        )
        secrets = {"A": secret_a, "B": secret_b}
        truths.append(GroundTruth(L=L, secrets=secrets, key=key, messages={"A": _NOTHING, "B": _NOTHING}))

    def respond() -> None:
        sift_measure_resend(photons, sift_rows, streams)

    def tp_steps(live: np.ndarray, published: list[PublicRecord]) -> list[ComparisonOutcome]:
        # Receipt confirmed; modes are now declared.  TP measures
        # everything, then each live trial runs the two integrity checks
        # in order.
        mismatches, x_results = tp_check_ctrl_x(photons, ~sift_rows, streams)
        ctrl_counts = np.count_nonzero(~sift_rows.reshape(-1, size), axis=1)
        tp_r = streams.read(photons.register, "measure_z", "tp_z", photons.rows, 0, picked=sift_rows)
        running = live.nonzero()[0].tolist()
        outcomes = dict.fromkeys(running, _X_CHECK_FAILED)
        checked = []
        for trial in running:
            rows = slice(trial * size, (trial + 1) * size)
            transcript = transcripts[trial]
            transcript.x_results = x_results[rows]
            transcript.x_mismatch_count = int(mismatches[trial])
            transcript.ctrl_position_count = int(ctrl_counts[trial])
            transcript.tp_r = tp_r[rows]
            published[trial].modes = transcript.modes
            if not config.exceeds(transcript.x_mismatch_count, transcript.ctrl_position_count):
                checked.append(trial)
        # Where the X check passed, each participant discloses half of
        # its 2L R carriers.
        orders = {p: streams.permutation("disclose_" + p, 2 * L) for p in PARTICIPANTS}
        for trial in checked:
            sift_bit = photons.sift_bit[trial * size : (trial + 1) * size]
            trial_orders = {p: orders[p][trial] for p in PARTICIPANTS}
            outcomes[trial] = _tp_finish(
                config, transcripts[trial], published[trial], truths[trial], sift_bit, trial_orders
            )
        return list(outcomes.values())

    # Both channels are wire 0, on disjoint rows.
    rows = photons.rows.reshape(-1, len(PARTICIPANTS), photons.channel_size)
    channels = {p: (rows[:, i].ravel(), 0) for i, p in enumerate(PARTICIPANTS)}
    outcomes, reports = drive_session(
        taps, sift, 2 * L, channels, photons.register, respond, tp_steps, decode_claims, truths, streams
    )
    for trial, transcript in enumerate(transcripts):
        transcript.photons = photons.trial(slice(trial * size, (trial + 1) * size))
    return list(zip(transcripts, outcomes, reports))


def run_improved_session(
    config: SessionConfig,
    secret_a,
    secret_b,
    key,
    taps: Sequence[ChannelTap] = (),
    *,
    seed: int,
) -> tuple[ImprovedTranscript, ComparisonOutcome, list[AttackReport]]:
    """Run one improved-protocol session, trial 0 of a chunk seeded with
    ``seed`` (see :func:`run_improved_sessions`); same driver contract as
    :func:`sqpc.jiang.run_session`."""
    streams = Streams.seeded(seed, range(1), ROWS_PER_BIT * config.L)
    return run_improved_sessions(config, [secret_a], [secret_b], [key], taps, streams=streams)[0]
