"""Actor state machines and session driver for the Bell-state comparison
protocol (the "jiang" scenario).

One session compares two L-bit secrets through a semi-honest third party
(TP).  TP prepares 2L Bell pairs and sends one half of each to Alice and
one to Bob.  Each participant either reflects a received qubit (CTRL) or
keeps it unmeasured and sends back a fresh Z-basis qubit encoding one bit
of M_i = Secret_i XOR R_i XOR K_AB (SIFT).  After all qubits return and
modes are declared, TP Bell-measures CTRL/CTRL positions against what it
prepared, Z-reads every SIFT return, and, unless the mismatch rate is
above the error threshold (:meth:`SessionConfig.exceeds`, the abort
rule of every integrity check), the participants publish R_A and R_B so
TP can scan M_A XOR M_B XOR R_A XOR R_B for the first nonzero bit.  Every
bit string (secrets, keys, R, messages, TP's message reads and M_T) is
a 1-D int array from the draw that makes it to the score that reads it.

Each participant's mode choices are one boolean SIFT mask over the 2L
positions (True = SIFT, False = CTRL); the transcript, the public record
and every tap see that mask.  The i-th bit of a participant's message
rides on their i-th SIFT position in ascending position order.  Under the
default balanced policy each participant SIFTs exactly L of the 2L
positions; under the coin policy a SIFT deficit aborts the session and
surplus SIFT positions carry fresh uniformly random filler qubits that the
comparison ignores.

Sessions run in chunks of trials (:func:`run_sessions`; a single
session, :func:`run_session`, is a chunk of one).  All 2L positions
(``POSITIONS_PER_BIT``) of every trial in a chunk live in one register
(see :mod:`sqpc.kernel`), row ``t * 2L + p`` (``ROWS_PER_BIT``) holding
position p of trial t, so each protocol step is a few batch calls rather
than a loop over trials or positions.  Every draw, measurements
included, is one call of the chunk's :class:`sqpc.attacks.Streams` at a
named site, which gives each trial the values of its own key, in any
chunk, and returns a row per trial (R, SIFT masks, filler bits) or per
register row (TP's reads, -1 where nothing was measured); each trial's
transcript holds views of its own rows, keyed by participant.  Every
trial runs the quantum phase, the transits, responses and TP's reads; a
trial whose SIFT count falls short aborts at TP's classical step, as the
participants only learn it once every qubit has passed, and publishes
nothing.  Each channel has one fixed wire, Alice's wire 0 and Bob's
wire 1, from the delivery to TP's reads: a SIFT response swaps its
fresh qubit into the channel's wire (:func:`participant_respond`).  Adversaries are channel taps with one
hook call per transit direction for the chunk; see :mod:`sqpc.attacks`.
Per-trial classical steps (threshold checks, comparison, decoding,
scoring) loop over the trials.

:class:`SessionConfig` parametrizes a session of either protocol and
:func:`drive_session` runs the transit pattern both share; each protocol
supplies its own steps and decodes tap reads itself
(:func:`decode_claims`).  :func:`attack_state_checks` verifies the double
C-NOT state evolutions through this protocol's pair pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernel
from .attacks import (
    AttackReport,
    ChannelTap,
    DoubleCnotEve,
    GroundTruth,
    PublicRecord,
    Streams,
    score_report,
)
from .kernel import BellState, Register, prepare_bell, prepare_z

BALANCED = "balanced"
INDEPENDENT_COIN = "coin"
MODE_POLICIES = (BALANCED, INDEPENDENT_COIN)

PARTICIPANTS = ("A", "B")

EAVESDROPPER_DETECTED = "eavesdropper-detected"
INSUFFICIENT_SIFT = "insufficient-sift"
DISCLOSURE_MISMATCH = "disclosure-mismatch"
_DETECTION_REASONS = (EAVESDROPPER_DETECTED, DISCLOSURE_MISMATCH)


@dataclass(frozen=True)
class ComparisonOutcome:
    """Equal, NotEqual at a first differing index, or Aborted with a reason."""

    kind: str  # "equal" | "not-equal" | "aborted"
    first_diff_index: int | None = None
    abort_reason: str | None = None

    @classmethod
    def equal(cls) -> "ComparisonOutcome":
        return cls("equal")

    @classmethod
    def not_equal(cls, index: int) -> "ComparisonOutcome":
        return cls("not-equal", first_diff_index=index)

    @classmethod
    def aborted(cls, reason: str) -> "ComparisonOutcome":
        return cls("aborted", abort_reason=reason)

    @property
    def is_aborted(self) -> bool:
        return self.kind == "aborted"

    @property
    def attacker_detected(self) -> bool:
        """True when the abort reason corresponds to an integrity check firing."""
        return self.kind == "aborted" and self.abort_reason in _DETECTION_REASONS


_TOO_FEW_SIFT = ComparisonOutcome.aborted(INSUFFICIENT_SIFT)

POSITIONS_PER_BIT = 2
ROWS_PER_BIT = POSITIONS_PER_BIT


def derive_message(secret, r, key) -> np.ndarray:
    """M = Secret XOR R XOR K, bitwise, of bit strings of one length."""
    if not len(secret) == len(r) == len(key):
        raise ValueError(f"length mismatch: {len(secret)}, {len(r)}, {len(key)}")
    return np.bitwise_xor(np.bitwise_xor(secret, r), key)


def first_difference(x: np.ndarray, y) -> ComparisonOutcome:
    """Equal, or NotEqual at the first index where bit strings ``x`` and
    ``y`` differ."""
    differ = (x != y).nonzero()[0]
    return ComparisonOutcome.not_equal(int(differ[0])) if len(differ) else ComparisonOutcome.equal()


@dataclass
class SessionConfig:
    """Parameters of one comparison session, for either protocol.

    Each protocol derives its own counts from the secret length ``L``
    where it uses them.
    """

    L: int
    error_threshold: float = 0.0
    mode_policy: str = BALANCED

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ValueError(f"error_threshold must lie in [0, 1], got {self.error_threshold}")
        if self.mode_policy not in MODE_POLICIES:
            raise ValueError(f"mode_policy must be one of {MODE_POLICIES}, got {self.mode_policy!r}")

    def exceeds(self, mismatches: int, checked: int) -> bool:
        """The abort rule of every integrity check: ``mismatches`` of
        ``checked`` positions is a rate above ``error_threshold``.  A check
        of no positions passes."""
        return checked > 0 and mismatches / checked > self.error_threshold


@dataclass
class PairBatch:
    """Prepared pairs as one batched register, one row per pair: row p =
    position p of a session, or of a chunk's trials laid end to end.

    Wire 0 of every row is Alice's channel and wire 1 Bob's: each carries
    the delivered half until the participant responds, then what goes back
    to TP, and TP measures those two wires.
    """

    prepared: np.ndarray  # BellState value per position
    register: Register

    @classmethod
    def prepare(cls, values) -> "PairBatch":
        """One pair per position, in the Bell states with the given values."""
        return cls(np.asarray(values, dtype=np.intp), Register(prepare_bell(values)))

    @property
    def positions(self) -> np.ndarray:
        return np.arange(len(self.prepared))

    def trial(self, rows: slice) -> "PairBatch":
        """The pairs of one trial of a chunk, ``rows``, as a batch of their
        own; it shares the chunk's register, so position p is register
        row ``rows.start + p``.  The batch itself when that is all of it."""
        if rows.stop - rows.start == len(self.prepared):
            return self
        return PairBatch(self.prepared[rows], self.register)


@dataclass
class SessionTranscript:
    """Everything TP sees, plus the session's pairs.

    Per-participant fields are dicts keyed by participant.  ``modes`` holds
    the SIFT masks.  ``bell_outcomes`` holds the ``BellState`` value TP
    measured at each CTRL/CTRL position and ``tp_bits`` TP's Z-read of
    each SIFT return, all -1 where nothing was measured (and ``None`` when
    the session aborted before TP measured).
    """

    pairs: PairBatch
    modes: dict[str, np.ndarray]
    r: dict[str, np.ndarray]
    sift_positions: dict[str, np.ndarray]
    message_positions: dict[str, np.ndarray]
    bell_outcomes: np.ndarray | None = None
    tp_bits: dict[str, np.ndarray] | None = None
    ctrl_ctrl_positions: np.ndarray | None = None
    bell_mismatch_count: int = 0
    tp_m: dict[str, np.ndarray] | None = None
    m_t: np.ndarray | None = None


def tp_prepare_pairs(config: SessionConfig, streams: Streams) -> PairBatch:
    """Draw 2L uniformly random Bell variants per trial of a chunk into one
    batched register, trial-major (qubit 0 = Alice's half, 1 = Bob's).

    One uniform per pair at the site "prepare", scaled by 4 and
    truncated."""
    Streams.check(streams)
    return PairBatch.prepare(streams.integers("prepare", 4, ROWS_PER_BIT * config.L).ravel())


def draw_modes(num_positions: int, sift_quota: int, policy: str, streams: Streams, site: str) -> np.ndarray:
    """SIFT masks (True = SIFT, False = CTRL) for one participant, drawn at
    ``site``, one row per trial.

    Balanced: a uniformly random arrangement with exactly ``sift_quota``
    SIFT entries, from a permutation.  Coin: an independent fair coin per
    position.
    """
    Streams.check(streams)
    if policy == BALANCED:
        return streams.permutation(site, num_positions) < sift_quota
    if policy == INDEPENDENT_COIN:
        return streams.integers(site, 2, num_positions) == 1
    raise ValueError(f"unknown mode policy {policy!r}")


def participant_respond(sift: np.ndarray, register: Register, wire: int, message_bits=None) -> None:
    """Apply one participant's response at every position of a register,
    whose channel is ``wire``.

    CTRL reflects the incoming qubit untouched.  SIFT keeps the incoming
    qubit in the register unmeasured (the physical "discard") and sends a
    fresh Z-basis qubit carrying that position's entry of
    ``message_bits`` back on the same channel.  The fresh qubit is
    adjoined to every row, idle in |0> at CTRL positions, and swapped into
    ``wire`` at SIFT positions, so the discarded half ends on the adjoined
    wire.  ``sift`` is the participant's SIFT mask over the rows.
    """
    if not sift.any():
        return
    if message_bits is None:
        raise ValueError("SIFT response requires a message bit")
    fresh = register.adjoin(prepare_z(np.where(sift, message_bits, 0)))
    register.swap(wire, fresh, sift.nonzero()[0])


def tp_resolve_positions(
    pairs: PairBatch, sift_a: np.ndarray, sift_b: np.ndarray, streams: Streams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TP's measurements at every row, given both SIFT masks over the rows.

    CTRL/CTRL rows get a Bell measurement on the two channel wires, 0 and
    1.  At any other row TP Z-reads each SIFT return on its channel's wire
    and leaves a reflected half, if any, unmeasured.  One
    :meth:`Streams.read` call per step, each at its own site: the Bell
    measurements, Alice's reads and Bob's.  Returns ``(bell, bits_a,
    bits_b)``: the ``BellState`` value per row and each participant's Z
    bit per row, -1 where that measurement was not made.
    """
    register, rows = pairs.register, pairs.positions
    bell = streams.read(register, "measure_bell", "tp_bell", rows, 0, 1, picked=~(sift_a | sift_b))
    bits_a = streams.read(register, "measure_z", "tp_z_A", rows, 0, picked=sift_a)
    bits_b = streams.read(register, "measure_z", "tp_z_B", rows, 1, picked=sift_b)
    return bell, bits_a, bits_b


def tp_compare(m_a, m_b, r_a, r_b) -> tuple[ComparisonOutcome, np.ndarray]:
    """Scan M_A XOR M_B XOR R_A XOR R_B in ascending index order, stopping
    at the first 1.  Returns the outcome and the prefix up to that 1 (all
    of it when there is none)."""
    if not len(m_a) == len(m_b) == len(r_a) == len(r_b):
        raise ValueError("message and mask lengths differ")
    unmasked_a, unmasked_b = np.bitwise_xor(m_a, r_a), np.bitwise_xor(m_b, r_b)
    outcome = first_difference(unmasked_a, unmasked_b)
    m_t = unmasked_a ^ unmasked_b
    return outcome, m_t if outcome.first_diff_index is None else m_t[: outcome.first_diff_index + 1]


def drive_session(
    taps: Sequence[ChannelTap],
    modes: dict[str, np.ndarray],
    sift_quota: int,
    channels: dict[str, tuple[np.ndarray, int]],
    register: Register,
    respond: Callable[[], None],
    tp_steps: Callable[[np.ndarray, list[PublicRecord]], list[ComparisonOutcome]],
    decode: Callable[[AttackReport, PublicRecord], None],
    truths: Sequence[GroundTruth],
    streams: Streams,
) -> tuple[list[ComparisonOutcome], list[list[AttackReport]]]:
    """Run the transit pattern both protocols share, for a chunk of
    trials, around the protocol's own steps.

    ``modes`` maps each participant to the SIFT masks of the chunk's
    trials, one row per trial.  Every tap begins the chunk, and every
    trial of it runs the quantum phase: each channel's taps get the
    forward transits of all their positions in one call, ``respond()``
    makes the participants' responses, and the return transits follow.
    Then a trial aborts if a participant's SIFT mask holds fewer than
    ``sift_quota`` positions, and ``tp_steps(live, published)`` fills in
    the other, live, trials' public records and returns their outcomes.
    ``channels`` maps each participant to its channel: the ``register``
    rows of its positions, trial-major, and the one wire they all travel
    on, which each of the channel's tap hooks gets.  Last, every trial's
    reports are decoded, scored against its entry of ``truths`` and
    marked detected.  Returns each trial's outcome and reports; raises
    ValueError for a tap on no channel, before any tap hook runs.
    """
    if strays := [f"{tap.attack_name} on {tap.target!r}" for tap in taps if tap.target not in channels]:
        raise ValueError(f"no channel of {tuple(channels)} carries the taps {strays}")
    for tap in taps:
        tap.begin_session(modes[PARTICIPANTS[0]].shape[1], streams)
        if tap.identity in PARTICIPANTS:
            tap.observe_own_modes(modes[tap.identity])
    # Each channel's taps in turn.
    hooked = [
        (tap, rows, wire)
        for participant, (rows, wire) in channels.items()
        for tap in taps
        if tap.target == participant
    ]
    for tap, rows, wire in hooked:
        tap.on_forward(rows, register, wire, streams)
    respond()
    for tap, rows, wire in hooked:
        tap.on_return(rows, register, wire, streams)

    published = [PublicRecord(L=truth.L) for truth in truths]
    outcomes = [_TOO_FEW_SIFT] * len(truths)
    live = np.minimum(*(modes[p].sum(axis=1) for p in PARTICIPANTS)) >= sift_quota
    for trial, outcome in zip(live.nonzero()[0].tolist(), tp_steps(live, published)):
        outcomes[trial] = outcome

    reports = []
    for trial, (outcome, record, truth) in enumerate(zip(outcomes, published, truths)):
        reports.append([])
        for tap in taps:
            report = tap.finalize(record, trial)
            if report is not None:
                decode(report, record)
                masked = report.masked_secret_bits
                if tap.key is not None and len(masked):
                    report.secret_bits = np.where(masked >= 0, masked ^ tap.key[trial], -1)
                score_report(report, truth)
                report.detected = outcome.attacker_detected
                reports[-1].append(report)
    return outcomes, reports


def decode_claims(report: AttackReport, published: PublicRecord) -> None:
    """A tap's payload read at the target's i-th SIFT position is message
    bit i; XOR-ing the published R_i gives Secret_i XOR K_i."""
    if report.payload_reads is None or published.modes is None:
        return
    carriers = published.modes[report.target].nonzero()[0][: published.L]
    reads = report.message_bits = report.payload_reads[carriers]
    if published.r is not None:
        report.masked_secret_bits = np.where(reads >= 0, reads ^ published.r[report.target], -1)


def check_bits(L: int, trials: int, secrets_a, secrets_b, keys) -> np.ndarray:
    """Both participants' secrets and the keys, each (trials, L), as one
    (3, trials, L) int array.  Raises ValueError on any other shape or on
    an entry that is not an int 0 or 1."""
    bits = np.asarray((secrets_a, secrets_b, keys))
    if bits.shape != (3, trials, L):
        raise ValueError(f"secrets and keys must each have shape (trials, L) = {(trials, L)}")
    if bits.dtype.kind not in "iu" or (bits >> 1).any():
        raise ValueError("secrets and keys must hold only int bits, 0 or 1")
    return bits


def run_sessions(
    config: SessionConfig,
    secrets_a,
    secrets_b,
    keys,
    taps: Sequence[ChannelTap] = (),
    *,
    streams: Streams,
) -> list[tuple[SessionTranscript, ComparisonOutcome, list[AttackReport]]]:
    """Run one session per trial of a chunk and return each trial's
    (transcript, outcome, attack reports).

    ``secrets_a``, ``secrets_b`` and ``keys`` are (trials, L) array-likes
    of bits, checked (:func:`check_bits`) before anything is drawn.
    Trial t compares ``secrets_a[t]`` with ``secrets_b[t]`` under
    ``keys[t]`` and draws everything, its taps' measurements included,
    from stream t of ``streams``, so identical inputs give bit-identical
    transcripts, whatever the chunk.  Each tap gets the forward transits
    of every position of the channel it targets, in every trial, in one
    call, then the return transits in another; mode declarations
    become visible to taps only through ``finalize``, after TP has
    everything.
    """
    L = config.L
    secrets_a, secrets_b, keys = check_bits(L, len(streams), secrets_a, secrets_b, keys)
    size = ROWS_PER_BIT * L

    pairs = tp_prepare_pairs(config, streams)
    r = {p: streams.integers("r_" + p, 2, L) for p in PARTICIPANTS}
    sift = {p: draw_modes(POSITIONS_PER_BIT * L, L, config.mode_policy, streams, "modes_" + p) for p in PARTICIPANTS}
    secrets = {"A": secrets_a, "B": secrets_b}
    messages = {p: derive_message(secrets[p], r[p], keys) for p in PARTICIPANTS}

    transcripts, truths = [], []
    for trial, key in enumerate(keys):
        modes = {p: sift[p][trial] for p in PARTICIPANTS}
        positions = {p: modes[p].nonzero()[0] for p in PARTICIPANTS}
        transcripts.append(
            SessionTranscript(
                pairs=pairs,
                modes=modes,
                r={p: r[p][trial] for p in PARTICIPANTS},
                sift_positions=positions,
                message_positions={p: positions[p][:L] for p in PARTICIPANTS},
            )
        )
        trial_secrets, trial_messages = ({p: bits[p][trial] for p in PARTICIPANTS} for bits in (secrets, messages))
        truths.append(GroundTruth(L=L, secrets=trial_secrets, key=key, messages=trial_messages))

    def respond() -> None:
        # The i-th SIFT position, rank i, carries message bit i, surplus
        # SIFT positions under the coin policy carry random filler, and a
        # trial short of SIFT positions sends the bits it has carriers for.
        for wire, participant in enumerate(PARTICIPANTS):
            sifted = sift[participant]
            rank = sifted.cumsum(axis=1) - 1
            carriers = sifted & (rank < L)
            bits = streams.integers("filler_" + participant, 2, size)
            bits[carriers] = messages[participant][carriers.nonzero()[0], rank[carriers]]
            participant_respond(sifted.ravel(), pairs.register, wire, bits.ravel())

    def tp_steps(live: np.ndarray, published: list[PublicRecord]) -> list[ComparisonOutcome]:
        # TP confirms receipt; only now are the mode declarations public.
        bell, bits_a, bits_b = tp_resolve_positions(pairs, sift["A"].ravel(), sift["B"].ravel(), streams)
        outcomes = []
        for trial in live.nonzero()[0].tolist():
            rows = slice(trial * size, (trial + 1) * size)
            transcript, record = transcripts[trial], published[trial]
            transcript.bell_outcomes = trial_bell = bell[rows]
            transcript.tp_bits = tp_bits = {"A": bits_a[rows], "B": bits_b[rows]}
            transcript.ctrl_ctrl_positions = ctrl_ctrl = (trial_bell >= 0).nonzero()[0]
            prepared = pairs.prepared[rows]
            transcript.bell_mismatch_count = int(np.count_nonzero(trial_bell[ctrl_ctrl] != prepared[ctrl_ctrl]))
            transcript.tp_m = tp_m = {p: tp_bits[p][transcript.message_positions[p]] for p in PARTICIPANTS}
            record.modes = transcript.modes

            if config.exceeds(transcript.bell_mismatch_count, len(ctrl_ctrl)):
                outcomes.append(ComparisonOutcome.aborted(EAVESDROPPER_DETECTED))
                continue
            outcome, transcript.m_t = tp_compare(tp_m["A"], tp_m["B"], transcript.r["A"], transcript.r["B"])
            record.r = transcript.r
            outcomes.append(outcome)
        return outcomes

    channels = {p: (pairs.positions, wire) for wire, p in enumerate(PARTICIPANTS)}
    outcomes, reports = drive_session(
        taps, sift, L, channels, pairs.register, respond, tp_steps, decode_claims, truths, streams
    )
    for trial, transcript in enumerate(transcripts):
        transcript.pairs = pairs.trial(slice(trial * size, (trial + 1) * size))
    return list(zip(transcripts, outcomes, reports))


def run_session(
    config: SessionConfig,
    secret_a,
    secret_b,
    key,
    taps: Sequence[ChannelTap] = (),
    *,
    seed: int,
) -> tuple[SessionTranscript, ComparisonOutcome, list[AttackReport]]:
    """Run one full session, trial 0 of a chunk seeded with ``seed`` (see
    :func:`run_sessions`), and return (transcript, outcome, attack
    reports).  ``secret_a``, ``secret_b`` and ``key`` are L bits each.
    Every draw, every tap's included, comes from the key of trial 0 of an
    experiment with that seed (:meth:`Streams.seeded`), so identical
    inputs give bit-identical transcripts.
    """
    streams = Streams.seeded(seed, range(1), ROWS_PER_BIT * config.L)
    return run_sessions(config, [secret_a], [secret_b], [key], taps, streams=streams)[0]


# ---------------------------------------------------------------------------
# Exact-state verification suite for the double C-NOT analysis
# ---------------------------------------------------------------------------


@dataclass
class StateCheck:
    name: str
    passed: bool
    detail: str


def _prob(amps: np.ndarray, predicate) -> float:
    """Probability mass of basis labels satisfying ``predicate(bits)``."""
    n = kernel.num_qubits(amps)
    total = 0.0
    for index, amp in enumerate(amps):
        bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
        if predicate(bits):
            total += abs(amp) ** 2
    return total


def _basis_state(n: int, *indices_with_amp: tuple[int, complex]) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    for index, amp in indices_with_amp:
        amps[index] = amp
    return amps


def attack_state_checks(tol: float = 1e-9) -> list[StateCheck]:
    """Amplitude-exact verification of the double C-NOT state evolutions
    on a phi+ pair, as used by ``sqpc verify-equations``.

    Register wire order is (Alice's channel, Bob half, probe ancilla,
    discarded half): a SIFT resend swaps into Alice's channel and the half
    it discards takes the adjoined wire.  Expected states are written in
    that convention.  The resend cases are checked by composing kernel ops
    from the coherent-pair premise in wire order (resend, probe, far
    half), and the discard case is checked through the retained-qubit
    model at the observable level.
    """
    s = kernel.SQRT_HALF
    rng = Streams([0])
    checks: list[StateCheck] = []

    def run_pipeline(message_bit: int | None):
        """Forward tap on a one-position phi+ batch, then CTRL (None) or SIFT(bit)."""
        pairs = PairBatch.prepare([BellState.PHI_PLUS.value])
        eve = DoubleCnotEve(target="A")
        eve.on_forward(pairs.positions, pairs.register, 0, rng)
        sift = np.array([message_bit is not None])
        participant_respond(sift, pairs.register, 0, [message_bit or 0])
        return pairs, eve

    # 1. Forward tap entangles the probe: (|000> + |111>)/sqrt(2) on (A, B, E).
    pairs, _ = run_pipeline(None)
    expected = _basis_state(3, (0b000, s), (0b111, s))
    ok = kernel.amplitudes_close(pairs.register.amps[:, 0], expected, tol)
    checks.append(StateCheck("forward-probe-entanglement", ok, "probe C-NOT on a phi+ half gives the three-qubit GHZ correlations"))

    # 2. CTRL round trip restores the pair and parks the probe back in |0>.
    pairs, eve = run_pipeline(None)
    eve.on_return(pairs.positions, pairs.register, 0, rng)
    expected = kernel.tensor(prepare_bell(BellState.PHI_PLUS), prepare_z(0))
    indicator = eve.finalize(PublicRecord(L=1)).indicator_bits[0]
    ok = kernel.amplitudes_close(pairs.register.amps[:, 0], expected, tol) and indicator == 0
    checks.append(StateCheck("ctrl-roundtrip-restoration", ok, "reflected qubit undoes the probe C-NOT, pair intact and probe silent"))

    # 3. After a SIFT discard the probe and the far half stay perfectly
    #    Z-correlated (the retained-qubit reading of the discarded pair).
    pairs, _ = run_pipeline(0)
    amps = pairs.register.amps[:, 0]  # wires: A's resend 0, B 1, E 2, discarded half 3
    p_disagree = _prob(amps, lambda b: b[2] != b[1])
    p_probe_one = _prob(amps, lambda b: b[2] == 1)
    ok = p_disagree <= tol and abs(p_probe_one - 0.5) <= tol
    checks.append(StateCheck("discarded-half-probe-correlation", ok, "probe and far half agree in Z with probability 1, each side uniform"))

    # 4./5. Resend algebra from the coherent-pair premise, wires (F, E, B):
    #    F=|0>: (|000> + |011>)/sqrt(2);  F=|1>: (|110> + |101>)/sqrt(2).
    for bit, indices, name in (
        (0, (0b000, 0b011), "resend0-probe-superposition"),
        (1, (0b110, 0b101), "resend1-probe-superposition"),
    ):
        sv = kernel.tensor(prepare_z(bit), prepare_bell(BellState.PHI_PLUS))
        sv = kernel.apply_cnot(sv, 0, 1)
        expected = _basis_state(3, *((i, s) for i in indices))
        ok = kernel.amplitudes_close(sv, expected, tol)
        checks.append(StateCheck(name, ok, f"second C-NOT with a fresh |{bit}> control leaves the stated superposition"))

    # 6. Through the full pipeline the probe fires with probability exactly
    #    1/2 on SIFT positions and, when it fires, certifies the resent bit.
    ok = True
    resend, probe = 0, 2
    for bit in (0, 1):
        pairs, _ = run_pipeline(bit)
        pairs.register.cnot(resend, probe)
        amps = pairs.register.amps[:, 0]
        p_fire = _prob(amps, lambda b: b[probe] == 1)
        p_wrong = _prob(amps, lambda b: b[probe] == 1 and b[resend] != bit)
        ok = ok and abs(p_fire - 0.5) <= tol and p_wrong <= tol
    checks.append(StateCheck("sift-probe-indicator-odds", ok, "probe fires with probability 1/2 and a fired probe reads the resent bit exactly"))

    return checks
