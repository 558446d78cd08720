"""Actor state machines and session driver for the Bell-state comparison
protocol (the "jiang" scenario).

One session compares two L-bit secrets through a semi-honest third party
(TP).  TP prepares 2L Bell pairs and sends one half of each to Alice and
one to Bob.  Each participant either reflects a received qubit (CTRL) or
keeps it unmeasured and sends back a fresh Z-basis qubit encoding one bit
of M_i = Secret_i XOR R_i XOR K_AB (SIFT).  After all qubits return and
modes are declared, TP Bell-measures CTRL/CTRL positions against what it
prepared, Z-reads every SIFT return, and, if the mismatch rate stays at
or below the error threshold, the participants publish R_A and R_B so TP
can scan M_A XOR M_B XOR R_A XOR R_B for the first nonzero bit.

Each participant's mode choices are one boolean SIFT mask over the 2L
positions (True = SIFT, False = CTRL); the transcript, the public record
and every tap see that mask.  The i-th bit of a participant's message
rides on their i-th SIFT position in ascending position order.  Under the
default balanced policy each participant SIFTs exactly L of the 2L
positions; under the coin policy a SIFT deficit aborts the session and
surplus SIFT positions carry fresh uniformly random filler qubits that the
comparison ignores.

All 2L positions live in one batched register (see :mod:`sqpc.kernel`),
so each protocol step is a few batch calls rather than a loop over
positions.  TP's reads come back as arrays over the positions as well: a
Bell outcome per position and a Z bit per participant per position, each
-1 where nothing was measured.  Adversaries participate as channel taps
with one hook call for all forward transits of their channel and one for
all return transits; see :mod:`sqpc.attacks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .kernel import Register, prepare_bell, prepare_z, wire_groups

if TYPE_CHECKING:  # taps are duck-typed; see sqpc.attacks.ChannelTap
    from .attacks import AttackReport, ChannelTap

Bits = list[int]

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


def random_bits(length: int, rng: np.random.Generator) -> Bits:
    return rng.integers(0, 2, size=length).tolist()


def xor_bits(*seqs: Sequence[int]) -> Bits:
    lengths = {len(s) for s in seqs}
    if len(lengths) != 1:
        raise ValueError(f"length mismatch: {sorted(len(s) for s in seqs)}")
    out = list(seqs[0])
    for s in seqs[1:]:
        out = [a ^ b for a, b in zip(out, s)]
    return out


def derive_message(secret: Sequence[int], r: Sequence[int], key: Sequence[int]) -> Bits:
    """M = Secret XOR R XOR K, bitwise."""
    return xor_bits(secret, r, key)


@dataclass
class SessionConfig:
    """Parameters of one comparison session.

    ``bell_weights`` orders the preparation distribution by ``BellState``
    value; the default is uniform and a point mass reproduces the
    all-phi+ setting used in the double C-NOT analysis.
    """

    L: int
    bell_weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    error_threshold: float = 0.0
    mode_policy: str = BALANCED

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if len(self.bell_weights) != 4 or any(w < 0 for w in self.bell_weights):
            raise ValueError("bell_weights must be four non-negative weights")
        if abs(sum(self.bell_weights) - 1.0) > 1e-9:
            raise ValueError("bell_weights must sum to 1")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ValueError(f"error_threshold must lie in [0, 1], got {self.error_threshold}")
        if self.mode_policy not in MODE_POLICIES:
            raise ValueError(f"mode_policy must be one of {MODE_POLICIES}, got {self.mode_policy!r}")


@dataclass
class PairBatch:
    """A session's prepared pairs as one batched register, row p = position p.

    Wire 0 of every row is Alice's half and wire 1 Bob's.  ``wires`` maps
    each participant to the per-position wires as delivered (forward taps
    may grow the register but hand the same data wires on); ``returns``
    maps each participant to the per-position wires TP finally receives,
    which a SIFT response or a tampering tap may have replaced.
    """

    prepared: np.ndarray  # BellState value per position
    register: Register
    wires: dict[str, np.ndarray]
    returns: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def prepare(cls, values) -> "PairBatch":
        """One pair per position, in the Bell states with the given values."""
        values = np.asarray(values, dtype=np.intp)
        halves = np.zeros(len(values), dtype=np.intp)
        return cls(values, Register(prepare_bell(values)), {"A": halves, "B": halves + 1})

    @property
    def positions(self) -> np.ndarray:
        return np.arange(len(self.prepared))


@dataclass
class SessionTranscript:
    """Everything TP sees, plus the session's pair register.

    ``modes_a``/``modes_b`` are the SIFT masks.  ``bell_outcomes`` holds the
    ``BellState`` value TP measured at each CTRL/CTRL position and
    ``tp_bits_a``/``tp_bits_b`` TP's Z-read of each SIFT return, all -1
    where nothing was measured (and ``None`` when the session aborted
    before TP measured).
    """

    config: SessionConfig
    pairs: PairBatch
    modes_a: np.ndarray
    modes_b: np.ndarray
    r_a: Bits
    r_b: Bits
    sift_positions_a: np.ndarray
    sift_positions_b: np.ndarray
    message_positions_a: np.ndarray
    message_positions_b: np.ndarray
    bell_outcomes: np.ndarray | None = None
    tp_bits_a: np.ndarray | None = None
    tp_bits_b: np.ndarray | None = None
    ctrl_ctrl_positions: np.ndarray | None = None
    bell_mismatch_count: int = 0
    tp_m_a: Bits | None = None
    tp_m_b: Bits | None = None
    m_t: Bits | None = None
    outcome: ComparisonOutcome | None = None


def tp_prepare_pairs(config: SessionConfig, rng: np.random.Generator) -> PairBatch:
    """Draw 2L Bell variants from the configured distribution into one
    batched register (qubit 0 = Alice's half, 1 = Bob's)."""
    variants = rng.choice(4, size=2 * config.L, p=np.asarray(config.bell_weights, dtype=float))
    return PairBatch.prepare(variants)


def draw_modes(
    num_positions: int, sift_quota: int, policy: str, rng: np.random.Generator
) -> np.ndarray:
    """SIFT mask (True = SIFT, False = CTRL) for one participant.

    Balanced: a uniformly random arrangement with exactly ``sift_quota``
    SIFT entries, from one ``rng.permutation``.  Coin: an independent fair
    coin per position, from one ``rng.integers`` call.
    """
    if policy == BALANCED:
        return rng.permutation(num_positions) < sift_quota
    if policy == INDEPENDENT_COIN:
        return rng.integers(0, 2, size=num_positions) == 1
    raise ValueError(f"unknown mode policy {policy!r}")


def choose_modes(config: SessionConfig, rng: np.random.Generator) -> np.ndarray:
    return draw_modes(2 * config.L, config.L, config.mode_policy, rng)


def participant_respond(
    sift: np.ndarray, register: Register, incoming: np.ndarray, message_bits=None
) -> np.ndarray:
    """Apply one participant's response at every position of a register.

    CTRL reflects the incoming wire untouched.  SIFT keeps the incoming
    qubit in the register unmeasured (the physical "discard") and sends a
    fresh Z-basis qubit carrying that position's entry of
    ``message_bits``.  The fresh qubit is adjoined to every row, idle in
    |0> at CTRL positions.  ``sift`` is the participant's SIFT mask over
    the rows.  Returns the outgoing wire of every position.
    """
    if not sift.any():
        return incoming
    if message_bits is None:
        raise ValueError("SIFT response requires a message bit")
    fresh = register.adjoin(prepare_z(np.where(sift, message_bits, 0)))
    return np.where(sift, fresh, incoming)


def tp_resolve_positions(
    pairs: PairBatch, sift_a: np.ndarray, sift_b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TP's measurements at every position, given both SIFT masks.

    CTRL/CTRL positions get a Bell measurement on the two returned wires.
    At any other position TP Z-reads each SIFT return and leaves a
    reflected half, if any, unmeasured.  One batch call per distinct set
    of returned wires: Bell measurements first, then Alice's reads, then
    Bob's.  Returns ``(bell, bits_a, bits_b)``: the ``BellState`` value per
    position and each participant's Z bit per position, -1 where that
    measurement was not made.
    """
    bell = np.full(len(pairs.prepared), -1, dtype=np.intp)
    ctrl_ctrl = (~(sift_a | sift_b)).nonzero()[0]
    for (w1, w2), rows in wire_groups(ctrl_ctrl, pairs.returns["A"][ctrl_ctrl], pairs.returns["B"][ctrl_ctrl]):
        bell[rows] = pairs.register.measure_bell(w1, w2, rng, rows)
    bits = []
    for participant, sift in (("A", sift_a), ("B", sift_b)):
        read = np.full(len(sift), -1, dtype=np.intp)
        sifted = sift.nonzero()[0]
        for (wire,), rows in wire_groups(sifted, pairs.returns[participant][sifted]):
            read[rows] = pairs.register.measure_z(wire, rng, rows)
        bits.append(read)
    return bell, bits[0], bits[1]


def tp_compare(
    m_a: Sequence[int], m_b: Sequence[int], r_a: Sequence[int], r_b: Sequence[int]
) -> tuple[ComparisonOutcome, Bits]:
    """Scan M_A XOR M_B XOR R_A XOR R_B in ascending index order, stopping
    at the first 1.  Returns the outcome and the prefix actually computed."""
    if not len(m_a) == len(m_b) == len(r_a) == len(r_b):
        raise ValueError("message and mask lengths differ")
    prefix: Bits = []
    for i, (a, b, ra, rb) in enumerate(zip(m_a, m_b, r_a, r_b)):
        bit = a ^ b ^ ra ^ rb
        prefix.append(bit)
        if bit:
            return ComparisonOutcome.not_equal(i), prefix
    return ComparisonOutcome.equal(), prefix


def run_session(
    config: SessionConfig,
    secret_a: Sequence[int],
    secret_b: Sequence[int],
    key: Sequence[int],
    taps: Sequence["ChannelTap"] = (),
    *,
    rng: np.random.Generator,
) -> tuple[SessionTranscript, ComparisonOutcome, list["AttackReport"]]:
    """Run one full session and return (transcript, outcome, attack reports).

    All randomness, including every tap's measurement draws, comes from
    ``rng``, so identical inputs give bit-identical transcripts.  Each tap
    gets the forward transits of every position of the channel it targets
    in one call, then the return transits in another; mode declarations
    become visible to taps only through ``finalize``, after TP has
    everything.
    """
    from .attacks import GroundTruth, PublicRecord

    L = config.L
    if not len(secret_a) == len(secret_b) == len(key) == L:
        raise ValueError("secrets and key must all have length L")

    pairs = tp_prepare_pairs(config, rng)
    r_a = random_bits(L, rng)
    r_b = random_bits(L, rng)
    msg = {"A": derive_message(secret_a, r_a, key), "B": derive_message(secret_b, r_b, key)}
    modes = {"A": choose_modes(config, rng), "B": choose_modes(config, rng)}
    sift = {p: modes[p].nonzero()[0] for p in PARTICIPANTS}
    msg_positions = {p: sift[p][:L] for p in PARTICIPANTS}

    transcript = SessionTranscript(
        config=config,
        pairs=pairs,
        modes_a=modes["A"],
        modes_b=modes["B"],
        r_a=r_a,
        r_b=r_b,
        sift_positions_a=sift["A"],
        sift_positions_b=sift["B"],
        message_positions_a=msg_positions["A"],
        message_positions_b=msg_positions["B"],
    )
    truth = GroundTruth(
        L=L,
        secrets={"A": list(secret_a), "B": list(secret_b)},
        key=list(key),
        messages=msg,
    )

    if any(len(sift[p]) < L for p in PARTICIPANTS):
        outcome = ComparisonOutcome.aborted(INSUFFICIENT_SIFT)
        transcript.outcome = outcome
        published = PublicRecord(protocol="jiang", L=L, announced=outcome.kind)
        return transcript, outcome, _finalize_taps(taps, published, truth, outcome)

    for tap in taps:
        tap.begin_session(2 * L, rng)
    for tap in taps:
        if tap.identity in PARTICIPANTS:
            tap.observe_own_modes(modes[tap.identity])

    # Forward transits, TP -> participant, channel A then channel B.
    positions = pairs.positions
    for participant in PARTICIPANTS:
        for tap in taps:
            if tap.target == participant:
                pairs.wires[participant] = tap.on_forward(positions, pairs.register, pairs.wires[participant], rng)

    # Responses; the i-th SIFT position carries message bit i, surplus
    # SIFT positions under the coin policy carry random filler.
    for participant in PARTICIPANTS:
        bits = np.zeros(2 * L, dtype=np.intp)
        bits[msg_positions[participant]] = msg[participant]
        surplus = sift[participant][L:]
        if len(surplus):
            bits[surplus] = rng.integers(0, 2, size=len(surplus))
        pairs.returns[participant] = participant_respond(
            modes[participant], pairs.register, pairs.wires[participant], bits
        )

    # Return transits, participant -> TP.
    for participant in PARTICIPANTS:
        for tap in taps:
            if tap.target == participant:
                pairs.returns[participant] = tap.on_return(positions, pairs.register, pairs.returns[participant], rng)

    # TP confirms receipt; only now are the mode declarations public.
    bell, tp_bits_a, tp_bits_b = tp_resolve_positions(pairs, modes["A"], modes["B"], rng)
    ctrl_ctrl = (bell >= 0).nonzero()[0]
    transcript.bell_outcomes = bell
    transcript.tp_bits_a = tp_bits_a
    transcript.tp_bits_b = tp_bits_b
    transcript.ctrl_ctrl_positions = ctrl_ctrl
    transcript.bell_mismatch_count = int(np.count_nonzero(bell[ctrl_ctrl] != pairs.prepared[ctrl_ctrl]))
    transcript.tp_m_a = tp_bits_a[msg_positions["A"]].tolist()
    transcript.tp_m_b = tp_bits_b[msg_positions["B"]].tolist()

    n_ctrl = len(ctrl_ctrl)
    if n_ctrl > 0 and transcript.bell_mismatch_count / n_ctrl > config.error_threshold:
        outcome = ComparisonOutcome.aborted(EAVESDROPPER_DETECTED)
        published = PublicRecord(
            protocol="jiang", L=L, modes=modes, announced=outcome.kind
        )
    else:
        outcome, m_t = tp_compare(transcript.tp_m_a, transcript.tp_m_b, r_a, r_b)
        transcript.m_t = m_t
        published = PublicRecord(
            protocol="jiang", L=L, modes=modes, r={"A": r_a, "B": r_b}, announced=outcome.kind
        )
    transcript.outcome = outcome
    return transcript, outcome, _finalize_taps(taps, published, truth, outcome)


def _finalize_taps(taps, published, truth, outcome) -> list["AttackReport"]:
    from .attacks import score_report

    reports = []
    for tap in taps:
        report = tap.finalize(published)
        if report is not None:
            score_report(report, truth)
            report.detected = outcome.attacker_detected
            reports.append(report)
    return reports
