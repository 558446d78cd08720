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

Sessions run in chunks of trials (:func:`run_sessions`; a single
session, :func:`run_session`, is a chunk of one).  All 2L positions of
every trial in a chunk live in one batched register (see
:mod:`sqpc.kernel`), row ``t * 2L + p`` holding position p of trial t,
so each protocol step is a few batch calls for the whole chunk rather
than a loop over trials or positions.  Each trial draws from its own
generator (:class:`sqpc.attacks.Streams`) in the order a lone session
would: every measurement goes through :meth:`Streams.measure`, which
hands each trial's uniforms, drawn from that trial's stream, to its rows
in (trial, wire, row) order.  A trial whose SIFT count falls short aborts
and drops out: no later transit, response or TP read touches its rows.  TP's reads come back as arrays over the rows: a Bell
outcome per row and a Z bit per participant per row, each -1 where
nothing was measured; each trial's transcript holds its own slice, and
keys each per-participant value by participant.  Adversaries participate
as channel taps with one hook call for all forward transits of their
channel in the chunk and one for all return transits; see
:mod:`sqpc.attacks`.  Per-trial classical steps (threshold checks,
comparison, decoding, scoring) loop over the trials.

:class:`SessionConfig` parametrizes a session of either protocol and
:func:`drive_session` runs the transit pattern both share; each protocol
supplies its own steps and decodes tap reads itself
(:func:`decode_claims`).  :func:`attack_state_checks` verifies the double
C-NOT state evolutions through this protocol's pair pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kernel
from .attacks import (
    AttackReport,
    Bits,
    ChannelTap,
    DoubleCnotEve,
    GroundTruth,
    PublicRecord,
    Streams,
    read_dict,
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


@dataclass
class PairBatch:
    """Prepared pairs as one batched register, one row per pair: row p =
    position p of a session, or of a chunk's trials laid end to end.

    Wire 0 of every row is Alice's half and wire 1 Bob's.  ``wires`` maps
    each participant to the per-row wires as delivered (forward taps
    may grow the register but hand the same data wires on); ``returns``
    maps each participant to the per-row wires TP finally receives,
    which a SIFT response or a tampering tap may have replaced.
    """

    prepared: np.ndarray  # BellState value per position
    register: Register
    wires: dict[str, np.ndarray]
    returns: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def prepare(cls, values) -> "PairBatch":
        """One pair per position, in the Bell states with the given values."""
        register = Register(prepare_bell(values))
        values = np.asarray(values, dtype=np.intp)
        halves = np.zeros(len(values), dtype=np.intp)
        return cls(values, register, {"A": halves, "B": halves + 1})

    @property
    def positions(self) -> np.ndarray:
        return np.arange(len(self.prepared))

    def trial(self, rows: slice) -> "PairBatch":
        """The pairs of one trial of a chunk, ``rows``, as a batch of their
        own; it shares the chunk's register, so position p is register
        row ``rows.start + p``.  The batch itself when that is all of it."""
        if rows.stop - rows.start == len(self.prepared):
            return self
        return PairBatch(
            self.prepared[rows],
            self.register,
            {p: wires[rows] for p, wires in self.wires.items()},
            {p: wires[rows] for p, wires in self.returns.items()},
        )


@dataclass
class SessionTranscript:
    """Everything TP sees, plus the session's pairs.

    Per-participant fields are dicts keyed by participant.  ``modes`` holds
    the SIFT masks.  ``bell_outcomes`` holds the ``BellState`` value TP
    measured at each CTRL/CTRL position and ``tp_bits`` TP's Z-read of
    each SIFT return, all -1 where nothing was measured (and ``None`` when
    the session aborted before TP measured).
    """

    config: SessionConfig
    pairs: PairBatch
    modes: dict[str, np.ndarray]
    r: dict[str, Bits]
    sift_positions: dict[str, np.ndarray]
    message_positions: dict[str, np.ndarray]
    bell_outcomes: np.ndarray | None = None
    tp_bits: dict[str, np.ndarray] | None = None
    ctrl_ctrl_positions: np.ndarray | None = None
    bell_mismatch_count: int = 0
    tp_m: dict[str, Bits] | None = None
    m_t: Bits | None = None
    outcome: ComparisonOutcome | None = None


def tp_prepare_pairs(config: SessionConfig, rng) -> PairBatch:
    """Draw 2L uniformly random Bell variants per trial of a chunk (``rng``:
    its :class:`Streams`, or one session's generator) into one batched
    register, trial-major (qubit 0 = Alice's half, 1 = Bob's).

    One uniform per pair, scaled by 4 and truncated: the draws and
    variants of ``rng.choice(4, size=2L, p=[0.25] * 4)``, whose cut points
    0.25, 0.5 and 0.75, like the scaling by 4, are exact in binary."""
    uniforms = np.concatenate([gen.random(2 * config.L) for gen in Streams.of(rng).gens])
    return PairBatch.prepare((4 * uniforms).astype(np.intp))


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
    pairs: PairBatch, sift_a: np.ndarray, sift_b: np.ndarray, rng, live: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TP's measurements at every row, given both SIFT masks over the rows.

    CTRL/CTRL rows get a Bell measurement on the two returned wires.  At
    any other row TP Z-reads each SIFT return and leaves a reflected
    half, if any, unmeasured.  One :meth:`Streams.measure` call per
    step: Bell measurements first, then Alice's reads, then Bob's.
    ``rng`` is the chunk's :class:`Streams` (or one session's generator)
    and ``live`` masks the rows of the trials still running (every row by
    default).  Returns ``(bell,
    bits_a, bits_b)``: the ``BellState`` value per row and each
    participant's Z bit per row, -1 where that measurement was not made.
    """
    streams = Streams.of(rng)
    size = len(pairs.prepared)
    measured = np.ones(size, dtype=bool) if live is None else live
    bell = np.full(size, -1, dtype=np.intp)
    rows = (~(sift_a | sift_b) & measured).nonzero()[0]
    bell[rows] = streams.measure(
        pairs.register, "measure_bell", rows, pairs.returns["A"][rows], pairs.returns["B"][rows]
    )
    bits = []
    for participant, sift in (("A", sift_a), ("B", sift_b)):
        read = np.full(size, -1, dtype=np.intp)
        rows = (sift & measured).nonzero()[0]
        read[rows] = streams.measure(pairs.register, "measure_z", rows, pairs.returns[participant][rows])
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


def drive_session(
    taps: Sequence[ChannelTap],
    modes: dict[str, np.ndarray],
    sift_quota: int,
    channels: dict[str, tuple[np.ndarray, object]],
    register: Register,
    wires,
    respond: Callable[[np.ndarray], object],
    tp_steps: Callable[[np.ndarray, list[PublicRecord]], list[ComparisonOutcome]],
    decode: Callable[[AttackReport, PublicRecord], None],
    truths: Sequence[GroundTruth],
    streams: Streams,
) -> tuple[list[ComparisonOutcome], list[list[AttackReport]]]:
    """Run the transit pattern both protocols share, for a chunk of
    trials, around the protocol's own steps.

    ``modes`` maps each participant to the SIFT masks of the chunk's
    trials, one row per trial.  Every tap begins the chunk; a trial
    aborts if a participant's SIFT mask holds fewer than ``sift_quota``
    positions.  The other, live, trials go on together: each channel's
    taps get the forward transits of all their positions in one call,
    ``respond(live)`` returns the container of returned wires, the return
    transits follow, and ``tp_steps(live, published)`` fills in the live
    trials' public records and returns their outcomes.  ``channels`` maps
    each participant to the ``register`` rows of its positions, one row
    per trial, and the key of its wires, an array over the register rows,
    in either container.  Last, every trial's reports are decoded,
    scored against its entry of ``truths`` and marked detected.  Returns
    each trial's outcome and reports.
    """
    for tap in taps:
        tap.begin_session(modes[PARTICIPANTS[0]].shape[1], streams)
    published = [PublicRecord(L=truth.L) for truth in truths]
    outcomes = [_TOO_FEW_SIFT] * len(truths)
    live = np.minimum(*(modes[p].sum(axis=1) for p in PARTICIPANTS)) >= sift_quota
    running = live.nonzero()[0]
    if len(running):
        for tap in taps:
            if tap.identity in PARTICIPANTS:
                tap.observe_own_modes(modes[tap.identity])
        # Each channel's taps in turn, with the rows of the live trials.
        hooked = [
            (tap, rows[running].ravel(), key)
            for participant, (rows, key) in channels.items()
            for tap in taps
            if tap.target == participant
        ]

        def transit(hook: str, wires) -> None:
            for tap, rows, key in hooked:
                wires[key][rows] = getattr(tap, hook)(rows, register, wires[key][rows], streams)

        transit("on_forward", wires)
        transit("on_return", respond(live))
        for trial, outcome in zip(running.tolist(), tp_steps(live, published)):
            outcomes[trial] = outcome

    reports = []
    for trial, (outcome, record, truth) in enumerate(zip(outcomes, published, truths)):
        record.announced = outcome.kind
        reports.append([])
        for tap in taps:
            report = tap.finalize(record, trial)
            if report is not None:
                decode(report, record)
                if tap.key is not None:
                    key = tap.key[trial]
                    report.secret_bits = {i: bit ^ key[i] for i, bit in report.masked_secret_bits.items()}
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
    report.message_bits = read_dict(report.payload_reads[carriers])
    if published.r is not None:
        r = published.r[report.target]
        report.masked_secret_bits = {idx: bit ^ r[idx] for idx, bit in report.message_bits.items()}


def check_lengths(L: int, streams: Streams, *per_trial: Sequence[Sequence[int]]) -> None:
    """One secret of each participant and one key per stream, each of length L."""
    if {len(values) for values in per_trial} != {len(streams.gens)}:
        raise ValueError("every trial needs both secrets, a key and a stream")
    if {len(bits) for values in per_trial for bits in values} != {L}:
        raise ValueError("secrets and key must all have length L")


def run_sessions(
    config: SessionConfig,
    secrets_a: Sequence[Sequence[int]],
    secrets_b: Sequence[Sequence[int]],
    keys: Sequence[Sequence[int]],
    taps: Sequence[ChannelTap] = (),
    *,
    rng,
) -> list[tuple[SessionTranscript, ComparisonOutcome, list[AttackReport]]]:
    """Run one session per trial of a chunk and return each trial's
    (transcript, outcome, attack reports).

    Trial t compares ``secrets_a[t]`` with ``secrets_b[t]`` under
    ``keys[t]`` and draws everything, its taps' measurements included,
    from generator t of ``rng`` (a :class:`Streams`), so identical inputs
    give bit-identical transcripts.  Each tap gets the forward transits of
    every position of the channel it targets, in every live trial, in one
    call, then the return transits in another; mode declarations become
    visible to taps only through ``finalize``, after TP has everything.
    """
    streams = Streams.of(rng)
    L = config.L
    check_lengths(L, streams, secrets_a, secrets_b, keys)
    size = 2 * L

    pairs = tp_prepare_pairs(config, streams)
    r = [{p: random_bits(L, gen) for p in PARTICIPANTS} for gen in streams.gens]
    modes = [{p: draw_modes(size, L, config.mode_policy, gen) for p in PARTICIPANTS} for gen in streams.gens]
    sift = {p: np.array([trial[p] for trial in modes]) for p in PARTICIPANTS}

    transcripts, truths = [], []
    for trial, (secret_a, secret_b, key) in enumerate(zip(secrets_a, secrets_b, keys)):
        secrets = {"A": list(secret_a), "B": list(secret_b)}
        positions = {p: modes[trial][p].nonzero()[0] for p in PARTICIPANTS}
        transcripts.append(
            SessionTranscript(
                config=config,
                pairs=pairs,
                modes=modes[trial],
                r=r[trial],
                sift_positions=positions,
                message_positions={p: positions[p][:L] for p in PARTICIPANTS},
            )
        )
        messages = {p: derive_message(secrets[p], r[trial][p], key) for p in PARTICIPANTS}
        truths.append(GroundTruth(L=L, secrets=secrets, key=list(key), messages=messages))

    def respond(live: np.ndarray) -> dict[str, np.ndarray]:
        # The i-th SIFT position carries message bit i, surplus SIFT
        # positions under the coin policy carry random filler.
        running = live.nonzero()[0].tolist()
        for participant in PARTICIPANTS:
            bits = np.zeros(sift[participant].shape, dtype=np.intp)
            for trial in running:
                positions = transcripts[trial].sift_positions[participant]
                bits[trial, positions[:L]] = truths[trial].messages[participant]
                if len(positions) > L:
                    bits[trial, positions[L:]] = streams.gens[trial].integers(0, 2, size=len(positions) - L)
            pairs.returns[participant] = participant_respond(
                (sift[participant] & live[:, None]).ravel(), pairs.register, pairs.wires[participant], bits.ravel()
            )
        return pairs.returns

    def tp_steps(live: np.ndarray, published: list[PublicRecord]) -> list[ComparisonOutcome]:
        # TP confirms receipt; only now are the mode declarations public.
        sifted = {p: sift[p].ravel() for p in PARTICIPANTS}
        bell, bits_a, bits_b = tp_resolve_positions(pairs, sifted["A"], sifted["B"], streams, live.repeat(size))
        outcomes = []
        for trial in live.nonzero()[0].tolist():
            rows = slice(trial * size, (trial + 1) * size)
            transcript, record = transcripts[trial], published[trial]
            transcript.bell_outcomes = trial_bell = bell[rows]
            transcript.tp_bits = tp_bits = {"A": bits_a[rows], "B": bits_b[rows]}
            transcript.ctrl_ctrl_positions = ctrl_ctrl = (trial_bell >= 0).nonzero()[0]
            prepared = pairs.prepared[rows]
            transcript.bell_mismatch_count = int(np.count_nonzero(trial_bell[ctrl_ctrl] != prepared[ctrl_ctrl]))
            transcript.tp_m = tp_m = {
                p: tp_bits[p][transcript.message_positions[p]].tolist() for p in PARTICIPANTS
            }
            record.modes = transcript.modes

            n_ctrl = len(ctrl_ctrl)
            if n_ctrl > 0 and transcript.bell_mismatch_count / n_ctrl > config.error_threshold:
                outcomes.append(ComparisonOutcome.aborted(EAVESDROPPER_DETECTED))
                continue
            outcome, transcript.m_t = tp_compare(tp_m["A"], tp_m["B"], transcript.r["A"], transcript.r["B"])
            record.r = transcript.r
            outcomes.append(outcome)
        return outcomes

    rows = np.arange(len(pairs.prepared)).reshape(-1, size)
    channels = {p: (rows, p) for p in PARTICIPANTS}
    outcomes, reports = drive_session(
        taps, sift, L, channels, pairs.register, pairs.wires, respond, tp_steps, decode_claims, truths, streams
    )
    for trial, (transcript, outcome) in enumerate(zip(transcripts, outcomes)):
        transcript.pairs = pairs.trial(slice(trial * size, (trial + 1) * size))
        transcript.outcome = outcome
    return list(zip(transcripts, outcomes, reports))


def run_session(
    config: SessionConfig,
    secret_a: Sequence[int],
    secret_b: Sequence[int],
    key: Sequence[int],
    taps: Sequence[ChannelTap] = (),
    *,
    rng: np.random.Generator,
) -> tuple[SessionTranscript, ComparisonOutcome, list[AttackReport]]:
    """Run one full session, a chunk of one trial (see
    :func:`run_sessions`), and return (transcript, outcome, attack reports).

    All randomness, including every tap's measurement draws, comes from
    ``rng``, so identical inputs give bit-identical transcripts.
    """
    return run_sessions(config, [secret_a], [secret_b], [key], taps, rng=rng)[0]


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

    Register wire order is (Alice half, Bob half, probe ancilla, fresh
    resend qubit) in adjoin order; expected states are written in that
    convention.  The resend cases are checked by composing kernel ops
    from the coherent-pair premise in wire order (resend, probe, far
    half), and the discard case is checked through the retained-qubit
    model at the observable level.
    """
    s = kernel.SQRT_HALF
    rng = np.random.default_rng(0)
    checks: list[StateCheck] = []

    def run_pipeline(message_bit: int | None):
        """Forward tap on a one-position phi+ batch, then CTRL (None) or SIFT(bit)."""
        pairs = PairBatch.prepare([BellState.PHI_PLUS.value])
        eve = DoubleCnotEve(target="A")
        pairs.wires["A"] = eve.on_forward(pairs.positions, pairs.register, pairs.wires["A"], rng)
        sift = np.array([message_bit is not None])
        pairs.returns["A"] = participant_respond(sift, pairs.register, pairs.wires["A"], [message_bit or 0])
        return pairs, eve

    # 1. Forward tap entangles the probe: (|000> + |111>)/sqrt(2) on (A, B, E).
    pairs, _ = run_pipeline(None)
    expected = _basis_state(3, (0b000, s), (0b111, s))
    ok = kernel.amplitudes_close(pairs.register.amps[:, 0], expected, tol)
    checks.append(StateCheck("forward-probe-entanglement", ok, "probe C-NOT on a phi+ half gives the three-qubit GHZ correlations"))

    # 2. CTRL round trip restores the pair and parks the probe back in |0>.
    pairs, eve = run_pipeline(None)
    pairs.returns["A"] = eve.on_return(pairs.positions, pairs.register, pairs.returns["A"], rng)
    expected = kernel.tensor(prepare_bell(BellState.PHI_PLUS), prepare_z(0))
    indicator = eve.finalize(PublicRecord(L=1)).indicator_bits[0]
    ok = kernel.amplitudes_close(pairs.register.amps[:, 0], expected, tol) and indicator == 0
    checks.append(StateCheck("ctrl-roundtrip-restoration", ok, "reflected qubit undoes the probe C-NOT, pair intact and probe silent"))

    # 3. After a SIFT discard the probe and the far half stay perfectly
    #    Z-correlated (the retained-qubit reading of the discarded pair).
    pairs, _ = run_pipeline(0)
    amps = pairs.register.amps[:, 0]  # wires: A=0, B=1, E=2, F=3
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
    probe = 2
    for bit in (0, 1):
        pairs, _ = run_pipeline(bit)
        resend = int(pairs.returns["A"][0])
        pairs.register.cnot(resend, probe)
        amps = pairs.register.amps[:, 0]
        p_fire = _prob(amps, lambda b: b[probe] == 1)
        p_wrong = _prob(amps, lambda b: b[probe] == 1 and b[resend] != bit)
        ok = ok and abs(p_fire - 0.5) <= tol and p_wrong <= tol
    checks.append(StateCheck("sift-probe-indicator-odds", ok, "probe fires with probability 1/2 and a fired probe reads the resent bit exactly"))

    return checks
