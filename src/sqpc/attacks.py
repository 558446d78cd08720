"""Channel-tap adversaries for both comparison protocols.

Sessions run in chunks: consecutive trials of one experiment share one
batched register whose rows are (trial, position), trial-major, and each
trial keeps its own random stream (:class:`Streams`).  A tap sits on one
participant's quantum channel in every trial of a chunk and gets one
hook call for the forward transits (TP to participant) of all those
positions and one for the return transits (participant to TP).  A hook
receives the register rows that carry the channel's positions in the
chunk's live trials, trial-major (entry ``i`` sits on row ``rows[i]``),
with the wire each one travels on.  It may grow the register with
ancillas (one per row), apply gates through the register API, measure
through :meth:`Streams.read`, and substitute the wires that travel
onward.  Bits have one format from the draw that makes them to the
score that reads them: 1-D int arrays.  Secrets, keys, R, masks,
messages and disclosures hold 0s and 1s; reads and claims hold -1 where
nothing was read or claimed.  A tap keeps its reads over its hook
entries, and ``finalize`` reports one trial's reads raw, over its
channel positions; the protocol, which knows what each position
carries, decodes them into claims over message indices.  Every hook and
``begin_session`` takes the chunk's :class:`Streams`, which make every
draw of the chunk; a single session is a chunk of one trial.  Nothing
here imports a protocol module.  Taps never read amplitudes (a
register's size is its ``num_rows``); everything an attacker knows comes
from its own measurement outcomes plus the classical values published
after the session (mode declarations, R values, disclosures, messages).

Attackers here:

* ``DoubleCnotEve``, the outside eavesdropper who entangles a fresh |0>
  ancilla into every forward qubit with a C-NOT and applies a second
  C-NOT on the way back.  A fired ancilla flags a replaced (SIFT) qubit,
  whose Z value she can then read without disturbing anything.  The
  mid-flight variant reads the ancilla between the two C-NOTs instead,
  trading silence for information.
* ``MaliciousAgent``, a legitimate participant who measures the other
  participant's returned qubits and resends identical Z eigenstates,
  either at its own SIFT positions (where TP never Bell-checks) or at a
  random position subset.
* ``BlockingAttacker``, who X-measures returned qubits to corrupt the
  integrity of TP's classical reads without learning anything.
* ``InterceptResendZ``, the naive baseline that Z-measures every forward
  qubit in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .kernel import Register, prepare_z


class _Uniforms:
    """A generator stand-in whose ``random(shape)`` returns given uniforms."""

    def __init__(self, values: np.ndarray):
        self.values = values

    def random(self, shape) -> np.ndarray:
        return self.values.reshape(shape)


def _rows(rows: list, *shape: int) -> np.ndarray:
    """Per-trial draws of one ``shape`` as one array, a row per trial; a
    lone trial's row is a view of its draw."""
    if len(rows) == 1 and isinstance(rows[0], np.ndarray):
        return rows[0][None]
    return np.array(rows) if rows else np.zeros((0, *shape))


class Streams:
    """The random streams of a chunk of trials: one numpy Generator per
    trial, in trial order, and every draw the chunk makes.

    Each draw method (:meth:`random`, :meth:`integers`,
    :meth:`permutation`, :meth:`choice`) makes, on the generator of every
    trial, or of each trial listed in ``trials`` (indices, ascending),
    the one call a lone session makes at that draw site, and returns one
    row per trial drawn; an empty list draws nothing and returns no rows.
    A register of the chunk holds each trial's rows in one block, the
    blocks of equal size and in trial order.  Every measurement of a
    session or a tap goes through :meth:`measure`, which owns the order
    of the chunk's measurement draws, and every read array that holds -1
    where nothing was measured comes from :meth:`read`.  A lone session
    is a chunk of one trial, ``Streams([rng])``.
    """

    def __init__(self, gens):
        self.gens = list(gens)

    def __len__(self) -> int:
        return len(self.gens)

    @staticmethod
    def check(streams) -> None:
        """Refuse anything but a ``Streams``: a bare generator has draw
        methods of the same names that draw something else."""
        if not isinstance(streams, Streams):
            raise TypeError(f"expected a Streams, got {type(streams).__name__}")

    def _each(self, trials) -> list:
        """The generators of ``trials``, every trial's by default."""
        return self.gens if trials is None else [self.gens[t] for t in trials]

    def random(self, size: int | None = None, trials=None) -> np.ndarray:
        """Each trial's ``random(size)``."""
        return _rows([gen.random(size) for gen in self._each(trials)], *([] if size is None else [size]))

    def integers(self, high: int, size, trials=None):
        """Each trial's ``integers(0, high, size=size)``.  With ``size`` a
        list, one size per trial drawn, the rows come back as a list."""
        if isinstance(size, int):
            return _rows([gen.integers(0, high, size=size) for gen in self._each(trials)], size)
        return [gen.integers(0, high, size=k) for gen, k in zip(self._each(trials), size)]

    def permutation(self, n: int, trials=None) -> np.ndarray:
        """Each trial's ``permutation(n)``."""
        return _rows([gen.permutation(n) for gen in self._each(trials)], n)

    def choice(self, n: int, size: int, trials=None) -> np.ndarray:
        """Each trial's ``choice(n, size=size, replace=False)``."""
        return _rows([gen.choice(n, size=size, replace=False) for gen in self._each(trials)], size)

    def measure(self, register: Register, op: str, rows: np.ndarray, *wires, block: int | None = None) -> np.ndarray:
        """The reads of ``register`` measurement ``op`` (``"measure_z"``,
        ``"measure_x"`` or ``"measure_bell"``) of ``rows`` (ascending) on
        ``wires``, each an int or one per row, aligned with ``rows``.

        One kernel call draws what one lone call per (trial, ``block``,
        wires), in ascending order, would draw from that trial's
        generator: the rows take their uniforms in (``row // block``,
        wires, row) order, ``block`` one trial's rows unless given, and
        each trial's uniforms are its ``random(k)`` for its k rows.  The
        kernel sees the rows as given, each with its own uniform.  A wire
        every row shares goes to the kernel as an int and sorts nothing,
        and all of the register's rows are measured with no row
        selection.  No rows make no kernel call and draw nothing.
        """
        if not len(rows):
            return np.zeros(0, dtype=np.intp)
        size = register.num_rows
        trial_rows = size // len(self.gens)
        wires, per_row = list(wires), []
        for i, w in enumerate(wires):
            if isinstance(w, np.ndarray):
                if (w == w[0]).all():
                    wires[i] = int(w[0])
                else:
                    per_row.append(i)
        if len(self.gens) == 1 and not per_row:
            rng = self.gens[0]
        else:
            counts = np.bincount(rows // trial_rows, minlength=len(self.gens)).tolist()
            uniforms = np.concatenate([gen.random(k) for gen, k in zip(self.gens, counts)])
            if per_row:
                # lexsort's last key is its first; the sort is stable, so
                # rows stay ascending within a (block, wires) group.
                order = np.lexsort((*(wires[i] for i in reversed(per_row)), rows // (block or trial_rows)))
                by_row = np.empty_like(uniforms)
                by_row[order] = uniforms
                uniforms = by_row
            rng = _Uniforms(uniforms)
        return getattr(register, op)(*wires, rng, None if len(rows) == size else rows)

    def read(self, register: Register, op: str, rows: np.ndarray, *wires, picked=None, block=None) -> np.ndarray:
        """The reads of :meth:`measure` at the entries ``picked`` of
        ``rows`` (a mask or indices into them; all of them by default),
        -1 at the others: one array aligned with ``rows``."""
        if picked is None:
            return self.measure(register, op, rows, *wires, block=block)
        # One scan of a mask rather than one in each of the three indexings.
        picked = picked.nonzero()[0] if picked.dtype == bool else picked
        reads = np.full(len(rows), -1, dtype=np.intp)
        wires = [w[picked] if isinstance(w, np.ndarray) else w for w in wires]
        reads[picked] = self.measure(register, op, rows[picked], *wires, block=block)
        return reads


@dataclass
class PublicRecord:
    """Classical values visible to everyone once the session ends.

    Fields stay ``None`` when the protocol never reached the step that
    would have published them (an abort suppresses later publications).
    Every bit string (``r``, ``messages``) is a 1-D int array.
    """

    L: int
    modes: dict[str, np.ndarray] | None = None  # participant -> SIFT mask
    r: dict[str, np.ndarray] | None = None
    disclosures: dict[str, object] | None = None  # participant -> CheckDisclosure
    messages: dict[str, np.ndarray] | None = None


@dataclass
class GroundTruth:
    """Driver-side truth used to score attack reports; never shown to taps.
    ``secrets``, ``key`` and ``messages`` are 1-D int arrays of L bits
    (a message has no entries until it is made)."""

    L: int
    secrets: dict[str, np.ndarray]
    key: np.ndarray
    messages: dict[str, np.ndarray]


# Every read and claim array before anything is read or claimed, and a
# message before it is made; never written.
_NOTHING = np.zeros(0, dtype=np.intp)
_NOTHING.flags.writeable = False


@dataclass
class AttackReport:
    """What one attacker walked away with, as int arrays, -1 wherever
    nothing was read or claimed.

    Over the trial's positions of the tapped channel:
    ``intercepted_bits`` are the raw channel reads, ``indicator_bits``
    the double C-NOT probe reads and ``payload_reads`` the reads of the
    target's SIFT payload (``None`` for a tap that never reads it);
    ``probed_positions`` lists the positions the tap probed.  Over
    message indices: the session driver decodes the payload reads into
    ``message_bits``, ``masked_secret_bits`` (Secret XOR K, all an
    outsider can get without the pre-shared key) and, for an insider
    holding the key, ``secret_bits``, and fills in ``accuracy`` and
    ``detected``.  An array with no entries reads or claims nothing.
    """

    attack: str
    target: str
    probed_positions: np.ndarray = field(default_factory=lambda: _NOTHING)
    intercepted_bits: np.ndarray = field(default_factory=lambda: _NOTHING)
    indicator_bits: np.ndarray = field(default_factory=lambda: _NOTHING)
    message_bits: np.ndarray = field(default_factory=lambda: _NOTHING)
    masked_secret_bits: np.ndarray = field(default_factory=lambda: _NOTHING)
    secret_bits: np.ndarray = field(default_factory=lambda: _NOTHING)
    indicator_opportunities: int = 0
    payload_reads: np.ndarray | None = None
    accuracy: float | None = None
    detected: bool | None = None

    @property
    def claims(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The claim arrays, plain, masked and secret."""
        return self.message_bits, self.masked_secret_bits, self.secret_bits

    @property
    def indicator_events(self) -> int:
        """Probe reads that fired."""
        return self.indicator_bits.tolist().count(1)

    @property
    def sift_indicator_rate(self) -> float | None:
        if self.indicator_opportunities == 0:
            return None
        return self.indicator_events / self.indicator_opportunities

    @property
    def learned_count(self) -> int:
        """Message indices of the victim's protected data this report claims to know."""
        return max(len(c) - c.tolist().count(-1) for c in self.claims)


def score_report(report: AttackReport, truth: GroundTruth) -> None:
    """Check every decoded claim against the ground truth and set accuracy.

    A claim of -1 (none) equals no true bit.  A report with no claims
    scores 1.0 (vacuously correct) so that aggregate metrics keep one
    value per trial.
    """
    if not any(len(c) for c in report.claims):
        report.accuracy = 1.0
        return
    secret = truth.secrets[report.target]
    expected = truth.messages[report.target], secret ^ truth.key, secret
    total = matched = 0
    for claims, bits in zip(report.claims, expected):
        if len(claims):
            total += len(claims) - claims.tolist().count(-1)
            matched += int(np.count_nonzero(claims == bits))
    report.accuracy = matched / total if total else 1.0


class ChannelTap:
    """Adversary contract: hooks on both transits of one channel.

    ``target`` names the participant whose channel is tapped.  A tap that
    is itself a protocol participant sets ``identity`` and receives its
    own SIFT masks through :meth:`observe_own_modes` (a participant
    legitimately knows its own choices before declaring them); everything
    else arrives only through :meth:`finalize`.  An insider also holds the
    pre-shared ``key`` of each trial, with which its payload reads decode
    to secret bits.  A tap that sets ``attack_count`` (the malicious
    agent and the blocking attacker) attacks a random subset of that many
    positions per trial, ``_attack_mask``.  A hook notes the trial of each
    of its entries (:meth:`_record`) and keeps its reads over them in the
    attributes ``_entry_reads`` names; ``finalize`` takes one trial's
    entries (:meth:`_entries`).  A fresh tap is as :meth:`begin_session`
    leaves it.
    """

    target: str = "A"
    identity: str | None = None
    key: np.ndarray | None = None  # (trials, L): one key per trial of the chunk
    attack_name: str = "none"
    attack_count: int | None = None
    _entry_reads: tuple[str, ...] = ()

    def __init__(self, target: str = "A"):
        self.target = target
        self.begin_session(0, None)

    def begin_session(self, num_positions: int, rng: Streams) -> None:
        """Called once per chunk, before any transit and also when every
        trial aborts before its transits, with the per-channel position
        count and the chunk's :class:`Streams`.  Draws each trial's
        attacked positions and drops an earlier chunk's entries and reads."""
        self._attack_mask = _attack_mask(self.attack_count, num_positions, rng)
        self._trials = _NOTHING
        for name in self._entry_reads:
            setattr(self, name, _NOTHING)

    def observe_own_modes(self, sift: np.ndarray) -> None:
        """Only called when ``identity`` names a participant, with its SIFT
        masks, one row per trial of the chunk."""

    def on_forward(self, rows: np.ndarray, register: Register, wires: np.ndarray, rng: Streams) -> np.ndarray:
        """Forward transits of every position of the channel in the live
        trials: entry i sits on row ``rows[i]`` of ``register`` and travels
        on ``wires[i]``.  Returns the wires handed on."""
        return wires

    def on_return(self, rows: np.ndarray, register: Register, wires: np.ndarray, rng: Streams) -> np.ndarray:
        """Return transits; same contract as :meth:`on_forward`."""
        return wires

    def finalize(self, published: PublicRecord, trial: int = 0) -> AttackReport | None:
        """The report of trial ``trial`` of the chunk, given its public record."""
        return None

    def _record(self, rows: np.ndarray, register: Register, rng: Streams) -> None:
        """Note the trial of each hook entry."""
        self._trials = rows // (register.num_rows // len(rng))

    def _entries(self, trial: int) -> slice:
        """The hook entries of ``trial``."""
        start, stop = self._trials.searchsorted((trial, trial + 1)).tolist()
        return slice(start, stop)


# The ancilla of every row; adjoining copies it into the register.
_ZERO = prepare_z(0)


def _at_entries(per_trial: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """A (trial, position) array at the hook entries, which run through
    each live trial's positions in order."""
    return per_trial[trials, np.arange(len(trials)) % per_trial.shape[1]]


def _raw_report(tap: ChannelTap, reads: np.ndarray) -> AttackReport:
    """A report of channel reads, probing every position read."""
    return AttackReport(tap.attack_name, tap.target, probed_positions=(reads >= 0).nonzero()[0], intercepted_bits=reads)


def _attack_mask(count: int | None, num_positions: int, rng: Streams) -> np.ndarray | None:
    """Per trial, a uniformly random ``count``-subset of the positions as a
    mask, one row per trial; ``None`` (attack everything the tap's policy
    allows) without a count."""
    if count is None:
        return None
    Streams.check(rng)
    mask = np.zeros((len(rng), num_positions), dtype=bool)
    np.put_along_axis(mask, rng.choice(num_positions, count), True, axis=1)
    return mask


class DoubleCnotEve(ChannelTap):
    """Outside eavesdropper running the double C-NOT attack on one channel.

    Forward hook: adjoin a |0> ancilla and CNOT(data -> ancilla), passing
    the data qubit on untouched.  Return hook: CNOT(returned -> ancilla),
    then read the ancilla.  A reflected qubit undoes the first C-NOT, so
    the ancilla stays |0| and the Bell pair is restored; a replaced qubit
    leaves the ancilla correlated so it fires with probability 1/2, and a
    fired ancilla certifies the returned qubit is a Z eigenstate that can
    be read without disturbance.  When the ancilla stays 0 Eve leaves the
    data qubit alone rather than risk collapsing a reflected half.

    ``midflight=True`` reads the ancilla immediately after the first
    C-NOT instead, which collapses the pair (detectable) but hands Eve
    the transit qubit's Z value at every position.
    """

    _entry_reads = ("_forward_reads", "_indicator", "_data_bits")

    def __init__(self, target: str = "A", midflight: bool = False):
        super().__init__(target)
        self.midflight = midflight
        self.attack_name = "double-cnot-midflight" if midflight else "double-cnot"

    def _probe(self, rows, register, wires) -> None:
        # All of the register's rows go as no row selection: one axis-0 gather.
        register.cnot(wires, self._ancilla, None if len(rows) == register.num_rows else rows)

    def on_forward(self, rows, register, wires, rng):
        self._record(rows, register, rng)
        self._ancilla = register.adjoin(_ZERO)
        self._probe(rows, register, wires)
        if self.midflight:
            self._forward_reads = rng.measure(register, "measure_z", rows, self._ancilla)
        return wires

    def on_return(self, rows, register, wires, rng):
        if not len(self._trials):  # no forward transit this chunk, so no ancilla
            return wires
        self._probe(rows, register, wires)
        self._indicator = rng.measure(register, "measure_z", rows, self._ancilla)
        if not self.midflight:
            self._data_bits = rng.read(register, "measure_z", rows, wires, picked=self._indicator == 1)
        return wires

    def finalize(self, published, trial=0):
        own = self._entries(trial)
        probed = own.stop - own.start
        reads = (self._forward_reads if self.midflight else self._data_bits)[own]
        report = AttackReport(self.attack_name, self.target, probed_positions=np.arange(probed), intercepted_bits=reads)
        report.indicator_bits = indicator = self._indicator[own]
        # Mid-flight, the second ancilla read is (mid-flight value) XOR
        # (returned bit), so XOR-ing the two reads, which exist at every
        # probed position, gives the returned bit.
        report.payload_reads = reads ^ indicator if self.midflight else reads
        if published.modes is not None:
            report.indicator_opportunities = int(np.count_nonzero(published.modes[self.target][:probed]))
        return report


class MaliciousAgent(ChannelTap):
    """A participant who measures the victim's returned qubits and resends
    identical Z eigenstates.

    By default it intercepts exactly at its own SIFT positions, the ones
    TP can never verify with a Bell measurement in the base protocol, so
    the theft is invisible there.  ``intercept_count=m`` switches to
    Z-measuring m uniformly chosen return positions instead (the knob
    used to trace the improved protocol's detection curve).  Holding the
    pre-shared key (one, or one per trial of a chunk), the agent decodes
    victim secret bits from whatever the session later publishes.
    """

    attack_name = "malicious-agent"
    _entry_reads = ("_reads",)

    def __init__(self, victim: str = "A", key=None, intercept_count: int | None = None):
        super().__init__(victim)
        self.identity = "B" if victim == "A" else "A"
        self.key = None if key is None else np.atleast_2d(key)
        self.attack_count = intercept_count

    def begin_session(self, num_positions, rng):
        super().begin_session(num_positions, rng)
        self._own_sift: np.ndarray | None = None

    def observe_own_modes(self, sift):
        self._own_sift = sift

    def on_return(self, rows, register, wires, rng):
        self._record(rows, register, rng)
        chosen = self._own_sift if self._attack_mask is None else self._attack_mask
        attacked = np.zeros(len(rows), dtype=bool) if chosen is None else _at_entries(chosen, self._trials)
        self._reads = rng.read(register, "measure_z", rows, wires, picked=attacked)
        if not attacked.any():
            return wires
        # Rows not intercepted get an idle |0> in the resend slot.
        resend = np.zeros(register.num_rows, dtype=np.intp)
        resend[rows[attacked]] = self._reads[attacked]
        fresh = register.adjoin(prepare_z(resend))
        return np.where(attacked, fresh, wires)

    def finalize(self, published, trial=0):
        reads = self._reads[self._entries(trial)]
        report = _raw_report(self, reads)
        report.payload_reads = reads
        return report


class BlockingAttacker(ChannelTap):
    """X-measures the victim's returned qubits in place.

    Returned Z eigenstates collapse to random X eigenstates, corrupting
    what TP will read without telling the attacker anything (the X
    outcome distribution is uniform whatever the Z bit was).  Attacks
    every return position by default; ``attack_count`` limits it to a
    random subset per trial.
    """

    attack_name = "blocking"
    _entry_reads = ("_reads",)

    def __init__(self, target: str = "A", attack_count: int | None = None):
        super().__init__(target)
        self.attack_count = attack_count

    def on_return(self, rows, register, wires, rng):
        self._record(rows, register, rng)
        attacked = None if self._attack_mask is None else _at_entries(self._attack_mask, self._trials)
        self._reads = rng.read(register, "measure_x", rows, wires, picked=attacked)
        return wires

    def finalize(self, published, trial=0):
        return _raw_report(self, self._reads[self._entries(trial)])


class InterceptResendZ(ChannelTap):
    """Baseline intercept-resend: Z-measures every forward qubit, sending
    the post-measurement eigenstate onward."""

    attack_name = "intercept-resend-z"
    _entry_reads = ("_reads",)

    def on_forward(self, rows, register, wires, rng):
        self._record(rows, register, rng)
        self._reads = rng.read(register, "measure_z", rows, wires)
        return wires

    def finalize(self, published, trial=0):
        return _raw_report(self, self._reads[self._entries(trial)])
