"""Channel-tap adversaries for both comparison protocols.

Sessions run in chunks: consecutive trials of one experiment share one
batched register whose rows are (trial, position), trial-major, and each
trial draws from its own counter-based stream (:class:`Streams`).  A tap
sits on one participant's quantum channel in every trial of a chunk and
gets one hook call for the forward transits (TP to participant) of all
those positions and one for the return transits (participant to TP).  A hook
receives the register rows that carry the channel's positions in every
trial of the chunk, trial-major (entry ``i`` sits on row ``rows[i]``),
and the channel's wire, an int: every qubit on the channel travels on
it, both ways.  Every trial makes its transits, also one that aborts
later for too few SIFT positions.  A hook may grow the register with
ancillas (one per row), apply gates through the register API and
measure through :meth:`Streams.read`; it returns nothing.  Bits have
one format from the draw that makes them to the score that reads them:
1-D int arrays.  Secrets, keys, R, masks, messages and disclosures
hold 0s and 1s; reads and claims hold -1 where nothing was read or
claimed.  A tap keeps its reads as (trial, position) arrays, and
``finalize`` reports one trial's row raw, over its channel positions; the protocol, which knows what each position
carries, decodes them into claims over message indices.  Every hook and
``begin_session`` takes the chunk's :class:`Streams`, which make every
draw of the chunk, each at a named site of ``SITES`` (a tap's sites
name its channel); a single session is a chunk of one trial.  Nothing
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
* ``MaliciousAgent``, a legitimate participant who Z-measures the other
  participant's returned qubits in place and sends them on, either at its
  own SIFT positions (where TP never Bell-checks) or at a random position
  subset.
* ``BlockingAttacker``, who X-measures returned qubits to corrupt the
  integrity of TP's classical reads without learning anything.
* ``InterceptResendZ``, the naive baseline that Z-measures every forward
  qubit in place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .kernel import Register, prepare_z


# Every draw site of a chunk, by name, and the index that keys its
# counters.  The harness draws the compared secrets and the pre-shared
# key; "prepare" is TP's Bell variants or photon signs; the Bell-state
# protocol's participants draw R and the coin policy's filler bits, the
# improved protocol's their measure-resend reads and disclosure orders;
# a tap on a channel draws its attacked positions ("attack"), its probe
# reads and its reads of the channel's qubits ("intercept"); TP reads
# last.
SITES = {
    name: index
    for index, name in enumerate(
        (
            "secret_a", "differ", "secret_b", "key", "prepare",
            "modes_A", "modes_B", "r_A", "r_B", "filler_A", "filler_B", "sift", "disclose_A", "disclose_B",
            "attack_A", "attack_B", "probe_A", "probe_B", "intercept_A", "intercept_B",
            "tp_bell", "tp_z_A", "tp_z_B", "tp_x", "tp_z",
        )
    )
}

_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def splitmix64(seed: int, index: int) -> int:
    """Output ``index`` (from 0) of the SplitMix64 stream seeded with
    ``seed`` (Steele, Lea & Flood, OOPSLA 2014), in Python ints."""
    z = (seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


# The multipliers for uint64 arrays, which wrap silently where a numpy
# scalar multiply would warn.
_UINT_MIX1, _UINT_MIX2 = np.uint64(_MIX1), np.uint64(_MIX2)
# Or-ed onto 52 hash bits, the bit pattern of a double in [1, 2).
_ONE = np.uint64(0x3FF0000000000000)


@functools.lru_cache(maxsize=None)
def _offsets(width: int) -> np.ndarray:
    """``(counter + 1) * gamma`` of every (site, position) counter below
    ``width``, ``site << 32 | position``, shape (sites, 1, width)."""
    counters = np.arange(len(SITES), dtype=np.uint64)[:, None, None] << 32 | np.arange(width, dtype=np.uint64)
    return (counters + 1) * np.uint64(_GAMMA)


class Streams:
    """The random streams of a chunk of trials, one 64-bit key per trial in
    trial order, and every draw the chunk makes.

    Every value is a pure function of (trial key, draw site, position): the
    output ``site << 32 | position`` of the SplitMix64 stream seeded with
    the key, a counter-based generator (Salmon et al., SC 2011).  So a
    trial draws the same values in any chunk, and a read draws the same
    whatever wire its qubit is on.  The constructor hashes every site's
    counters below ``width`` for the whole chunk at once; a draw that
    reaches past them hashes again, wider.  Each draw method
    (:meth:`random`, :meth:`integers`, :meth:`permutation`) takes a site
    of ``SITES`` and returns one row per trial.  Every measurement of a
    session or a tap goes through :meth:`read`, which puts -1 where
    nothing was measured.  Trial i of a run seeded with ``seed`` has the
    key ``splitmix64(seed, i)`` (:meth:`seeded`); a lone session is trial 0.
    """

    def __init__(self, keys, width: int = 0):
        self.trial_keys = np.asarray(keys, dtype=np.uint64)
        self._hash(width)

    @classmethod
    def seeded(cls, seed: int, trials: range, width: int = 0) -> "Streams":
        """``trials`` of a run seeded with ``seed``, an int in [0, 2**64): trial i has the key ``splitmix64(seed, i)``."""
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")
        return cls([splitmix64(seed, i) for i in trials], width)

    def __len__(self) -> int:
        return len(self.trial_keys)

    def _hash(self, width: int) -> None:
        """SplitMix64 of every trial key with every counter below ``width``."""
        bits = self.trial_keys[:, None] + _offsets(width)
        bits ^= bits >> 30
        bits *= _UINT_MIX1
        bits ^= bits >> 27
        bits *= _UINT_MIX2
        bits ^= bits >> 31
        # The top 52 bits as the mantissa of a double in [1, 2), less 1:
        # exactly (bits >> 12) / 2**52, without an int-to-float cast.
        uniforms = ((bits >> 12) | _ONE).view(np.float64)
        uniforms -= 1.0
        bits.flags.writeable = uniforms.flags.writeable = False
        self._bits, self._uniforms = bits, uniforms

    def _site(self, site: str, size: int, bits: bool = False) -> np.ndarray:
        """Positions 0..size-1 of ``site``, one row per trial: uniforms, or
        the hash outputs they come from with ``bits``."""
        if size > self._bits.shape[2]:
            self._hash(size)
        return (self._bits if bits else self._uniforms)[SITES[site], :, :size]

    @staticmethod
    def check(streams) -> None:
        """Refuse anything but a ``Streams``: a bare generator has draw
        methods of the same names that draw something else."""
        if not isinstance(streams, Streams):
            raise TypeError(f"expected a Streams, got {type(streams).__name__}")

    def random(self, site: str, size: int | None = None) -> np.ndarray:
        """Uniforms in [0, 1), 52 bits each: ``size`` per trial, or one
        per trial (position 0) without a size."""
        uniforms = self._site(site, size or 1)
        return uniforms if size is not None else uniforms[:, 0]

    def integers(self, site: str, high: int, size: int) -> np.ndarray:
        """Ints in [0, ``high``), ``size`` per trial: each uniform scaled by
        ``high`` and truncated, exact for a power of two."""
        return (self.random(site, size) * high).astype(np.intp)

    def permutation(self, site: str, n: int) -> np.ndarray:
        """A uniformly random permutation of ``n`` per trial: the order of
        the site's first n hash outputs, which never tie."""
        return self._site(site, n, bits=True).argsort(axis=1)

    def read(self, register: Register, op: str, site: str, rows: np.ndarray, *wires: int, picked=None) -> np.ndarray:
        """The reads of ``register`` measurement ``op`` (``"measure_z"``,
        ``"measure_x"`` or ``"measure_bell"``) of ``rows`` (ascending) on
        the int ``wires``; with ``picked``, a boolean mask aligned with
        ``rows``, of the entries it marks only, -1 at the others.

        Row r, position ``r % k`` of trial ``r // k`` for the register's k
        rows per trial, takes the uniform of that trial, ``site`` and that
        position, in one pass: one kernel call, with no row selection for
        all of the register's rows, and no call for no rows.
        """
        if picked is not None and picked.dtype != bool:
            raise TypeError(f"picked must be a boolean mask, got dtype {picked.dtype}")
        # One scan of the mask rather than one in each of the indexings.
        picked = None if picked is None else picked.nonzero()[0]
        measured = rows if picked is None else rows[picked]
        if not len(measured):
            reads = np.zeros(0, dtype=np.intp)
        else:
            uniforms = self.random(site, register.num_rows // len(self)).reshape(-1)
            every = len(measured) == register.num_rows
            reads = getattr(register, op)(*wires, uniforms if every else uniforms[measured], None if every else measured)
        if picked is None:
            return reads
        filled = np.full(len(rows), -1, dtype=np.intp)
        filled[picked] = reads
        return filled


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
    positions per trial, ``_attack_mask``.  A hook keeps its reads as
    (trial, position) arrays, which the chunk's next hooks replace, and
    ``finalize`` reports row ``trial`` of them.
    """

    target: str = "A"
    identity: str | None = None
    key: np.ndarray | None = None  # (trials, L): one key per trial of the chunk
    attack_name: str = "none"
    attack_count: int | None = None

    def __init__(self, target: str = "A"):
        self.target = target
        self.begin_session(0, None)

    def begin_session(self, num_positions: int, rng: Streams) -> None:
        """Called once per chunk, before any transit, with the per-channel
        position count and the chunk's :class:`Streams`.  Draws each
        trial's attacked positions."""
        self._attack_mask = _attack_mask(self.attack_count, num_positions, rng, "attack_" + self.target)

    def observe_own_modes(self, sift: np.ndarray) -> None:
        """Only called when ``identity`` names a participant, with its SIFT
        masks, one row per trial of the chunk."""

    def on_forward(self, rows: np.ndarray, register: Register, wire: int, rng: Streams) -> None:
        """Forward transits of every position of the channel in every
        trial of the chunk, trial-major: entry i sits on row ``rows[i]`` of
        ``register``, and every entry travels on the channel's ``wire``."""

    def on_return(self, rows: np.ndarray, register: Register, wire: int, rng: Streams) -> None:
        """Return transits; same contract as :meth:`on_forward`."""

    def finalize(self, published: PublicRecord, trial: int = 0) -> AttackReport | None:
        """The report of trial ``trial`` of the chunk, given its public record."""
        return None


# The ancilla of every row; adjoining copies it into the register.
_ZERO = prepare_z(0)


def _raw_report(tap: ChannelTap, reads: np.ndarray) -> AttackReport:
    """A report of channel reads, probing every position read."""
    return AttackReport(tap.attack_name, tap.target, probed_positions=(reads >= 0).nonzero()[0], intercepted_bits=reads)


def _attack_mask(count: int | None, num_positions: int, rng: Streams, site: str) -> np.ndarray | None:
    """Per trial, a uniformly random ``count``-subset of the positions as a
    mask drawn at ``site``, one row per trial; ``None`` (attack everything
    the tap's policy allows) without a count.  Raises ValueError for a
    count outside [0, ``num_positions``]."""
    if count is None:
        return None
    if not 0 <= count <= num_positions:
        raise ValueError(f"attack count must lie in [0, {num_positions}], the positions of the channel, got {count}")
    Streams.check(rng)
    mask = np.zeros((len(rng), num_positions), dtype=bool)
    np.put_along_axis(mask, rng.permutation(site, num_positions)[:, :count], True, axis=1)
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

    def __init__(self, target: str = "A", midflight: bool = False):
        super().__init__(target)
        self.midflight = midflight
        self.attack_name = "double-cnot-midflight" if midflight else "double-cnot"

    def _probe(self, rows, register, wire) -> None:
        # All of the register's rows go as no row selection: one axis-0 gather.
        register.cnot(wire, self._ancilla, None if len(rows) == register.num_rows else rows)

    def on_forward(self, rows, register, wire, rng):
        self._ancilla = register.adjoin(_ZERO)
        self._probe(rows, register, wire)
        if self.midflight:
            reads = rng.read(register, "measure_z", "intercept_" + self.target, rows, self._ancilla)
            self._forward_reads = reads.reshape(len(rng), -1)

    def on_return(self, rows, register, wire, rng):
        self._probe(rows, register, wire)
        indicator = rng.read(register, "measure_z", "probe_" + self.target, rows, self._ancilla)
        self._indicator = indicator.reshape(len(rng), -1)
        if not self.midflight:
            reads = rng.read(register, "measure_z", "intercept_" + self.target, rows, wire, picked=indicator == 1)
            self._data_bits = reads.reshape(len(rng), -1)

    def finalize(self, published, trial=0):
        reads = (self._forward_reads if self.midflight else self._data_bits)[trial]
        probed = np.arange(len(reads))
        report = AttackReport(self.attack_name, self.target, probed_positions=probed, intercepted_bits=reads)
        report.indicator_bits = indicator = self._indicator[trial]
        # Mid-flight, the second ancilla read is (mid-flight value) XOR
        # (returned bit), so XOR-ing the two reads, which exist at every
        # probed position, gives the returned bit.
        report.payload_reads = reads ^ indicator if self.midflight else reads
        if published.modes is not None:
            report.indicator_opportunities = int(np.count_nonzero(published.modes[self.target]))
        return report


class MaliciousAgent(ChannelTap):
    """A participant who Z-measures the victim's returned qubits and sends
    each measured qubit on: it is then the product Z eigenstate of its
    read, the state a fresh qubit carrying the read would be, so the
    resend is the qubit itself, on the channel's wire.

    By default it intercepts exactly at its own SIFT positions, the ones
    TP can never verify with a Bell measurement in the base protocol, so
    the theft is invisible there.  ``intercept_count=m`` switches to
    Z-measuring m uniformly chosen return positions instead (the knob
    used to trace the improved protocol's detection curve).  Holding the
    pre-shared key (one, or one per trial of a chunk), the agent decodes
    victim secret bits from whatever the session later publishes.
    """

    attack_name = "malicious-agent"
    _own_sift: np.ndarray | None = None

    def __init__(self, victim: str = "A", key=None, intercept_count: int | None = None):
        super().__init__(victim)
        self.identity = "B" if victim == "A" else "A"
        self.key = None if key is None else np.atleast_2d(key)
        self.attack_count = intercept_count

    def observe_own_modes(self, sift):
        self._own_sift = sift

    def on_return(self, rows, register, wire, rng):
        chosen = self._own_sift if self._attack_mask is None else self._attack_mask
        attacked = np.zeros(len(rows), dtype=bool) if chosen is None else chosen.ravel()
        reads = rng.read(register, "measure_z", "intercept_" + self.target, rows, wire, picked=attacked)
        self._reads = reads.reshape(len(rng), -1)

    def finalize(self, published, trial=0):
        reads = self._reads[trial]
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

    def __init__(self, target: str = "A", attack_count: int | None = None):
        super().__init__(target)
        self.attack_count = attack_count

    def on_return(self, rows, register, wire, rng):
        attacked = None if self._attack_mask is None else self._attack_mask.ravel()
        reads = rng.read(register, "measure_x", "intercept_" + self.target, rows, wire, picked=attacked)
        self._reads = reads.reshape(len(rng), -1)

    def finalize(self, published, trial=0):
        return _raw_report(self, self._reads[trial])


class InterceptResendZ(ChannelTap):
    """Baseline intercept-resend: Z-measures every forward qubit, sending
    the post-measurement eigenstate onward."""

    attack_name = "intercept-resend-z"

    def on_forward(self, rows, register, wire, rng):
        self._reads = rng.read(register, "measure_z", "intercept_" + self.target, rows, wire).reshape(len(rng), -1)

    def finalize(self, published, trial=0):
        return _raw_report(self, self._reads[trial])
