"""Exact pure-state simulation of small qubit registers, one at a time or
in batches.

A state is a dense real or complex numpy array of shape
``(2**n, *batch)``.  Axis 0 holds the ``2**n`` amplitudes of an
``n``-qubit register (``n <= 8``); the trailing batch axes index
independent registers of the same width.  A single state has batch shape
``()``; a chunk of sessions forms one array of batch shape ``(rows,)``,
one row per (trial, position).  Every preparation and gate here is real,
so sessions stay real.  Qubit 0 is the MOST significant bit of a
basis index: on a 3-qubit register the index ``0b011`` has qubit 0 in |0>
and qubits 1 and 2 in |1>.  Module functions return fresh arrays and a
:class:`Register` changes its own; collapses renormalize, so states stay
unit norm to double precision.  Every op, :func:`tensor` and
:func:`bell_probabilities` read an input state by one dtype rule,
:func:`_double`: float64 for a real or int state, complex128 for a
complex one, cast only when it is neither; a :class:`Register` and every
op that returns a state copy it by that rule (:func:`_owned`).

Every op finds its labels in one cached table builder, :func:`_table`,
which validates the wires when it builds a table.  Each (width, wires)
has one label table; every other entry of those wires is a view of it or
a gather through it, the rotation factors are one set per block shape
(:func:`_factors`), and every cached array is read-only.  A wire is an
int, the same for every row; on a batch with one axis an op may act on
some rows only, an ascending selection that :func:`_index` checks at both
ends.  A batch gathers its blocks once, rotates them by the butterfly
(:func:`_rotate_in`) and writes them back once, to the same place; CNOT
and SWAP exchange two blocks of one table.  A single state gathers its
rotated blocks straight from the state (:func:`_rotated`) and
:func:`apply_cnot` is one gather through a label permutation; the tests
pin both forms to the same bits, up to the sign of a zero.

X-basis labels follow the Hadamard image of the computational basis:
``PLUS == 0`` encodes |+> = H|0> and ``MINUS == 1`` encodes |-> = H|1>.
The X and Bell bases have one definition, the butterfly that measures in
them (:func:`_rotate_in`): :func:`prepare_x` and :func:`prepare_bell` run
it backwards on the basis vectors.

The measurement core, :func:`_collapse`, collapses the blocks where they
live and takes one uniform variate per measured state (one per row of a
batch).  The outcome is the first whose running sum of probabilities,
added from left to right, exceeds the uniform times their total: a tie
goes to the next outcome, and one of probability 0 is never picked, so a
collapse never divides by zero.  A single state has at most four
probabilities, so it picks in Python floats (:func:`_pick`), the same
double sums and product that numpy makes for a batch (:func:`_sample`),
and writes back the renormalized chosen block beside a zeroed block (Z) or
times its basis state (X, Bell); a batch zeroes the other blocks and
rotates them all back.  Both give the same outcomes and amplitudes, up to
the sign of a zero.  The public measurements draw those uniforms in a
single ``rng.random(batch)`` call on the caller's
``numpy.random.Generator``, one Python float (``rng.random()``, the same
double as a 0-d array draw) for a single state; a :class:`Register`
measurement also takes the uniforms themselves, in the shape of the
measured rows (:func:`_uniforms`).  Uniform ``i`` goes to row ``i``, so
runs are reproducible from the draws whatever the amplitudes happen to
be.  ``sqpc.attacks.Streams.read`` hands each row of a chunk the uniform
of its trial, draw site and position, so no draw depends on a wire.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math

import numpy as np

MAX_QUBITS = 8

SQRT_HALF = 1.0 / np.sqrt(2.0)

# X-basis outcome labels: the bit measured after a Hadamard.
PLUS = 0
MINUS = 1


class BellState(enum.Enum):
    """The four maximally entangled two-qubit basis states."""

    PHI_PLUS = 0   # (|00> + |11>) / sqrt(2)
    PHI_MINUS = 1  # (|00> - |11>) / sqrt(2)
    PSI_PLUS = 2   # (|01> + |10>) / sqrt(2)
    PSI_MINUS = 3  # (|01> - |10>) / sqrt(2)


_OUTCOMES = np.arange(4)


# The Hadamard (k = 2 outcome blocks) and the change from pair blocks
# (v1 << 1) | v2, v1 the first measured qubit, to Bell overlaps ordered by
# BellState value (k = 4) share one butterfly: with x the first k/2 blocks
# and y the last k/2 in reverse order, output rows 2i and 2i+1 are
# (x_i + y_i) / sqrt(2) and (x_i - y_i) / sqrt(2).  Element-wise adds, not
# a matrix product that may fuse a multiply into an add, so amplitudes of
# equal size cancel exactly and an outcome of probability 0 stays at 0.
# The preparation tables (row s = the state of label s) run it backwards
# on the basis vectors, so a prepared state measures to its own label.


def _rotate_in(parts: np.ndarray) -> np.ndarray:
    """Blocks (k, ...) into the measurement basis."""
    half = len(parts) // 2
    x, y = parts[:half], parts[::-1][:half]
    out = np.empty_like(parts)
    np.add(x, y, out=out[0::2])
    np.subtract(x, y, out=out[1::2])
    out *= SQRT_HALF
    return out


def _rotate_out(parts: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_rotate_in`: blocks back out of the measurement basis."""
    half = len(parts) // 2
    x, y = parts[0::2], parts[1::2]
    out = np.empty_like(parts)
    np.add(x, y, out=out[:half])
    np.subtract(x, y, out=out[::-1][:half])
    out *= SQRT_HALF
    return out


# Preparation tables, amplitude axis first and in C order: column s is the
# state of label s, so a ``take`` of columns prepares C-ordered states.
_Z_STATES = np.eye(2)
_X_STATES = _rotate_out(np.eye(2))
_BELL_STATES = _rotate_out(np.eye(4))


def num_qubits(amps: np.ndarray) -> int:
    """Number of qubits of a state (axis 0), validating its length."""
    size = amps.shape[0]
    n = size.bit_length() - 1
    if size != (1 << n) or n < 1:
        raise ValueError(f"state length {size} is not a power of two >= 2")
    return n


# Index tables.  ``_table(op, n, *wires)`` is built on first use and
# cached; wires are validated then, and a bad wire raises and is never
# cached, so a call that hits the cache needs no check.  The two-wire
# gates exchange two blocks of the two-wire table: a CNOT on (control,
# target) blocks 10 and 11, a SWAP blocks 01 and 10.  Entries share
# arrays, so every cached array is read-only.
_EXCHANGED = {"cnot": slice(2, 4), "swap": slice(1, 3)}


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=None)
def _table(op: str, n: int, *wires: int):
    """Labels an ``op`` on ``wires`` of an ``n``-qubit register gathers.

    For ``"blocks"``, a (2**k, 2**(n-k)) table for k wires: row b holds the
    labels whose wires read the bits of b, the first wire most significant,
    and column j the same assignment of the other qubits in every row.  The
    other entries derive from it: for ``"cnot"`` and ``"swap"`` on two
    wires, a view of the two blocks the gate exchanges (``_EXCHANGED``);
    ``"cnot_labels"``, the label a CNOT moves to each label; ``"rotated"``,
    the blocks, :func:`_rotated`'s two gather tables and the factors of
    their block shape (:func:`_factors`).
    """
    if op != "blocks":
        blocks = _table("blocks", n, *wires)
        if op == "cnot_labels":
            labels = np.arange(1 << n)
            labels[blocks[2]], labels[blocks[3]] = blocks[3], blocks[2]
            return _frozen(labels)
        if op == "rotated":  # row 2i + s: block i plus (s = 0) or minus block k - 1 - i
            rows = np.arange(len(blocks)) // 2
            return blocks, _frozen(blocks[rows]), _frozen(blocks[::-1][rows]), _factors(*blocks.shape)
        return blocks[_EXCHANGED[op]]  # a view of a read-only array is read-only
    for q in wires:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of bounds for a {n}-qubit register")
    if len(set(wires)) < len(wires):
        raise ValueError(f"wires {wires} must be distinct qubits")
    offsets = [0]
    for q in wires:
        offsets = [offset | bit for offset in offsets for bit in (0, 1 << (n - 1 - q))]
    labels = np.arange(1 << n)
    return _frozen(labels[(labels & offsets[-1]) == 0] | np.array(offsets)[:, None])


@functools.lru_cache(maxsize=None)
def _factors(k: int, m: int) -> dict:
    """:func:`_rotated`'s factors for (k, m) blocks, by dtype (float64,
    complex128): a full-size ±1 sign per row, ``SQRT_HALF`` and the k
    outcomes' basis states, all in that dtype.  One set per block shape,
    whatever the width and wires."""
    signs = np.broadcast_to(np.resize([1.0, -1.0], (k, 1)), (k, m))
    states = (_X_STATES if k == 2 else _BELL_STATES).T[:, :, None]
    return {t: (_frozen(signs.astype(t)), t.type(SQRT_HALF), tuple(_frozen(states.astype(t, order="C")))) for t in (_FLOAT, _COMPLEX)}


def _index(op: str, amps: np.ndarray, *wires: int, rows=None):
    """Where ``op`` on the int ``wires`` of ``rows`` (ascending indices
    into the one batch axis; every row when ``None``) reads and writes:
    ``amps`` and the axis-0 table ``_table(op, n, *wires)`` for every row,
    else ``amps.reshape(-1)`` and one flat index (a view: an op that writes
    passes a C-contiguous array).  A wire out of range, two equal wires or
    a row outside ``[0, rows of amps)`` raises ``ValueError``; a wire that
    is not hashable, such as an int array, raises ``TypeError``.  An empty
    selection reads and writes nothing.
    """
    table = _table(op, num_qubits(amps), *wires)
    if rows is None:
        return amps, table
    total = amps.shape[1]
    if len(rows) and (rows[0] < 0 or rows[-1] >= total):  # ascending: its ends bound it
        raise ValueError(f"rows must be ascending indices in [0, {total}), got {rows[0]} .. {rows[-1]}")
    return amps.reshape(-1), table[..., None] * total + rows


def _from_table(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The states of labels ``values``, columns of ``table``, with the
    amplitude axis first: shape ``(len(table), *values.shape)``, C order."""
    return table.take(values, axis=1)


def prepare_z(bit) -> np.ndarray:
    """|0> or |1>; an array of bits gives one state per bit, shape (2, *bits.shape)."""
    bits = np.asarray(bit)
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return _from_table(_Z_STATES, bits.astype(np.intp))


def prepare_x(sign) -> np.ndarray:
    """|+> (sign=PLUS) or |-> (sign=MINUS); an array of signs gives one
    state per sign, shape (2, *signs.shape)."""
    signs = np.asarray(sign)
    if not ((signs == PLUS) | (signs == MINUS)).all():
        raise ValueError(f"sign must be PLUS (0) or MINUS (1), got {sign!r}")
    return _from_table(_X_STATES, signs.astype(np.intp))


def prepare_bell(state) -> np.ndarray:
    """The requested Bell state; an array of ``BellState`` values gives one
    state per value, shape (4, *values.shape)."""
    values = np.asarray(state.value if isinstance(state, BellState) else state)
    ints = values.astype(np.intp, copy=False)
    if not ((ints == values) & (ints >= 0) & (ints <= 3)).all():
        raise ValueError(f"state must be a BellState value in 0..3, got {state!r}")
    return _from_table(_BELL_STATES, ints)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product on axis 0; the qubits of ``a`` precede (are more
    significant than) the qubits of ``b``.  Batch axes broadcast, so one
    state can be adjoined to every row of a batch."""
    n = num_qubits(a) + num_qubits(b)
    if n > MAX_QUBITS:
        raise ValueError(f"register overflow: {n} qubits exceeds the cap of {MAX_QUBITS}")
    a, b = _double(a), _double(b)
    batch = a.shape[1:] if a.ndim >= b.ndim else b.shape[1:]
    ndim = 1 + len(batch)
    a = a.reshape(a.shape + (1,) * (ndim - a.ndim))
    b = b.reshape(b.shape + (1,) * (ndim - b.ndim))
    return (a[:, None] * b[None, :]).reshape((-1,) + batch)


# numpy's own float64 and complex128 dtypes, native byte order.  A dtype
# test by identity costs no rich compare; an equal dtype that is another
# object is cast, which copies and is still right.
_FLOAT, _COMPLEX = np.dtype(float), np.dtype(complex)


def _double(amps: np.ndarray) -> np.ndarray:
    """A state in double precision: itself if native float64 or
    complex128, else a C-order cast, to float64 if real or int and to
    complex128 if complex."""
    dtype = amps.dtype
    if dtype is _FLOAT or dtype is _COMPLEX:
        return amps
    return amps.astype(_COMPLEX if dtype.kind == "c" else _FLOAT, order="C")


def _owned(amps: np.ndarray) -> np.ndarray:
    """A C-order copy of a state in double precision (:func:`_double`)."""
    dtype = amps.dtype
    if dtype is _FLOAT or dtype is _COMPLEX:
        return amps.copy()  # C order too, and cheaper than a cast
    return _double(amps)


def _rotated(amps: np.ndarray, wires: tuple):
    """A single state's blocks on ``wires``, :func:`_rotate_in` of them as
    ``(amps[a] + signs * amps[b]) * SQRT_HALF`` (the same bits, up to the
    sign of a zero if complex) and its outcomes' basis states.  Each factor
    is full size in the state's dtype: a cast or broadcast costs more."""
    blocks, a, b, factors = _table("rotated", num_qubits(amps), *wires)
    signs, half, bases = factors[amps.dtype]
    parts = amps[b]
    parts *= signs
    parts += amps[a]
    parts *= half
    return blocks, parts, bases


def apply_cnot(amps: np.ndarray, control, target) -> np.ndarray:
    """Flip ``target`` on every basis label whose ``control`` bit is 1."""
    return _double(amps)[_table("cnot_labels", num_qubits(amps), control, target)]


def apply_hadamard(amps: np.ndarray, q) -> np.ndarray:
    """Hadamard on one qubit (the basis change used by X measurements)."""
    if amps.ndim == 1:
        blocks, parts, _ = _rotated(_double(amps), (q,))
        out = np.empty(amps.shape, parts.dtype)
        out[blocks] = parts
        return out
    out = _owned(amps)
    flat, index = _index("blocks", out, q)
    flat[index] = _rotate_in(flat[index])
    return out


def _probabilities(parts: np.ndarray) -> np.ndarray:
    """(k, *batch) outcome probabilities of (k, m, *batch) outcome blocks."""
    weights = np.abs(parts)
    weights *= weights
    return np.add.reduce(weights, 1)


def _sample(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One outcome index per state from (k, *batch) probabilities and one
    uniform in [0, 1) per state (shape ``batch``).

    The outcome is the first whose cumulative probability exceeds the
    uniform scaled by the total, so it has nonzero probability.  One always
    exists: a uniform below 1 times a normal float rounds to below it.
    """
    cumulative = np.add.accumulate(probs, 0)
    return (cumulative <= uniforms * cumulative[-1]).argmin(0)


def _pick(probs: list[float], uniform: float) -> int:
    """:func:`_sample` for one state, in Python floats: the same running
    sums from left to right and the same scaled uniform, so the same
    outcome, without the fixed cost of numpy calls on k <= 4 values."""
    sums = list(itertools.accumulate(probs))
    threshold = uniform * sums[-1]
    for outcome, total in enumerate(sums):
        if total > threshold:
            return outcome
    return 0  # as argmin gives when no sum exceeds it: a total of 0 or subnormal


# The smallest normal double, added under the square root so that an
# outcome of probability 0, which is never the chosen one, scales by
# 0 / sqrt(TINY) = 0 rather than 0 / 0.
_TINY = 2.0**-1022


def _uniforms(rng, shape: tuple):
    """The uniforms of a measurement of states of batch ``shape``: one
    ``rng.random`` call (a Python float for a single state), or ``rng``
    itself when it holds them, which must then have that shape."""
    if not isinstance(rng, (float, np.ndarray)):
        return rng.random(shape or None)
    if getattr(rng, "shape", ()) != shape:  # a float has no shape attribute
        expected = f"an array of shape {shape}" if shape else "a float or a 0-d array"
        raise ValueError(f"uniforms must be {expected}, one per measured state; got shape {np.shape(rng)}")
    return rng


def _collapse(amps: np.ndarray, wires: tuple, rng, rotated: bool = False, rows=None, out=None):
    """Projective measurement of ``wires`` of ``rows`` of ``amps`` (native
    float64 or complex128; every row when ``None``), in the X or Bell basis
    when ``rotated``, with the uniforms of :func:`_uniforms`: renormalizes
    the collapsed blocks in ``amps``, or all of a single state's amplitudes
    in ``out`` when given, and returns the outcome, an ``int`` for a single
    state.  A single state writes the products :func:`_rotate_out` makes of
    one nonzero block; a batch zeroes the other blocks and rotates them all
    back, cheaper there than gathering each row's block and basis state."""
    if amps.ndim > 1 or rows is not None:
        shape = amps.shape[1:] if rows is None else (len(rows),)
        amps, index = _index("blocks", amps, *wires, rows=rows)
        parts = amps[index]
        if rotated:
            parts = _rotate_in(parts)
        probs = _probabilities(parts)
        outcome = _sample(probs, _uniforms(rng, shape))
        chosen = _OUTCOMES[: len(parts)].reshape((-1,) + (1,) * outcome.ndim) == outcome
        parts *= (chosen / np.sqrt(probs + _TINY))[:, None]
        amps[index] = _rotate_out(parts) if rotated else parts
        return outcome
    out = amps if out is None else out
    if rotated:
        blocks, parts, bases = _rotated(amps, wires)
    else:
        blocks = _table("blocks", num_qubits(amps), *wires)
        parts = amps[blocks]
    probs = _probabilities(parts).tolist()
    outcome = _pick(probs, float(_uniforms(rng, ())))
    block = parts[outcome] * (1.0 / math.sqrt(probs[outcome] + _TINY))
    if rotated:
        out[blocks] = bases[outcome] * block
    else:
        out[blocks[outcome]] = block
        out[blocks[1 - outcome]] = 0
    return outcome


def _measure(amps: np.ndarray, wires: tuple, rng: np.random.Generator, rotated: bool = False):
    """A module measurement: the outcome and a collapsed copy of ``amps``."""
    if amps.ndim > 1:
        out = _owned(amps)
        return _collapse(out, wires, rng, rotated), out
    amps = _double(amps)
    out = np.empty_like(amps)
    return _collapse(amps, wires, rng, rotated, out=out), out


_BELL_LABELS = tuple(BellState)


def _bell(outcome):
    """A ``BellState`` for a single state, an int array of ``BellState``
    values for a batch."""
    return _BELL_LABELS[outcome] if isinstance(outcome, int) else outcome


def measure_z(amps: np.ndarray, q, rng: np.random.Generator):
    """Projective Z measurement of one qubit.

    Parameters
    ----------
    amps : ndarray
        Unit-norm state, shape ``(2**n, *batch)``.
    q : int
        Qubit to measure, the same in every state.
    rng : numpy.random.Generator
        Source of the Born-rule draws, one per state: a Python float for
        a single state.

    Returns
    -------
    (bit, collapsed)
        The sampled outcome (an ``int`` for a single state, an int array
        of shape ``batch`` otherwise) and the renormalized states.
    """
    return _measure(amps, (q,), rng)


def measure_x(amps: np.ndarray, q, rng: np.random.Generator):
    """Projective X measurement of one qubit.

    Returns PLUS (0) for |+> and MINUS (1) for |->, with the collapsed
    state left in the corresponding X eigenstate; shapes as in
    :func:`measure_z`.
    """
    return _measure(amps, (q,), rng, rotated=True)


def bell_probabilities(amps: np.ndarray, q1, q2) -> np.ndarray:
    """Born probabilities of the four Bell outcomes on qubits (q1, q2),
    ordered by ``BellState`` value: shape ``(4, *batch)``."""
    flat, index = _index("blocks", _double(amps), q1, q2)
    return _probabilities(_rotate_in(flat[index]))


def measure_bell(amps: np.ndarray, q1, q2, rng: np.random.Generator):
    """Projective measurement of qubits (q1, q2) in the Bell basis.

    The outcome is sampled from the four Bell projector probabilities and
    the returned state is the renormalized collapse, with the pair left in
    the measured Bell state and the rest of the register updated
    accordingly.  A single state gives a ``BellState``; a batch gives an
    int array of ``BellState`` values.
    """
    outcome, out = _measure(amps, (q1, q2), rng, rotated=True)
    return _bell(outcome), out


def amplitudes_close(amps: np.ndarray, expected: np.ndarray, tol: float) -> bool:
    """True when the two single states agree entrywise within ``tol`` up to
    one global phase factor.

    The phase is read off the largest-magnitude entry of ``expected``, so
    orthogonal states and single-entry sign flips are reported as different
    while an overall phase (unobservable) is forgiven.
    """
    if amps.shape != expected.shape:
        raise ValueError(f"dimension mismatch: {amps.shape} vs {expected.shape}")
    i = int(np.argmax(np.abs(expected)))
    if abs(amps[i]) < 1e-300 or abs(expected[i]) < 1e-300:
        phase = 1.0
    else:
        phase = amps[i] / expected[i]
        phase = phase / abs(phase)
    return bool(np.max(np.abs(amps - phase * expected)) <= tol)


class Register:
    """Mutable qubit register: one state, or a batch of same-width states.

    The register owns its amplitudes: it copies the array it is built from
    (:func:`_owned`), and its gates and measurements change that copy in
    place.  Qubits can only be adjoined (never removed), so wire indices handed out by
    :meth:`adjoin` stay valid for the life of the register, and every row
    of a batch has the same width.  A row that does not need an adjoined
    qubit keeps it idle in |0>.  Gates and measurements act on every row,
    or only on ``rows`` when given: ascending indices into the single batch
    axis, a row outside it raising ``ValueError`` before anything moves.
    Each wire is an int, the same for all of them.  A measurement takes a
    ``numpy.random.Generator``, or the uniforms themselves, an array of one
    per selected row (a float or 0-d array for a single state); uniform
    ``i`` goes to the i-th selected row.
    Adversary taps act on registers exclusively through these methods and
    the row count ``num_rows``, never by reading amplitudes, so that every
    bit an attacker learns comes from a measurement outcome.
    """

    def __init__(self, amps: np.ndarray):
        self.amps = _owned(np.asarray(amps))
        num_qubits(self.amps)  # validates the length

    @property
    def n(self) -> int:
        return num_qubits(self.amps)

    @property
    def num_rows(self) -> int:
        return self.amps.shape[1]

    def adjoin(self, amps: np.ndarray) -> int:
        """Tensor a fresh (sub)state onto every row: one state for all rows,
        or shape ``(2**k, *batch)`` for one per row.  Returns the wire index
        of its first qubit."""
        wire = self.n
        self.amps = tensor(self.amps, amps)
        return wire

    def cnot(self, control: int, target: int, rows=None) -> None:
        amps, index = _index("cnot", self.amps, control, target, rows=rows)
        amps[index] = amps[index][::-1]

    def swap(self, w1: int, w2: int, rows=None) -> None:
        """Exchange the qubits on wires ``w1`` and ``w2``."""
        amps, index = _index("swap", self.amps, w1, w2, rows=rows)
        amps[index] = amps[index][::-1]

    def hadamard(self, wire, rows=None) -> None:
        amps, index = _index("blocks", self.amps, wire, rows=rows)
        amps[index] = _rotate_in(amps[index])

    def measure_z(self, wire, rng: np.random.Generator | np.ndarray | float, rows=None):
        return _collapse(self.amps, (wire,), rng, rows=rows)

    def measure_x(self, wire, rng: np.random.Generator | np.ndarray | float, rows=None):
        return _collapse(self.amps, (wire,), rng, rotated=True, rows=rows)

    def measure_bell(self, w1, w2, rng: np.random.Generator | np.ndarray | float, rows=None):
        return _bell(_collapse(self.amps, (w1, w2), rng, rotated=True, rows=rows))
