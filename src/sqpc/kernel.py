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
and qubits 1 and 2 in |1>.  All operations return fresh arrays or
collapse-and-renormalize, so states stay unit norm to double precision.

Every gate and measurement, and :func:`bell_probabilities`, gathers axis 0
through one dispatch, :func:`_index`, from one cached table builder,
:func:`_table`, which validates the wires when it builds a table.  On a
batch with one axis each wire may also be one per row, an int array
aligned with the rows, so rows whose qubits travel on different wires
share one call.  Int wires, and per-row wires that every row shares,
gather along axis 0 through the table of their (width, wires); mixed
per-row wires gather each row through its own table, picked from the one
per-width stack of those tables, :func:`_stack`.

X-basis labels follow the Hadamard image of the computational basis:
``PLUS == 0`` encodes |+> = H|0> and ``MINUS == 1`` encodes |-> = H|1>.

The measurement core, :func:`_measure`, takes one uniform variate per
measured state (one per row of a batch) and never sees a generator.  The
public measurements draw those uniforms in a single ``rng.random(batch)``
call on the caller's ``numpy.random.Generator`` (or any object whose
``random(shape)`` returns uniforms of that shape, such as a chunk of
trials' own draws): uniform ``i`` goes to row ``i``, whatever the row's
wires.  Whole-protocol runs are then reproducible from a single seed
whatever the amplitudes happen to be.  A
caller that hands out the uniforms to its rows in wire order, by a stable
sort, draws exactly what one call per distinct wire, in ascending wire
order, would draw; ``sqpc.attacks.Streams.measure`` does that for a
chunk's rows.  The
outcome is the first one whose cumulative probability exceeds the scaled
uniform; when rounding leaves the uniform at the total, it is the last
outcome of nonzero probability, so a collapse never divides by zero.
"""

from __future__ import annotations

import enum
import functools
import itertools

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


# Row v = BellState(v), column (v1 << 1) | v2 = pair basis label, v1 the
# first measured qubit.
_BELL_MATRIX = np.array(
    [
        [SQRT_HALF, 0.0, 0.0, SQRT_HALF],
        [SQRT_HALF, 0.0, 0.0, -SQRT_HALF],
        [0.0, SQRT_HALF, SQRT_HALF, 0.0],
        [0.0, SQRT_HALF, -SQRT_HALF, 0.0],
    ],
)

_Z_STATES = np.eye(2)

_OUTCOMES = np.arange(4)

# Row s = the X eigenstate with sign s; the Hadamard.
_HADAMARD = np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]])


# The Hadamard (k = 2 outcome blocks) and the change from pair blocks
# (v1 << 1) | v2 to Bell overlaps ordered by BellState value (k = 4, the
# rows of _BELL_MATRIX) share one butterfly: with x the first k/2 blocks
# and y the last k/2 in reverse order, output rows 2i and 2i+1 are
# (x_i + y_i) / sqrt(2) and (x_i - y_i) / sqrt(2).  Element-wise adds, not
# a matrix product that may fuse a multiply into an add, so amplitudes of
# equal size cancel exactly and an outcome of probability 0 stays at 0.


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


def num_qubits(amps: np.ndarray) -> int:
    """Number of qubits of a state (axis 0), validating its length."""
    size = amps.shape[0]
    n = size.bit_length() - 1
    if size != (1 << n) or n < 1:
        raise ValueError(f"state length {size} is not a power of two >= 2")
    return n


def _check_wire(q: int, n: int) -> None:
    if not 0 <= q < n:
        raise ValueError(f"qubit {q} out of bounds for a {n}-qubit register")


# Index tables.  ``_table(op, n, *wires)`` is built on first use and
# cached; wires are validated then, and a bad wire raises and is never
# cached, so an int-wire call that hits the cache needs no check.


@functools.lru_cache(maxsize=None)
def _table(op: str, n: int, *wires: int) -> np.ndarray:
    """Labels an ``op`` on ``wires`` of an ``n``-qubit register gathers.

    For ``"blocks"``, a (2**k, 2**(n-k)) table for k wires: row b holds the
    labels whose wires read the bits of b, the first wire most significant,
    and column j the same assignment of the other qubits in every row.  For
    ``"cnot"`` on (control, target), the basis label each output label
    reads from: the two-wire blocks with blocks 10 and 11 swapped.
    """
    for q in wires:
        _check_wire(q, n)
    if len(set(wires)) < len(wires):
        raise ValueError(f"wires {wires} must be distinct qubits")
    offsets = [0]
    for q in wires:
        offsets = [offset | bit for offset in offsets for bit in (0, 1 << (n - 1 - q))]
    labels = np.arange(1 << n)
    blocks = labels[(labels & offsets[-1]) == 0] | np.array(offsets)[:, None]
    if op == "cnot":
        labels[blocks] = blocks[[0, 1, 3, 2]]
        return labels
    return blocks


@functools.lru_cache(maxsize=None)
def _stack(op: str, n: int, k: int) -> np.ndarray:
    """Every ``_table(op, n, *wires)`` of ``k`` wires side by side on one
    trailing axis, entry w for wires (w,) or w1 * n + w2 for wires (w1, w2),
    so one ``take`` picks each row's table by its wires.  Entries whose two
    wires coincide are left at label 0 and never used: per-row wires are
    checked first."""
    unused = np.zeros_like(_table(op, n, *range(k)))
    wires = itertools.product(range(n), repeat=k)
    return np.stack([_table(op, n, *w) if len(set(w)) == k else unused for w in wires], axis=-1)


def _index(op: str, amps: np.ndarray, *wires):
    """Where ``op`` on ``wires`` gathers ``amps`` from.

    Int wires get the axis-0 table ``_table(op, n, *wires)``.  On a batch
    with one axis a wire may also be one per row, an int array aligned with
    it.  When every row shares its wires that is still the axis-0 table;
    otherwise it is a (labels, columns) pair that gathers row i through the
    table of its own wires, picked from ``_stack``.  A wire out of range,
    or two wires equal on some row, raises ``ValueError``.
    """
    n = num_qubits(amps)
    if np.ndarray not in map(type, wires):
        return _table(op, n, *wires)
    shared = []
    for w in wires:
        if not (isinstance(w, np.ndarray) and w.ndim):
            _check_wire(int(w), n)
            shared.append(int(w))
            continue
        if w.shape != amps.shape[1:] or w.ndim != 1:
            raise ValueError(f"per-row wires of shape {w.shape} do not align with a batch of shape {amps.shape[1:]}")
        if not w.size:
            shared.append(None)
            continue
        low, high = int(np.minimum.reduce(w)), int(np.maximum.reduce(w))
        if low < 0 or high >= n:
            raise ValueError(f"qubit {low if low < 0 else high} out of bounds for a {n}-qubit register")
        shared.append(low if low == high else None)
    if None not in shared:
        return _table(op, n, *shared)
    if len(wires) == 2 and np.any(np.equal(*wires)):
        raise ValueError("the two wires of a row must be distinct qubits")
    entry = wires[0] if len(wires) == 1 else wires[0] * n + wires[1]
    # ``take`` keeps the labels contiguous, and so the gathered blocks.
    return _stack(op, n, len(wires)).take(entry, axis=-1), np.arange(amps.shape[1])


def _from_table(table: np.ndarray, values) -> np.ndarray:
    """States ``table[values]`` with the amplitude axis first."""
    return table.T[:, values]


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
    return _from_table(_HADAMARD, signs.astype(np.intp))


def prepare_bell(state) -> np.ndarray:
    """The requested Bell state; an array of ``BellState`` values gives one
    state per value, shape (4, *values.shape)."""
    values = np.asarray(state.value if isinstance(state, BellState) else state)
    ints = values.astype(np.intp, copy=False)
    if not ((ints == values) & (ints >= 0) & (ints <= 3)).all():
        raise ValueError(f"state must be a BellState value in 0..3, got {state!r}")
    return _from_table(_BELL_MATRIX, ints)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product on axis 0; the qubits of ``a`` precede (are more
    significant than) the qubits of ``b``.  Batch axes broadcast, so one
    state can be adjoined to every row of a batch."""
    n = num_qubits(a) + num_qubits(b)
    if n > MAX_QUBITS:
        raise ValueError(f"register overflow: {n} qubits exceeds the cap of {MAX_QUBITS}")
    batch = a.shape[1:] if a.ndim >= b.ndim else b.shape[1:]
    ndim = 1 + len(batch)
    a = a.reshape(a.shape + (1,) * (ndim - a.ndim))
    b = b.reshape(b.shape + (1,) * (ndim - b.ndim))
    return (a[:, None] * b[None, :]).reshape((-1,) + batch)


def apply_cnot(amps: np.ndarray, control, target) -> np.ndarray:
    """Flip ``target`` on every basis label whose ``control`` bit is 1.
    Either wire may be one per row (see :func:`_index`)."""
    return amps[_index("cnot", amps, control, target)]


def apply_hadamard(amps: np.ndarray, q) -> np.ndarray:
    """Hadamard on one qubit (the basis change used by X measurements)."""
    index = _index("blocks", amps, q)
    out = np.empty_like(amps)
    out[index] = _rotate_in(amps[index])
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


# The smallest normal double, added under the square root so that an
# outcome of probability 0, which is never the chosen one, scales by
# 0 / sqrt(TINY) = 0 rather than 0 / 0.
_TINY = 2.0**-1022


def _measure(amps: np.ndarray, index, uniforms: np.ndarray, rotated: bool = False):
    """Projective measurement onto the outcome blocks ``amps[index]``,
    rotated into the X or Bell basis by :func:`_rotate_in` when
    ``rotated``, sampled with one uniform per state (see :func:`_sample`).
    Returns the outcome indices (shape ``batch``) and the renormalized
    collapsed states."""
    parts = amps[index]
    if rotated:
        parts = _rotate_in(parts)
    probs = _probabilities(parts)
    outcome = _sample(probs, uniforms)
    chosen = _OUTCOMES[: len(parts)].reshape((-1,) + (1,) * outcome.ndim) == outcome
    parts = parts * (chosen / np.sqrt(probs + _TINY))[:, None]
    if rotated:
        parts = _rotate_out(parts)
    out = np.empty_like(amps)
    out[index] = parts
    return outcome, out


def _bits(outcome: np.ndarray):
    """An ``int`` for a single state, an int array for a batch."""
    return int(outcome) if outcome.ndim == 0 else outcome


def measure_z(amps: np.ndarray, q, rng: np.random.Generator):
    """Projective Z measurement of one qubit.

    Parameters
    ----------
    amps : ndarray
        Unit-norm state, shape ``(2**n, *batch)``.
    q : int or ndarray
        Qubit to measure: one for every state, or one per row of a batch
        with one axis (an int array aligned with it).
    rng : numpy.random.Generator
        Source of the Born-rule draws, one per state.

    Returns
    -------
    (bit, collapsed)
        The sampled outcome (an ``int`` for a single state, an int array
        of shape ``batch`` otherwise) and the renormalized states.
    """
    index = _index("blocks", amps, q)
    outcome, out = _measure(amps, index, rng.random(amps.shape[1:]))
    return _bits(outcome), out


def measure_x(amps: np.ndarray, q, rng: np.random.Generator):
    """Projective X measurement of one qubit.

    Returns PLUS (0) for |+> and MINUS (1) for |->, with the collapsed
    state left in the corresponding X eigenstate; shapes as in
    :func:`measure_z`.
    """
    index = _index("blocks", amps, q)
    outcome, out = _measure(amps, index, rng.random(amps.shape[1:]), rotated=True)
    return _bits(outcome), out


def bell_probabilities(amps: np.ndarray, q1, q2) -> np.ndarray:
    """Born probabilities of the four Bell outcomes on qubits (q1, q2),
    ordered by ``BellState`` value: shape ``(4, *batch)``.  Either wire may
    be one per row, as in :func:`measure_z`."""
    return _probabilities(_rotate_in(amps[_index("blocks", amps, q1, q2)]))


def measure_bell(amps: np.ndarray, q1, q2, rng: np.random.Generator):
    """Projective measurement of qubits (q1, q2) in the Bell basis; either
    may be one per row, as in :func:`measure_z`.

    The outcome is sampled from the four Bell projector probabilities and
    the returned state is the renormalized collapse, with the pair left in
    the measured Bell state and the rest of the register updated
    accordingly.  A single state gives a ``BellState``; a batch gives an
    int array of ``BellState`` values.
    """
    index = _index("blocks", amps, q1, q2)
    outcome, out = _measure(amps, index, rng.random(amps.shape[1:]), rotated=True)
    return (BellState(int(outcome)) if outcome.ndim == 0 else outcome), out


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

    Thin stateful wrapper over the kernel ops: qubits can only be adjoined
    (never removed), so wire indices handed out by :meth:`adjoin` stay
    valid for the life of the register, and every row of a batch has the
    same width.  A row that does not need an adjoined qubit keeps it idle
    in |0>.  Gates and measurements act on every row, or only on ``rows``
    (indices into the single batch axis) when given; each wire is an int
    for all of them or an int array aligned with them, one per row.
    Measurement uniform ``i`` goes to the i-th selected row.  Adversary
    taps act on registers exclusively through these methods, never by
    reading amplitudes, so that every bit an attacker learns comes from a
    measurement outcome.
    """

    def __init__(self, amps: np.ndarray):
        amps = np.asarray(amps)
        # Real stays real (every session op is), complex stays complex,
        # both in double precision; ints become floats.
        self.amps = amps if amps.dtype.char in "dD" else amps.astype(np.result_type(amps, float))
        num_qubits(self.amps)  # validates the length

    @property
    def n(self) -> int:
        return num_qubits(self.amps)

    def _get(self, rows) -> np.ndarray:
        return self.amps if rows is None else self.amps[:, rows]

    def _set(self, rows, amps: np.ndarray) -> None:
        if rows is None:
            self.amps = amps
        else:
            self.amps[:, rows] = amps

    def adjoin(self, amps: np.ndarray) -> int:
        """Tensor a fresh (sub)state onto every row: one state for all rows,
        or shape ``(2**k, *batch)`` for one per row.  Returns the wire index
        of its first qubit."""
        wire = self.n
        self.amps = tensor(self.amps, amps)
        return wire

    def cnot(self, control, target, rows=None) -> None:
        self._set(rows, apply_cnot(self._get(rows), control, target))

    def hadamard(self, wire, rows=None) -> None:
        self._set(rows, apply_hadamard(self._get(rows), wire))

    # Each measurement calls the kernel core itself rather than the module
    # function: one Python call less on the path every session measures on.

    def measure_z(self, wire, rng: np.random.Generator, rows=None):
        amps = self._get(rows)
        bit, amps = _measure(amps, _index("blocks", amps, wire), rng.random(amps.shape[1:]))
        self._set(rows, amps)
        return _bits(bit)

    def measure_x(self, wire, rng: np.random.Generator, rows=None):
        amps = self._get(rows)
        sign, amps = _measure(amps, _index("blocks", amps, wire), rng.random(amps.shape[1:]), rotated=True)
        self._set(rows, amps)
        return _bits(sign)

    def measure_bell(self, w1, w2, rng: np.random.Generator, rows=None):
        amps = self._get(rows)
        outcome, amps = _measure(amps, _index("blocks", amps, w1, w2), rng.random(amps.shape[1:]), rotated=True)
        self._set(rows, amps)
        return BellState(int(outcome)) if outcome.ndim == 0 else outcome
