"""Exact pure-state simulation of small qubit registers, one at a time or
in batches.

A state is a dense complex numpy array of shape ``(2**n, *batch)``.  Axis
0 holds the ``2**n`` amplitudes of an ``n``-qubit register (``n <= 8``);
the trailing batch axes index independent registers of the same width.  A
single state has batch shape ``()``; a session's positions form one array
of batch shape ``(positions,)``.  Every op acts on axis 0 through an index
table for its (width, wires), built on first use and cached, so single
states and batches run the same code.  Qubit 0 is the MOST significant bit
of a basis index: on a 3-qubit register the index ``0b011`` has qubit 0 in
|0> and qubits 1 and 2 in |1>.  All operations return fresh arrays or
collapse-and-renormalize, so states stay unit norm to double precision.

X-basis labels follow the Hadamard image of the computational basis:
``PLUS == 0`` encodes |+> = H|0> and ``MINUS == 1`` encodes |-> = H|1>.

Every measurement draws exactly one uniform variate per measured state
(one per row of a batch), all in a single ``rng.random(batch)`` call on
the caller's ``numpy.random.Generator``.  Whole-protocol runs are then
reproducible from a single seed whatever the amplitudes happen to be.  The
outcome is the first one whose cumulative probability exceeds the scaled
uniform; when rounding leaves the uniform at the total, it is the last
outcome of nonzero probability, so a collapse never divides by zero.
"""

from __future__ import annotations

import enum
import functools

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
    dtype=complex,
)

_Z_STATES = np.eye(2, dtype=complex)

_OUTCOMES = np.arange(4)

# Row s = the X eigenstate with sign s; the Hadamard.
_HADAMARD = np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=complex)


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


def _mask(n: int, q: int) -> int:
    return 1 << (n - 1 - q)


# Index tables.  Wires are validated when a table is first built; a bad
# wire raises and is never cached.


@functools.lru_cache(maxsize=None)
def _cnot_table(n: int, control: int, target: int) -> np.ndarray:
    """Basis label each output label reads from under CNOT."""
    _check_wire(control, n)
    _check_wire(target, n)
    if control == target:
        raise ValueError("control and target must be distinct qubits")
    labels = np.arange(1 << n)
    return np.where(labels & _mask(n, control), labels ^ _mask(n, target), labels)


@functools.lru_cache(maxsize=None)
def _split_table(n: int, q: int) -> np.ndarray:
    """(2, 2**(n-1)) labels: row v holds the labels with qubit ``q`` = v,
    column j the same assignment of the other qubits in both rows."""
    _check_wire(q, n)
    labels = np.arange(1 << n)
    rest = labels[(labels & _mask(n, q)) == 0]
    return np.stack([rest, rest | _mask(n, q)])


@functools.lru_cache(maxsize=None)
def _pair_table(n: int, q1: int, q2: int) -> np.ndarray:
    """(4, 2**(n-2)) labels: row (v1 << 1) | v2 holds the labels with
    q1 = v1 and q2 = v2, column j the same rest in every row."""
    _check_wire(q1, n)
    _check_wire(q2, n)
    if q1 == q2:
        raise ValueError("Bell measurement needs two distinct qubits")
    m1, m2 = _mask(n, q1), _mask(n, q2)
    labels = np.arange(1 << n)
    rest = labels[(labels & (m1 | m2)) == 0]
    return np.stack([rest, rest | m2, rest | m1, rest | m1 | m2])


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
    values = state.value if isinstance(state, BellState) else np.asarray(state, dtype=np.intp)
    return _from_table(_BELL_MATRIX, values)


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


def apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """Flip ``target`` on every basis label whose ``control`` bit is 1."""
    return amps[_cnot_table(num_qubits(amps), control, target)]


def apply_hadamard(amps: np.ndarray, q: int) -> np.ndarray:
    """Hadamard on one qubit (the basis change used by X measurements)."""
    table = _split_table(num_qubits(amps), q)
    out = np.empty_like(amps)
    out[table] = _rotate_in(amps[table])
    return out


def _probabilities(parts: np.ndarray) -> np.ndarray:
    """(k, *batch) outcome probabilities of (k, m, *batch) outcome blocks."""
    weights = np.abs(parts)
    weights *= weights
    return np.add.reduce(weights, 1)


def _sample(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One outcome index per state from (k, *batch) probabilities, drawing
    one uniform per state in a single call.

    The outcome is the first whose cumulative probability exceeds the
    uniform scaled by the total, so it has nonzero probability.  One always
    exists: a uniform below 1 times a normal float rounds to below it.
    """
    cumulative = np.add.accumulate(probs, 0)
    u = rng.random(probs.shape[1:]) * cumulative[-1]
    return (cumulative <= u).argmin(0)


# The smallest normal double, added under the square root so that an
# outcome of probability 0, which is never the chosen one, scales by
# 0 / sqrt(TINY) = 0 rather than 0 / 0.
_TINY = 2.0**-1022


def _measure(amps: np.ndarray, table: np.ndarray, rng: np.random.Generator, rotated: bool = False):
    """Projective measurement onto the outcome blocks ``amps[table]``,
    rotated into the X or Bell basis by :func:`_rotate_in` when
    ``rotated``.  Returns the outcome indices (shape ``batch``) and the
    renormalized collapsed states."""
    parts = amps[table]
    if rotated:
        parts = _rotate_in(parts)
    probs = _probabilities(parts)
    outcome = _sample(probs, rng)
    chosen = _OUTCOMES[: len(table)].reshape((-1,) + (1,) * outcome.ndim) == outcome
    parts = parts * (chosen / np.sqrt(probs + _TINY))[:, None]
    if rotated:
        parts = _rotate_out(parts)
    out = np.empty_like(amps)
    out[table] = parts
    return outcome, out


def _bits(outcome: np.ndarray):
    """An ``int`` for a single state, an int array for a batch."""
    return int(outcome) if outcome.ndim == 0 else outcome


def measure_z(amps: np.ndarray, q: int, rng: np.random.Generator):
    """Projective Z measurement of one qubit.

    Parameters
    ----------
    amps : ndarray
        Unit-norm state, shape ``(2**n, *batch)``.
    q : int
        Qubit to measure.
    rng : numpy.random.Generator
        Source of the Born-rule draws, one per state.

    Returns
    -------
    (bit, collapsed)
        The sampled outcome (an ``int`` for a single state, an int array
        of shape ``batch`` otherwise) and the renormalized states.
    """
    outcome, out = _measure(amps, _split_table(num_qubits(amps), q), rng)
    return _bits(outcome), out


def measure_x(amps: np.ndarray, q: int, rng: np.random.Generator):
    """Projective X measurement of one qubit.

    Returns PLUS (0) for |+> and MINUS (1) for |->, with the collapsed
    state left in the corresponding X eigenstate; shapes as in
    :func:`measure_z`.
    """
    outcome, out = _measure(amps, _split_table(num_qubits(amps), q), rng, rotated=True)
    return _bits(outcome), out


def bell_probabilities(amps: np.ndarray, q1: int, q2: int) -> np.ndarray:
    """Born probabilities of the four Bell outcomes on qubits (q1, q2),
    ordered by ``BellState`` value: shape ``(4, *batch)``."""
    return _probabilities(_rotate_in(amps[_pair_table(num_qubits(amps), q1, q2)]))


def measure_bell(amps: np.ndarray, q1: int, q2: int, rng: np.random.Generator):
    """Projective measurement of qubits (q1, q2) in the Bell basis.

    The outcome is sampled from the four Bell projector probabilities and
    the returned state is the renormalized collapse, with the pair left in
    the measured Bell state and the rest of the register updated
    accordingly.  A single state gives a ``BellState``; a batch gives an
    int array of ``BellState`` values.
    """
    outcome, out = _measure(amps, _pair_table(num_qubits(amps), q1, q2), rng, rotated=True)
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


def wire_groups(rows: np.ndarray, *wires: np.ndarray):
    """Split ``rows`` into groups whose states share every wire.

    ``wires`` are per-row wire arrays aligned with ``rows``.  Yields
    ``(wire_tuple, group_rows)`` for each distinct combination, in
    ascending order, so a caller can make one batch call per group.
    """
    combos = sorted(set(zip(*(w.tolist() for w in wires))))
    if len(combos) == 1:
        yield combos[0], rows
        return
    for combo in combos:
        mask = wires[0] == combo[0]
        for w, wire in zip(wires[1:], combo[1:]):
            mask &= w == wire
        yield combo, rows[mask]


class Register:
    """Mutable qubit register: one state, or a batch of same-width states.

    Thin stateful wrapper over the kernel ops: qubits can only be adjoined
    (never removed), so wire indices handed out by :meth:`adjoin` stay
    valid for the life of the register, and every row of a batch has the
    same wires.  A row that does not need an adjoined qubit keeps it idle
    in |0>.  Gates and measurements act on every row, or only on ``rows``
    (indices into the single batch axis) when given.  Adversary taps act
    on registers exclusively through these methods, never by reading
    amplitudes, so that every bit an attacker learns comes from a
    measurement outcome.
    """

    def __init__(self, amps: np.ndarray):
        self.amps = np.asarray(amps, dtype=complex)
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

    def cnot(self, control: int, target: int, rows=None) -> None:
        self._set(rows, apply_cnot(self._get(rows), control, target))

    def hadamard(self, wire: int, rows=None) -> None:
        self._set(rows, apply_hadamard(self._get(rows), wire))

    def measure_z(self, wire: int, rng: np.random.Generator, rows=None):
        bit, amps = measure_z(self._get(rows), wire, rng)
        self._set(rows, amps)
        return bit

    def measure_x(self, wire: int, rng: np.random.Generator, rows=None):
        sign, amps = measure_x(self._get(rows), wire, rng)
        self._set(rows, amps)
        return sign

    def measure_bell(self, w1: int, w2: int, rng: np.random.Generator, rows=None):
        outcome, amps = measure_bell(self._get(rows), w1, w2, rng)
        self._set(rows, amps)
        return outcome
