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
unit norm to double precision.

Every gate and measurement gathers its blocks once and writes them back
once, to the same place; it and :func:`bell_probabilities` find them
through one dispatch, :func:`_index`, from one cached table builder,
:func:`_table`, which validates the wires when it builds a table.  On a
batch with one axis an op may act on some rows only, and each wire may
be one per row, an int array aligned with those rows, so rows whose
qubits travel on different wires share one call.  Int wires, and per-row
wires that every row shares, gather through the table of their (width,
wires); mixed per-row wires gather each row through its own table,
picked from the one per-width stack of those tables, :func:`_stack`.

X-basis labels follow the Hadamard image of the computational basis:
``PLUS == 0`` encodes |+> = H|0> and ``MINUS == 1`` encodes |-> = H|1>.
The X and Bell bases have one definition, the butterfly that measures in
them (:func:`_rotate_in`): :func:`prepare_x` and :func:`prepare_bell` run
it backwards on the basis vectors.

The measurement core, :func:`_collapse`, collapses the blocks where they
live, takes one uniform variate per measured state (one per row of a
batch) and never sees a generator.  A single state writes back only the
measured basis state, its row of the preparation table, times the
renormalized chosen block; a batch zeroes the other blocks and rotates
them all back.  Both give the same outcomes and amplitudes, up to the
sign of a zero.  The
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


_Z_STATES = np.eye(2)
_X_STATES = _rotate_out(np.eye(2)).T
_BELL_STATES = _rotate_out(np.eye(4)).T


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
    ``"cnot"`` on (control, target), the two blocks a CNOT swaps: blocks 10
    and 11 of the two-wire table.
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
    return blocks[2:] if op == "cnot" else blocks


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


def _index(op: str, amps: np.ndarray, *wires, rows=None):
    """Where ``op`` on ``wires`` of ``rows`` (indices into the one batch
    axis; every row when ``None``) reads and writes: ``amps`` and the
    axis-0 table ``_table(op, n, *wires)`` for int wires on every row, else
    ``amps.reshape(-1)`` and one flat index (a view: an op that writes
    passes a C-contiguous array).  A wire may also be one per row, an int
    array aligned with ``rows`` (with the batch when ``None``); wires every
    row shares count as ints, and mixed ones take each row's table from
    ``_stack``.  A wire out of range, or two wires equal on some row,
    raises ``ValueError``.
    """
    n = num_qubits(amps)
    if np.ndarray in map(type, wires):
        batch = amps.shape[1:] if rows is None else (len(rows),)
        shared = []
        for w in wires:
            if not (isinstance(w, np.ndarray) and w.ndim):
                _check_wire(int(w), n)
                shared.append(int(w))
                continue
            if w.shape != batch or w.ndim != 1:
                raise ValueError(f"per-row wires of shape {w.shape} do not align with rows of shape {batch}")
            if not w.size:
                shared.append(None)
                continue
            low, high = int(np.minimum.reduce(w)), int(np.maximum.reduce(w))
            if low < 0 or high >= n:
                raise ValueError(f"qubit {low if low < 0 else high} out of bounds for a {n}-qubit register")
            shared.append(low if low == high else None)
        if None in shared:
            if len(wires) == 2 and np.any(np.equal(*wires)):
                raise ValueError("the two wires of a row must be distinct qubits")
            entry = wires[0] if len(wires) == 1 else wires[0] * n + wires[1]
            # ``take`` keeps the labels contiguous, and so the gathered blocks.
            labels = _stack(op, n, len(wires)).take(entry, axis=-1)
            return amps.reshape(-1), labels * amps.shape[1] + (np.arange(batch[0]) if rows is None else rows)
        wires = shared
    table = _table(op, n, *wires)
    return (amps, table) if rows is None else (amps.reshape(-1), table[..., None] * amps.shape[1] + rows)


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
    batch = a.shape[1:] if a.ndim >= b.ndim else b.shape[1:]
    ndim = 1 + len(batch)
    a = a.reshape(a.shape + (1,) * (ndim - a.ndim))
    b = b.reshape(b.shape + (1,) * (ndim - b.ndim))
    return (a[:, None] * b[None, :]).reshape((-1,) + batch)


def apply_cnot(amps: np.ndarray, control, target) -> np.ndarray:
    """Flip ``target`` on every basis label whose ``control`` bit is 1.
    Either wire may be one per row (see :func:`_index`)."""
    out = amps.copy()
    flat, index = _index("cnot", out, control, target)
    flat[index] = flat[index][::-1]
    return out


def apply_hadamard(amps: np.ndarray, q) -> np.ndarray:
    """Hadamard on one qubit (the basis change used by X measurements)."""
    out = amps.copy()
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


# The smallest normal double, added under the square root so that an
# outcome of probability 0, which is never the chosen one, scales by
# 0 / sqrt(TINY) = 0 rather than 0 / 0.
_TINY = 2.0**-1022


def _collapse(amps: np.ndarray, index, uniforms: np.ndarray, rotated: bool = False) -> np.ndarray:
    """Projective measurement onto the outcome blocks ``amps[index]``,
    rotated into the X or Bell basis by :func:`_rotate_in` when
    ``rotated``, sampled with one uniform per state (see :func:`_sample`).
    Collapses and renormalizes those blocks in ``amps`` and returns the
    outcome indices (shape ``batch``).

    A single state writes back row ``outcome`` of its preparation table
    (``_Z_STATES``, ``_X_STATES`` or ``_BELL_STATES``) times the scaled
    chosen block: the products :func:`_rotate_out` makes of one nonzero
    block, so the amplitudes equal the batch path's up to the sign of a
    zero.  A batch zeroes the other blocks and rotates them all back,
    which is cheaper there than gathering each row's block and state."""
    parts = amps[index]
    if rotated:
        parts = _rotate_in(parts)
    probs = _probabilities(parts)
    outcome = _sample(probs, uniforms)
    if outcome.ndim == 0:
        states = (_X_STATES if len(parts) == 2 else _BELL_STATES) if rotated else _Z_STATES
        block = parts[outcome] * (1.0 / np.sqrt(probs[outcome] + _TINY))
        amps[index] = states[outcome][:, None] * block
        return outcome
    chosen = _OUTCOMES[: len(parts)].reshape((-1,) + (1,) * outcome.ndim) == outcome
    parts *= (chosen / np.sqrt(probs + _TINY))[:, None]
    amps[index] = _rotate_out(parts) if rotated else parts
    return outcome


def _bits(outcome: np.ndarray):
    """An ``int`` for a single state, an int array for a batch."""
    return int(outcome) if outcome.ndim == 0 else outcome


_BELL_LABELS = tuple(BellState)


def _bell(outcome: np.ndarray):
    """A ``BellState`` for a single state, an int array of ``BellState``
    values for a batch."""
    return _BELL_LABELS[outcome] if outcome.ndim == 0 else outcome


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
    out = amps.copy()
    return _bits(_collapse(*_index("blocks", out, q), rng.random(amps.shape[1:]))), out


def measure_x(amps: np.ndarray, q, rng: np.random.Generator):
    """Projective X measurement of one qubit.

    Returns PLUS (0) for |+> and MINUS (1) for |->, with the collapsed
    state left in the corresponding X eigenstate; shapes as in
    :func:`measure_z`.
    """
    out = amps.copy()
    return _bits(_collapse(*_index("blocks", out, q), rng.random(amps.shape[1:]), rotated=True)), out


def bell_probabilities(amps: np.ndarray, q1, q2) -> np.ndarray:
    """Born probabilities of the four Bell outcomes on qubits (q1, q2),
    ordered by ``BellState`` value: shape ``(4, *batch)``.  Either wire may
    be one per row, as in :func:`measure_z`."""
    flat, index = _index("blocks", amps, q1, q2)
    return _probabilities(_rotate_in(flat[index]))


def measure_bell(amps: np.ndarray, q1, q2, rng: np.random.Generator):
    """Projective measurement of qubits (q1, q2) in the Bell basis; either
    may be one per row, as in :func:`measure_z`.

    The outcome is sampled from the four Bell projector probabilities and
    the returned state is the renormalized collapse, with the pair left in
    the measured Bell state and the rest of the register updated
    accordingly.  A single state gives a ``BellState``; a batch gives an
    int array of ``BellState`` values.
    """
    out = amps.copy()
    return _bell(_collapse(*_index("blocks", out, q1, q2), rng.random(amps.shape[1:]), rotated=True)), out


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

    The register owns its amplitudes: it copies the array it is built from,
    and its gates and measurements change that copy in place.  Qubits can
    only be adjoined (never removed), so wire indices handed out by
    :meth:`adjoin` stay valid for the life of the register, and every row
    of a batch has the same width.  A row that does not need an adjoined
    qubit keeps it idle in |0>.  Gates and measurements act on every row,
    or only on ``rows`` (indices into the single batch axis) when given;
    each wire is an int for all of them or an int array aligned with them,
    one per row.  Measurement uniform ``i`` goes to the i-th selected row.
    Adversary taps act on registers exclusively through these methods and
    the row count ``num_rows``, never by reading amplitudes, so that every
    bit an attacker learns comes from a measurement outcome.
    """

    def __init__(self, amps: np.ndarray):
        amps = np.asarray(amps)
        # Real stays real (every session op is), complex stays complex,
        # both in double precision; ints become floats.
        self.amps = amps.astype(np.result_type(amps, float), order="C")
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

    def cnot(self, control, target, rows=None) -> None:
        amps, index = _index("cnot", self.amps, control, target, rows=rows)
        amps[index] = amps[index][::-1]

    def hadamard(self, wire, rows=None) -> None:
        amps, index = _index("blocks", self.amps, wire, rows=rows)
        amps[index] = _rotate_in(amps[index])

    def _collapse_rows(self, wires, rng, rows, rotated=False) -> np.ndarray:
        amps, index = _index("blocks", self.amps, *wires, rows=rows)
        uniforms = rng.random(self.amps.shape[1:] if rows is None else (len(rows),))
        return _collapse(amps, index, uniforms, rotated)

    def measure_z(self, wire, rng: np.random.Generator, rows=None):
        return _bits(self._collapse_rows((wire,), rng, rows))

    def measure_x(self, wire, rng: np.random.Generator, rows=None):
        return _bits(self._collapse_rows((wire,), rng, rows, rotated=True))

    def measure_bell(self, w1, w2, rng: np.random.Generator, rows=None):
        return _bell(self._collapse_rows((w1, w2), rng, rows, rotated=True))
