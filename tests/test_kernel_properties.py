"""Property tests of the kernel: extreme uniforms and the single code path.

States are drawn by hypothesis.  Measurements take their uniforms from
stub generators, so a test can hand the kernel the extremes a real
generator can return (0.0 and 1 - 2**-53) or the same uniform to a batch
row and to the single state it was stacked from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqpc.kernel import (
    BellState,
    Register,
    apply_cnot,
    apply_hadamard,
    bell_probabilities,
    measure_bell,
    measure_x,
    measure_z,
    prepare_z,
    tensor,
)
from conftest import BELL_VECTORS, X_MINUS, X_PLUS, oracle_projector_probability, oracle_z_probability

EXTREME_UNIFORMS = (0.0, 1.0 - 2.0**-53)
NORM_TOL = 1e-9
AGREE_TOL = 1e-12


class ConstantUniform:
    """Stub generator: every draw is ``value``, in the shape asked for."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size=()):
        return np.full(size, self.value)


class UniformSequence:
    """Stub generator: hands out ``values`` in order, in the shape asked for."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def random(self, size=()):
        count = int(np.prod(size))
        out = self.values[self.used : self.used + count].reshape(size)
        self.used += count
        return out


@st.composite
def gaussian_integer_states(draw, min_qubits=1, columns=None):
    """A unit state (or ``columns`` stacked states) whose amplitudes are
    small Gaussian integers over one norm: many exact zeros, so some
    outcomes have probability exactly 0, and every nonzero probability is
    far above rounding."""
    n = draw(st.integers(min_qubits, 5))
    count = 1 if columns is None else draw(st.integers(1, columns))
    parts = st.lists(st.integers(-2, 2), min_size=2 << n, max_size=2 << n)
    states = []
    for _ in range(count):
        values = np.array(draw(parts.filter(any)), dtype=float)
        amps = values[::2] + 1j * values[1::2]
        states.append(amps / np.linalg.norm(amps))
    stacked = np.stack(states, axis=1)
    return n, stacked[:, 0] if columns is None else stacked


def outcome_probability(kind: str, state: np.ndarray, wires: tuple, outcome: int) -> float:
    """P(outcome) by the test oracles, not by the kernel."""
    if kind == "z":
        return oracle_z_probability(state, wires[0], outcome)
    if kind == "x":
        return oracle_projector_probability(state, (X_PLUS, X_MINUS)[outcome], list(wires))
    name = ("phi+", "phi-", "psi+", "psi-")[outcome]
    return oracle_projector_probability(state, BELL_VECTORS[name], list(wires))


MEASUREMENTS = {"z": measure_z, "x": measure_x, "bell": measure_bell}


def measure(kind: str, amps: np.ndarray, wires: tuple, rng):
    outcome, post = MEASUREMENTS[kind](amps, *wires, rng)
    return (outcome.value if isinstance(outcome, BellState) else outcome), post


def pick_wires(data, kind: str, n: int) -> tuple:
    if kind == "bell":
        q1 = data.draw(st.integers(0, n - 1))
        q2 = data.draw(st.integers(0, n - 1).filter(lambda q: q != q1))
        return q1, q2
    return (data.draw(st.integers(0, n - 1)),)


def assert_valid_collapse(kind, state, post, wires, outcome):
    assert np.all(np.isfinite(post))
    assert abs(np.linalg.norm(post) - 1.0) <= NORM_TOL
    assert outcome_probability(kind, state, wires, outcome) > NORM_TOL


@pytest.mark.parametrize("u", EXTREME_UNIFORMS)
@pytest.mark.parametrize("kind", ["z", "x", "bell"])
@settings(deadline=None)
@given(data=st.data())
def test_extreme_uniform_single_state(kind, u, data):
    n, state = data.draw(gaussian_integer_states(min_qubits=2 if kind == "bell" else 1))
    wires = pick_wires(data, kind, n)
    outcome, post = measure(kind, state, wires, ConstantUniform(u))
    assert isinstance(outcome, int)
    assert_valid_collapse(kind, state, post, wires, outcome)


@pytest.mark.parametrize("u", EXTREME_UNIFORMS)
@pytest.mark.parametrize("kind", ["z", "x", "bell"])
@settings(deadline=None)
@given(data=st.data())
def test_extreme_uniform_batch(kind, u, data):
    n, states = data.draw(gaussian_integer_states(min_qubits=2 if kind == "bell" else 1, columns=6))
    wires = pick_wires(data, kind, n)
    outcomes, post = measure(kind, states, wires, ConstantUniform(u))
    assert outcomes.shape == states.shape[1:]
    for column, outcome in enumerate(outcomes.tolist()):
        assert_valid_collapse(kind, states[:, column], post[:, column], wires, outcome)


def random_states(n: int, columns: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=(1 << n, columns)) + 1j * rng.normal(size=(1 << n, columns))
    return amps / np.linalg.norm(amps, axis=0)


@settings(deadline=None)
@given(
    n=st.integers(1, 5),
    columns=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batch_matches_single_states(n, columns, seed, data):
    rng = np.random.default_rng(seed)
    stack = random_states(n, columns, rng)
    singles = [stack[:, j] for j in range(columns)]

    def agree(batch_result, single_results):
        for j, single in enumerate(single_results):
            assert np.max(np.abs(batch_result[:, j] - single)) <= AGREE_TOL

    fresh = random_states(1, columns, rng)
    if n < 5:
        agree(tensor(stack, fresh), [tensor(s, fresh[:, j]) for j, s in enumerate(singles)])
        agree(tensor(stack, prepare_z(1)), [tensor(s, prepare_z(1)) for s in singles])
    q = data.draw(st.integers(0, n - 1))
    agree(apply_hadamard(stack, q), [apply_hadamard(s, q) for s in singles])
    if n >= 2:
        c, t = pick_wires(data, "bell", n)
        agree(apply_cnot(stack, c, t), [apply_cnot(s, c, t) for s in singles])
        probs = bell_probabilities(stack, c, t)
        for j, s in enumerate(singles):
            assert np.max(np.abs(probs[:, j] - bell_probabilities(s, c, t))) <= AGREE_TOL

    for kind in ("z", "x", "bell"):
        if kind == "bell" and n < 2:
            continue
        wires = pick_wires(data, kind, n)
        uniforms = rng.random(columns)
        outcomes, post = measure(kind, stack, wires, UniformSequence(uniforms))
        one_by_one = UniformSequence(uniforms)
        results = [measure(kind, s, wires, one_by_one) for s in singles]
        assert outcomes.tolist() == [outcome for outcome, _ in results]
        agree(post, [state for _, state in results])


@settings(deadline=None)
@given(n=st.integers(2, 5), columns=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_register_rows_touch_only_the_selected_states(n, columns, seed, data):
    rng = np.random.default_rng(seed)
    stack = random_states(n, columns, rng)
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, columns - 1), min_size=1))))
    c, t = pick_wires(data, "bell", n)
    uniforms = rng.random(3 * len(rows))

    register = Register(stack.copy())
    register.cnot(c, t, rows)
    register.hadamard(t, rows)
    register.measure_z(c, UniformSequence(uniforms[: len(rows)]), rows)
    register.measure_x(t, UniformSequence(uniforms[len(rows) : 2 * len(rows)]), rows)
    register.measure_bell(c, t, UniformSequence(uniforms[2 * len(rows) :]), rows)

    sub = Register(stack[:, rows])
    sub.cnot(c, t)
    sub.hadamard(t)
    sub.measure_z(c, UniformSequence(uniforms[: len(rows)]))
    sub.measure_x(t, UniformSequence(uniforms[len(rows) : 2 * len(rows)]))
    sub.measure_bell(c, t, UniformSequence(uniforms[2 * len(rows) :]))

    untouched = np.setdiff1d(np.arange(columns), rows)
    assert np.array_equal(register.amps[:, untouched], stack[:, untouched])
    assert np.max(np.abs(register.amps[:, rows] - sub.amps)) <= AGREE_TOL


def draw_row_wires(data, kind: str, n: int, count: int) -> tuple:
    """Per-row wires for ``count`` rows: one int array per wire of the op,
    sometimes one int for every row instead."""
    columns = [pick_wires(data, "bell" if kind in ("bell", "cnot") else kind, n) for _ in range(count)]
    wires = tuple(np.array(column, dtype=np.intp) for column in zip(*columns))
    if kind == "cnot" and data.draw(st.booleans()):
        target = data.draw(st.integers(0, n - 1))
        control = np.array([data.draw(st.integers(0, n - 1).filter(lambda q: q != target)) for _ in range(count)])
        wires = (control, target)
    return wires


def apply_single(kind: str, state: np.ndarray, wires: tuple, rng):
    if kind == "cnot":
        return None, apply_cnot(state, *wires)
    return measure(kind, state, wires, rng)


@pytest.mark.parametrize("kind", ["z", "x", "bell", "cnot"])
@settings(deadline=None)
@given(n=st.integers(2, 5), columns=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_per_row_wires_match_single_states(kind, n, columns, seed, data):
    rng = np.random.default_rng(seed)
    stack = random_states(n, columns, rng)
    rows = np.array(data.draw(st.permutations(range(columns))))[: data.draw(st.integers(1, columns))]
    wires = draw_row_wires(data, kind, n, len(rows))
    uniforms = rng.random(len(rows))

    register = Register(stack.copy())
    if kind == "cnot":
        register.cnot(*wires, rows)
    else:
        method = {"z": register.measure_z, "x": register.measure_x, "bell": register.measure_bell}[kind]
        outcomes = method(*wires, UniformSequence(uniforms), rows)

    one_by_one = UniformSequence(uniforms)
    for i, row in enumerate(rows.tolist()):
        row_wires = tuple(int(np.asarray(w)[i]) if np.ndim(w) else w for w in wires)
        outcome, expected = apply_single(kind, stack[:, row], row_wires, one_by_one)
        if kind != "cnot":
            assert int(outcomes[i]) == outcome
        assert np.max(np.abs(register.amps[:, row] - expected)) <= AGREE_TOL
    untouched = np.setdiff1d(np.arange(columns), rows)
    assert np.array_equal(register.amps[:, untouched], stack[:, untouched])


def per_row_calls(wires_of):
    """Every per-row kernel entry point, each given per-row wires by ``wires_of(count)``."""
    rng = np.random.default_rng(0)
    return [
        lambda register: register.measure_z(*wires_of(1), rng),
        lambda register: register.measure_x(*wires_of(1), rng),
        lambda register: register.measure_bell(*wires_of(2), rng),
        lambda register: register.cnot(*wires_of(2)),
    ]


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_per_row_wire_out_of_range_raises(bad):
    # Three qubits, four rows; the bad wire sits on one row among good ones.
    stack = random_states(3, 4, np.random.default_rng(1))

    def wires_of(count):
        first = np.array([0, bad, 0, 1])
        return (first, np.array([1, 2, 2, 2]))[:count]

    for call in per_row_calls(wires_of):
        with pytest.raises(ValueError):
            call(Register(stack.copy()))
    # An int wire that goes with per-row wires is checked as well.
    with pytest.raises(ValueError):
        Register(stack.copy()).cnot(np.array([0, 1, 0, 1]), bad)


def test_equal_wires_raise():
    stack = random_states(3, 4, np.random.default_rng(2))
    per_row = (np.array([0, 1, 2, 0]), np.array([1, 1, 0, 2]))  # row 1: both wires 1
    for wires in (per_row, (1, 1), (np.array([1, 1, 1, 1]), 1)):
        with pytest.raises(ValueError):
            Register(stack.copy()).cnot(*wires)
        with pytest.raises(ValueError):
            Register(stack.copy()).measure_bell(*wires, np.random.default_rng(0))
