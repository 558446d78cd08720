"""Property tests of the kernel: extreme uniforms, and batches against the
single states they were stacked from.  The two share the gather, the
outcome probabilities and the sampling rule, but pick the outcome (Python
floats for a single state, numpy for a batch) and write the collapse back
separately, so each batch row must agree with its single state.

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

    def random(self, size=None):
        # A Python float without a size, as numpy's Generator draws.
        return self.value if size is None else np.full(size, self.value)


class UniformSequence:
    """Stub generator: hands out ``values`` in order, in the shape asked for."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def random(self, size=None):
        count = 1 if size is None else int(np.prod(size))
        out = self.values[self.used : self.used + count]
        self.used += count
        return float(out[0]) if size is None else out.reshape(size)


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
    register.swap(c, t, rows)
    register.hadamard(t, rows)
    register.measure_z(c, UniformSequence(uniforms[: len(rows)]), rows)
    register.measure_x(t, UniformSequence(uniforms[len(rows) : 2 * len(rows)]), rows)
    register.measure_bell(c, t, UniformSequence(uniforms[2 * len(rows) :]), rows)

    sub = Register(stack[:, rows])
    sub.cnot(c, t)
    sub.swap(c, t)
    sub.hadamard(t)
    sub.measure_z(c, UniformSequence(uniforms[: len(rows)]))
    sub.measure_x(t, UniformSequence(uniforms[len(rows) : 2 * len(rows)]))
    sub.measure_bell(c, t, UniformSequence(uniforms[2 * len(rows) :]))

    untouched = np.setdiff1d(np.arange(columns), rows)
    assert np.array_equal(register.amps[:, untouched], stack[:, untouched])
    assert np.max(np.abs(register.amps[:, rows] - sub.amps)) <= AGREE_TOL


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_wire_out_of_range_raises(bad):
    # Three qubits, four rows; every entry point refuses the bad wire, in
    # either place of a two-wire call, before anything moves.
    stack = random_states(3, 4, np.random.default_rng(1))
    rng = np.random.default_rng(0)
    rows = np.array([1, 3])
    calls = [
        lambda register: register.hadamard(bad),
        lambda register: register.measure_z(bad, rng),
        lambda register: register.measure_x(bad, rng, rows),
        lambda register: register.cnot(bad, 1),
        lambda register: register.swap(2, bad, rows),
        lambda register: register.measure_bell(0, bad, rng),
        lambda register: apply_cnot(register.amps, 0, bad),
        lambda register: bell_probabilities(register.amps, bad, 2),
    ]
    for call in calls:
        register = Register(stack)
        with pytest.raises(ValueError):
            call(register)
        assert np.array_equal(register.amps, stack)


def test_equal_wires_raise():
    stack = random_states(3, 4, np.random.default_rng(2))
    with pytest.raises(ValueError):
        Register(stack.copy()).cnot(1, 1)
    with pytest.raises(ValueError):
        Register(stack.copy()).swap(1, 1)
    with pytest.raises(ValueError):
        Register(stack.copy()).measure_bell(1, 1, np.random.default_rng(0))
