"""Kernel unit tests: preparations, gates, measurements, comparisons."""

import itertools
import re

import numpy as np
import pytest

from sqpc import kernel
from sqpc.jiang import PairBatch
from sqpc.kernel import (
    MINUS,
    PLUS,
    BellState,
    Register,
    amplitudes_close,
    apply_cnot,
    apply_hadamard,
    bell_probabilities,
    measure_bell,
    measure_x,
    measure_z,
    prepare_bell,
    prepare_x,
    prepare_z,
    tensor,
)
from conftest import (
    BELL_VECTORS,
    X_MINUS,
    X_PLUS,
    embed_operator,
    oracle_projector_probability,
    oracle_z_probability,
    random_state,
)

S = kernel.SQRT_HALF
TOL = 1e-9

class TestPreparations:
    def test_phi_plus_amplitudes(self):
        assert np.allclose(prepare_bell(BellState.PHI_PLUS), [S, 0, 0, S], atol=TOL)

    def test_psi_minus_amplitudes(self):
        assert np.allclose(prepare_bell(BellState.PSI_MINUS), [0, S, -S, 0], atol=TOL)

    @pytest.mark.parametrize("variant", list(BellState))
    def test_bell_measure_recovers_preparation(self, variant, rng):
        outcome, post = measure_bell(prepare_bell(variant), 0, 1, rng)
        assert outcome is variant
        assert amplitudes_close(post, prepare_bell(variant), TOL)

    def test_prepare_z_one(self):
        assert np.allclose(prepare_z(1), [0, 1], atol=TOL)

    def test_prepare_x_minus(self):
        assert np.allclose(prepare_x(MINUS), [S, -S], atol=TOL)

    def test_z_read_of_plus_is_unbiased(self, rng):
        ones = sum(measure_z(prepare_x(PLUS), 0, rng)[0] for _ in range(4000))
        assert abs(ones / 4000 - 0.5) < 4 * np.sqrt(0.25 / 4000)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            prepare_z(2)
        with pytest.raises(ValueError):
            prepare_x(5)
        for value in (-1, 2.5, 4, [0, 4]):
            with pytest.raises(ValueError):
                prepare_bell(value)
        with pytest.raises(ValueError):
            PairBatch.prepare([-1, 0])

class TestDerivedBases:
    """The X and Bell preparation tables come from the measurement
    butterfly; they equal the literal tables, byte for byte."""

    HADAMARD = np.array([[S, S], [S, -S]])  # row s = sign s
    BELL = np.array(
        [
            [S, 0.0, 0.0, S],
            [S, 0.0, 0.0, -S],
            [0.0, S, S, 0.0],
            [0.0, S, -S, 0.0],
        ]
    )  # row v = BellState(v)

    @pytest.mark.parametrize("sign", [PLUS, MINUS])
    def test_prepare_x(self, sign):
        assert prepare_x(sign).tobytes() == self.HADAMARD[sign].tobytes()

    @pytest.mark.parametrize("variant", list(BellState))
    def test_prepare_bell(self, variant):
        assert prepare_bell(variant).tobytes() == self.BELL[variant.value].tobytes()
        assert prepare_bell(variant.value).tobytes() == self.BELL[variant.value].tobytes()

    def test_batches(self):
        assert prepare_x(np.array([PLUS, MINUS])).tobytes() == self.HADAMARD.T.tobytes()
        assert prepare_bell(np.arange(4)).tobytes() == self.BELL.T.tobytes()

class TestTensor:
    def test_zero_one(self):
        assert np.allclose(tensor(prepare_z(0), prepare_z(1)), [0, 1, 0, 0], atol=TOL)

    def test_bell_with_fresh_zero(self):
        got = tensor(prepare_bell(BellState.PHI_PLUS), prepare_z(0))
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = S
        expected[0b110] = S
        assert np.allclose(got, expected, atol=TOL)

    def test_norm_multiplicative(self, rng):
        for _ in range(20):
            a = random_state(2, rng)
            b = random_state(1, rng)
            assert abs(np.linalg.norm(tensor(a, b)) - 1.0) < TOL

    def test_register_overflow(self, rng):
        with pytest.raises(ValueError):
            tensor(random_state(5, rng), random_state(4, rng))

class TestCnot:
    def test_flips_target_when_control_set(self):
        got = apply_cnot(np.array([0, 0, 1, 0], dtype=complex), 0, 1)
        assert np.allclose(got, [0, 0, 0, 1], atol=TOL)

    def test_tap_on_pair_half_gives_ghz(self):
        # (A, E, B) register: phi+ on (A, B), fresh |0> ancilla at E.
        sv = tensor(prepare_bell(BellState.PHI_PLUS), prepare_z(0))
        sv = np.moveaxis(sv.reshape(2, 2, 2), (0, 1, 2), (0, 2, 1)).reshape(-1)  # reorder to A,E,B
        got = apply_cnot(sv, 0, 1)
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = S
        expected[0b111] = S
        assert np.allclose(got, expected, atol=TOL)

    def test_self_inverse(self, rng):
        for _ in range(20):
            sv = random_state(3, rng)
            c, t = rng.choice(3, size=2, replace=False)
            twice = apply_cnot(apply_cnot(sv, c, t), c, t)
            assert np.allclose(twice, sv, atol=TOL)

    def test_rejects_aliased_wires(self):
        with pytest.raises(ValueError):
            apply_cnot(prepare_bell(BellState.PHI_PLUS), 1, 1)
        with pytest.raises(ValueError):
            apply_cnot(prepare_bell(BellState.PHI_PLUS), 0, 2)

    def test_matches_embedded_matrix(self, rng):
        # The CNOT, and the SWAP that exchanges another pair of its blocks.
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        for _ in range(10):
            sv = random_state(4, rng)
            c, t = (int(x) for x in rng.choice(4, size=2, replace=False))
            full = embed_operator(cnot, [c, t], 4)
            assert np.allclose(apply_cnot(sv, c, t), full @ sv, atol=TOL)
            register = Register(sv)
            register.swap(c, t)
            assert np.allclose(register.amps, embed_operator(swap, [c, t], 4) @ sv, atol=TOL)

class TestMeasureZ:
    def test_eigenstate_is_certain(self, rng):
        for _ in range(10):
            bit, post = measure_z(prepare_z(1), 0, rng)
            assert bit == 1
            assert np.allclose(post, prepare_z(1), atol=TOL)

    def test_idempotent(self, rng):
        for _ in range(50):
            sv = random_state(3, rng)
            q = int(rng.integers(3))
            bit1, sv = measure_z(sv, q, rng)
            bit2, sv = measure_z(sv, q, rng)
            assert bit1 == bit2

    def test_resent_zero_indicator_is_uniform(self, rng):
        # The three-qubit state left by a second probe C-NOT after a |0>
        # resend: probe reads 1 exactly half the time.
        sv = np.zeros(8, dtype=complex)
        sv[0b000] = S
        sv[0b011] = S
        ones = sum(measure_z(sv, 1, rng)[0] for _ in range(4000))
        assert abs(ones / 4000 - 0.5) < 4 * np.sqrt(0.25 / 4000)

    def test_measuring_shared_one_leaves_pair_entangled(self, rng):
        # 1/sqrt2(|1 1 0> + |1 0 1>): qubit 0 reads 1 surely, others untouched.
        sv = np.zeros(8, dtype=complex)
        sv[0b110] = S
        sv[0b101] = S
        bit, post = measure_z(sv, 0, rng)
        assert bit == 1
        assert np.allclose(post, sv, atol=TOL)

class TestMeasureX:
    def test_plus_is_certain(self, rng):
        sign, post = measure_x(prepare_x(PLUS), 0, rng)
        assert sign == PLUS
        assert amplitudes_close(post, prepare_x(PLUS), TOL)

    def test_zero_reads_uniform(self, rng):
        plus = sum(measure_x(prepare_z(0), 0, rng)[0] == PLUS for _ in range(4000))
        assert abs(plus / 4000 - 0.5) < 4 * np.sqrt(0.25 / 4000)

    def test_z_then_x_on_plus_is_uniform(self, rng):
        # Enumerated oracle: both Z branches overlap |+-> with probability 1/2.
        for branch in (0, 1):
            assert oracle_projector_probability(prepare_z(branch), X_PLUS, [0]) == pytest.approx(0.5)
        hits = 0
        for _ in range(4000):
            _, collapsed = measure_z(prepare_x(PLUS), 0, rng)
            sign, _ = measure_x(collapsed, 0, rng)
            hits += sign == PLUS
        assert abs(hits / 4000 - 0.5) < 4 * np.sqrt(0.25 / 4000)

class TestMeasureBell:
    def test_prepared_state_is_certain(self, rng):
        outcome, _ = measure_bell(prepare_bell(BellState.PHI_MINUS), 0, 1, rng)
        assert outcome is BellState.PHI_MINUS

    def test_restored_pair_with_idle_ancilla(self, rng):
        # Pair back in phi+ with the probe ancilla in |0>: outcome certain
        # and the ancilla untouched.
        sv = tensor(prepare_bell(BellState.PHI_PLUS), prepare_z(0))
        outcome, post = measure_bell(sv, 0, 1, rng)
        assert outcome is BellState.PHI_PLUS
        assert amplitudes_close(post, sv, TOL)

    def test_ghz_marginal_pair(self, rng):
        sv = np.zeros(8, dtype=complex)
        sv[0b000] = S
        sv[0b111] = S
        # Oracle: embedded Bell projectors on qubits (0, 2).
        expected = {
            name: oracle_projector_probability(sv, vec, [0, 2]) for name, vec in BELL_VECTORS.items()
        }
        assert expected["phi+"] == pytest.approx(0.5, abs=TOL)
        assert expected["phi-"] == pytest.approx(0.5, abs=TOL)
        assert expected["psi+"] == pytest.approx(0.0, abs=TOL)
        assert expected["psi-"] == pytest.approx(0.0, abs=TOL)
        counts = {v: 0 for v in BellState}
        for _ in range(2000):
            outcome, _ = measure_bell(sv, 0, 2, rng)
            counts[outcome] += 1
        assert counts[BellState.PSI_PLUS] == 0
        assert counts[BellState.PSI_MINUS] == 0
        assert abs(counts[BellState.PHI_PLUS] / 2000 - 0.5) < 4 * np.sqrt(0.25 / 2000)

    def test_probabilities_match_embedded_projectors(self, rng):
        for _ in range(10):
            sv = random_state(3, rng)
            q1, q2 = (int(x) for x in rng.choice(3, size=2, replace=False))
            got = bell_probabilities(sv, q1, q2)
            names = ["phi+", "phi-", "psi+", "psi-"]
            for value, name in enumerate(names):
                want = oracle_projector_probability(sv, BELL_VECTORS[name], [q1, q2])
                assert got[value] == pytest.approx(want, abs=1e-9)

    def test_completeness_on_random_states(self, rng):
        for _ in range(20):
            sv = random_state(4, rng)
            q1, q2 = (int(x) for x in rng.choice(4, size=2, replace=False))
            assert bell_probabilities(sv, q1, q2).sum() == pytest.approx(1.0, abs=TOL)

    def test_rejects_alias(self, rng):
        with pytest.raises(ValueError):
            measure_bell(prepare_bell(BellState.PHI_PLUS), 0, 0, rng)

class TestAmplitudesClose:
    def test_identical(self, rng):
        sv = random_state(2, rng)
        assert amplitudes_close(sv, sv, TOL)

    def test_global_phase_forgiven(self):
        sv = prepare_bell(BellState.PHI_PLUS)
        assert amplitudes_close(sv, -sv, TOL)
        assert amplitudes_close(sv, np.exp(0.7j) * sv, TOL)

    def test_orthogonal_states_differ(self):
        assert not amplitudes_close(
            prepare_bell(BellState.PHI_PLUS), prepare_bell(BellState.PSI_PLUS), TOL
        )

    def test_relative_phase_distinguishes(self):
        assert not amplitudes_close(
            prepare_bell(BellState.PHI_PLUS), prepare_bell(BellState.PHI_MINUS), TOL
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            amplitudes_close(prepare_z(0), prepare_bell(BellState.PHI_PLUS), TOL)

class TestInvariants:
    def test_norm_preserved_by_random_op_sequences(self, rng):
        for _ in range(100):
            sv = random_state(int(rng.integers(1, 3)), rng)
            for _ in range(20):
                n = sv.shape[0].bit_length() - 1
                op = rng.integers(5)
                if op == 0 and n < 4:
                    sv = tensor(sv, prepare_z(int(rng.integers(2))))
                elif op == 1 and n >= 2:
                    c, t = (int(x) for x in rng.choice(n, size=2, replace=False))
                    sv = apply_cnot(sv, c, t)
                elif op == 2:
                    sv = apply_hadamard(sv, int(rng.integers(n)))
                elif op == 3:
                    _, sv = measure_z(sv, int(rng.integers(n)), rng)
                else:
                    _, sv = measure_x(sv, int(rng.integers(n)), rng)
                assert abs(np.linalg.norm(sv) - 1.0) <= 1e-9

    def test_unitaries_preserve_inner_products(self, rng):
        for _ in range(50):
            a = random_state(3, rng)
            b = random_state(3, rng)
            before = np.vdot(a, b)
            c, t = (int(x) for x in rng.choice(3, size=2, replace=False))
            assert np.vdot(apply_cnot(a, c, t), apply_cnot(b, c, t)) == pytest.approx(before, abs=1e-9)
            q = int(rng.integers(3))
            assert np.vdot(apply_hadamard(a, q), apply_hadamard(b, q)) == pytest.approx(before, abs=1e-9)

    def test_z_frequencies_match_enumeration(self, rng):
        for _ in range(5):
            sv = random_state(3, rng)
            q = int(rng.integers(3))
            p1 = oracle_z_probability(sv, q, 1)
            samples = 20_000
            ones = sum(measure_z(sv, q, rng)[0] for _ in range(samples))
            sigma = np.sqrt(max(p1 * (1 - p1), 1e-12) / samples)
            assert abs(ones / samples - p1) <= 4 * sigma + 1e-9

class TestDtypeRule:
    """Every module op copies its input as ``Register`` does: real and int
    states become float64, complex ones complex128."""

    OPS = {
        "cnot": lambda amps, rng: (None, apply_cnot(amps, 0, 1)),
        "hadamard": lambda amps, rng: (None, apply_hadamard(amps, 1)),
        "measure_z": lambda amps, rng: measure_z(amps, 1, rng),
        "measure_x": lambda amps, rng: measure_x(amps, 0, rng),
        "measure_bell": lambda amps, rng: measure_bell(amps, 0, 1, rng),
    }

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float32, np.complex64, ">f8", ">c16"])
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_results_equal_the_double_precision_input(self, op, dtype, batch):
        # Amplitudes every dtype holds exactly: |10>, and in a batch also
        # |00> (ints) or the uniform halves.
        kind = np.dtype(dtype).kind
        amps = np.zeros((4, *batch))
        amps[2] = 1
        if batch:
            amps[:, 1] = (1, 0, 0, 0) if kind == "i" else 0.5
        amps = amps.astype(dtype)
        reference = amps.astype(complex if kind == "c" else float)
        outcome, result = self.OPS[op](amps, np.random.default_rng(5))
        expected_outcome, expected = self.OPS[op](reference, np.random.default_rng(5))
        assert result.dtype == reference.dtype and result.flags.c_contiguous
        assert np.array_equal(result, expected)
        assert np.array_equal(outcome, expected_outcome)

    @pytest.mark.parametrize("op", OPS)
    def test_a_double_input_in_fortran_order_comes_back_in_c_order(self, op):
        amps = np.asfortranarray(np.eye(4)[:, :3])  # |00>, |01>, |10>
        outcome, result = self.OPS[op](amps, np.random.default_rng(5))
        expected_outcome, expected = self.OPS[op](np.ascontiguousarray(amps), np.random.default_rng(5))
        assert result.flags.c_contiguous
        assert np.array_equal(result, expected)
        assert np.array_equal(outcome, expected_outcome)

    def test_register_follows_the_same_rule(self):
        for dtype, expected in ((np.int64, np.float64), (np.float32, np.float64), (np.complex64, np.complex128)):
            assert Register(np.array([1, 0], dtype=dtype)).amps.dtype == expected

    READS = {
        "tensor": lambda amps, dtype: tensor(amps, np.array([0, 1], dtype=dtype)),
        "bell_probabilities": lambda amps, dtype: bell_probabilities(amps, 0, 1),
    }

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float32, np.complex64, ">f8", ">c16"])
    @pytest.mark.parametrize("read", READS)
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_tensor_and_bell_probabilities_follow_the_rule(self, read, dtype, batch):
        # The states of the op test above, tensored with |1> or Bell-read.
        kind = np.dtype(dtype).kind
        amps = np.zeros((4, *batch))
        amps[2] = 1
        if batch:
            amps[:, 1] = (1, 0, 0, 0) if kind == "i" else 0.5
        double = complex if kind == "c" else float
        result = self.READS[read](amps.astype(dtype), dtype)
        expected = self.READS[read](amps.astype(double), double)
        assert result.dtype == expected.dtype == (double if read == "tensor" else float)
        assert np.array_equal(result, expected)


class TestRegister:
    def test_adjoin_returns_new_wire(self):
        reg = Register(prepare_bell(BellState.PHI_PLUS))
        wire = reg.adjoin(prepare_z(1))
        assert wire == 2
        assert reg.n == 3

    def test_cap_enforced(self, rng):
        reg = Register(random_state(8, rng))
        with pytest.raises(ValueError):
            reg.adjoin(prepare_z(0))

    def test_measurements_mutate_in_place(self, rng):
        reg = Register(prepare_bell(BellState.PHI_PLUS))
        bit_a = reg.measure_z(0, rng)
        bit_b = reg.measure_z(1, rng)
        assert bit_a == bit_b  # phi+ halves agree in Z

    def test_same_seed_same_stream(self):
        def drive(seed):
            rng = np.random.default_rng(seed)
            reg = Register(prepare_bell(BellState.PHI_PLUS))
            reg.adjoin(prepare_x(PLUS))
            return [reg.measure_z(0, rng), reg.measure_z(2, rng), reg.measure_x(1, rng)]

        assert drive(7) == drive(7)

    @pytest.mark.parametrize("op", ["cnot", "hadamard", "measure_z", "measure_x", "measure_bell", "swap"])
    @pytest.mark.parametrize("rows", [None, np.array([3, 0])])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_never_writes_into_the_array_it_was_built_from(self, op, rows, order, rng):
        amps = np.asarray(rng.normal(size=(8, 4)), order=order)
        amps /= np.linalg.norm(amps, axis=0)
        source = amps.copy()
        register = Register(amps)
        wires = (0, 2) if op in ("cnot", "measure_bell", "swap") else (1,)
        getattr(register, op)(*wires, *([rng] if op.startswith("measure") else []), rows=rows)
        picked = slice(None) if rows is None else rows
        assert not np.array_equal(register.amps[:, picked], source[:, picked])
        assert np.array_equal(amps, source)

    # A row selection is ascending, so its two ends bound it: a row outside
    # [0, num_rows) raises, naming the bound, before anything moves.  (A
    # flat index would wrap row -1 into another label's amplitudes.)
    @pytest.mark.parametrize("op", ["cnot", "hadamard", "measure_z", "measure_x", "measure_bell", "swap"])
    @pytest.mark.parametrize("rows", [[-1], [-1, 1], [3], [0, 3]])
    def test_a_row_out_of_range_raises(self, op, rows, rng):
        amps = tensor(prepare_z(np.zeros(3, int)), prepare_x(PLUS))
        register = Register(amps)
        wires = (0, 1) if op in ("cnot", "measure_bell", "swap") else (0,)
        with pytest.raises(ValueError, match=re.escape("in [0, 3)")):
            getattr(register, op)(*wires, *([rng] if op.startswith("measure") else []), rows=np.array(rows))
        assert np.array_equal(register.amps, amps)

    @pytest.mark.parametrize("op", ["cnot", "hadamard", "measure_z", "measure_x", "measure_bell", "swap"])
    def test_an_empty_row_selection_changes_nothing(self, op, rng):
        amps = tensor(prepare_x(np.zeros(3, int)), prepare_x(PLUS))
        register = Register(amps)
        wires = (0, 1) if op in ("cnot", "measure_bell", "swap") else (0,)
        getattr(register, op)(*wires, *([rng] if op.startswith("measure") else []), rows=np.array([], dtype=np.intp))
        assert np.array_equal(register.amps, amps)

    def test_an_int_array_wire_raises(self, rng):
        # A wire is one int for every row; an array of them, even one that
        # names a valid wire on each row, is refused before anything moves.
        amps = rng.normal(size=(8, 4))
        amps /= np.linalg.norm(amps, axis=0)
        per_row = np.array([0, 1, 0, 1])
        calls = [
            lambda register: register.cnot(per_row, 2),
            lambda register: register.swap(2, per_row),
            lambda register: register.hadamard(per_row),
            lambda register: register.measure_z(per_row, rng),
            lambda register: register.measure_x(per_row, rng, rows=np.array([0, 2])),
            lambda register: register.measure_bell(per_row, 2, rng),
            lambda register: apply_cnot(register.amps, 2, per_row),
            lambda register: bell_probabilities(register.amps, per_row, 2),
        ]
        for call in calls:
            register = Register(amps)
            with pytest.raises(TypeError):
                call(register)
            assert np.array_equal(register.amps, amps)

# A collapse picks its outcome and writes its blocks back one of two ways:
# a single state gathers its rotated blocks straight from the state, picks
# in Python floats and writes the scaled chosen block; a batch rotates its
# gathered blocks, picks in numpy, zeroes the other blocks and rotates them
# all back.  The two must give the same outcome and equal amplitudes (up to
# the sign of a zero) for every width, wire and uniform, including the edge
# uniforms 0 and 1 - 2**-53 and outcomes of probability 0.  A Hadamard on a
# single state takes the same gather, so it must equal the batch's too.
class _ConstantUniform:
    def __init__(self, value: float):
        self.value = value

    def random(self, size=None):
        # A Python float without a size, as numpy's Generator draws.
        return self.value if size is None else np.full(size, self.value)


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in ("z", "x", "hadamard") for n in range(1, kernel.MAX_QUBITS + 1)]
    + [("bell", n) for n in range(2, kernel.MAX_QUBITS + 1)],
)
def test_single_state_write_back_equals_one_column_batch(kind, n):
    measure = {
        "z": measure_z,
        "x": measure_x,
        "bell": measure_bell,
        # A gate has no outcome; it reads as outcome 0 on every state.
        "hadamard": lambda amps, q, rng: (0 if amps.ndim == 1 else np.zeros(1, int), apply_hadamard(amps, q)),
    }[kind]
    rng = np.random.default_rng(7000 + n)
    wire_sets = list(itertools.permutations(range(n), 2 if kind == "bell" else 1))
    for is_complex, with_zeros in itertools.product((False, True), repeat=2):
        state = rng.normal(size=1 << n) + (1j * rng.normal(size=1 << n) if is_complex else 0)
        if with_zeros:
            state[1:][rng.random((1 << n) - 1) < 0.5] = 0
        state /= np.linalg.norm(state)
        for wires, u in itertools.product(wire_sets, (0.0, 1 - 2**-53, rng.random(), rng.random())):
            outcome, post = measure(state, *wires, _ConstantUniform(u))
            outcomes, posts = measure(state[:, None], *wires, _ConstantUniform(u))
            assert getattr(outcome, "value", outcome) == int(outcomes[0])
            assert post.dtype == posts.dtype and np.array_equal(post, posts[:, 0])


# States, unnormalized and exact in every dtype, whose running sums land
# exactly on u * total, or that take an extreme uniform, with the outcome
# the rule gives: the first whose running sum exceeds u * total, so a tie
# goes to the next outcome of nonzero probability and an outcome of
# probability 0 is never picked.  (kind, amplitudes, wires, u, outcome).
TIES_AND_EXTREMES = [
    ("z", [1, 1], (0,), 0.5, 1),
    ("z", [1, 1], (0,), 0.0, 0),
    ("z", [0, 1], (0,), 0.0, 1),
    ("z", [1, 0], (0,), 1 - 2**-53, 0),
    ("z", [1] * 8, (1,), 0.5, 1),
    ("x", [1, 0], (0,), 0.5, 1),
    ("x", [1, 1], (0,), 1 - 2**-53, 0),
    ("x", [1, -1], (0,), 0.0, 1),
    ("bell", [1, 0, 0, 0], (0, 1), 0.5, 1),
    ("bell", [1, 0, 0, 0], (0, 1), 1 - 2**-53, 1),
    ("bell", [0, 1, -1, 0], (0, 1), 0.0, 3),
    ("bell", [0, 1, 0, 0], (0, 1), 0.0, 2),
    ("bell", [0, 1, 0, 0], (0, 1), 0.5, 3),
    ("bell", [1, 1, 1, 1], (0, 1), 0.5, 2),
    ("bell", [1, 0, 0, 0, 0, 0, 0, 1], (2, 0), 0.5, 1),
    ("bell", [1, 0, 0, 0, 0, 0, 0, 1], (2, 0), 1 - 2**-53, 1),
]


def _measure_with(api, kind, amps, wires, u):
    """(outcome as an int or int array, collapsed state) of one measurement
    through the module function or a ``Register``, every draw ``u``."""
    if api == "module":
        outcome, post = {"z": measure_z, "x": measure_x, "bell": measure_bell}[kind](amps, *wires, _ConstantUniform(u))
    else:
        register = Register(amps)
        outcome = getattr(register, f"measure_{kind}")(*wires, _ConstantUniform(u))
        post = register.amps
    return getattr(outcome, "value", outcome), post


@pytest.mark.parametrize("api", ["module", "register"])
@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex64])
@pytest.mark.parametrize("kind, amps, wires, u, expected", TIES_AND_EXTREMES)
def test_single_state_pick_at_ties_and_extremes(kind, amps, wires, u, expected, dtype, api):
    complex_input = np.dtype(dtype).kind == "c"
    state = (np.array(amps) * (1j if complex_input else 1)).astype(dtype)
    double = state.astype(complex if complex_input else float)
    outcome, post = _measure_with(api, kind, state, wires, u)
    batch_outcomes, batch_posts = _measure_with(api, kind, state[:, None], wires, u)
    double_outcome, double_post = _measure_with(api, kind, double, wires, u)
    assert type(outcome) is int and outcome == int(batch_outcomes[0]) == double_outcome == expected
    assert post.dtype == batch_posts.dtype == double.dtype
    assert np.array_equal(post, batch_posts[:, 0]) and np.array_equal(post, double_post)
    assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-12)


# A Register measurement takes the uniforms themselves only in the shape of
# the states it measures: the selected rows of a batch, a float or a 0-d
# array for one state.  Any other shape raises before anything moves, so a
# one-element array is never broadcast to every row.
@pytest.mark.parametrize("kind", ["z", "x", "bell"])
@pytest.mark.parametrize(
    "batch, rows, good, bad",
    [
        (False, None, [0.9, np.array(0.9)], [np.array([0.9]), np.full(2, 0.9)]),
        (True, None, [np.full(4, 0.9)], [np.array([0.9]), np.full(3, 0.9), np.array(0.9), 0.9]),
        (True, np.array([0, 2]), [np.full(2, 0.9)], [np.array([0.9]), np.full(4, 0.9), 0.9]),
    ],
    ids=["single", "batch", "batch-rows"],
)
def test_register_uniforms_must_have_the_measured_shape(kind, batch, rows, good, bad):
    state = prepare_x(np.zeros(4, int) if batch else PLUS)
    amps = tensor(state, prepare_x(PLUS))
    wires = (0, 1) if kind == "bell" else (0,)
    measured = () if not batch else (4,) if rows is None else (2,)
    expected = "a float or a 0-d array" if not batch else re.escape(f"shape {measured}")
    for uniforms in bad:
        register = Register(amps)
        with pytest.raises(ValueError, match=expected):
            getattr(register, f"measure_{kind}")(*wires, uniforms, rows=rows)
        assert np.array_equal(register.amps, amps)
    for uniforms in good:
        outcome = getattr(Register(amps), f"measure_{kind}")(*wires, uniforms, rows=rows)
        assert np.shape(getattr(outcome, "value", outcome)) == measured


# Every table entry of every width: each wire (or ordered wire pair) acts
# on its own row of one register, selected by ``rows``, and each row is
# checked against the module call on its own state and against an embedded
# operator or projector, while the other rows stay as they were.
_ONE_WIRE = ("hadamard", "z", "x")
_TWO_WIRES = ("cnot", "swap", "bell", "bell_probabilities")
_PROJECTORS = {
    "z": [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)],
    "x": [X_PLUS, X_MINUS],
    "bell": [BELL_VECTORS[name] for name in ("phi+", "phi-", "psi+", "psi-")],
}
_GATES = {
    "hadamard": np.array([[1, 1], [1, -1]], dtype=complex) * S,
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def _register_call(kind, register, wires, u, row):
    """Outcome (or None) of ``kind`` on ``wires`` of one ``row``, its draw ``u``."""
    rows = np.array([row])
    if kind in _GATES:
        getattr(register, {"hadamard": "hadamard", "cnot": "cnot", "swap": "swap"}[kind])(*wires, rows=rows)
        return None
    outcome = getattr(register, f"measure_{kind}")(*wires, np.array([u]), rows=rows)
    return int(getattr(outcome[0], "value", outcome[0]))


def _single_call(kind, state, wires, u):
    """(outcome or None, result) of the module call on one state."""
    if kind == "cnot":
        return None, apply_cnot(state, *wires)
    if kind == "hadamard":
        return None, apply_hadamard(state, *wires)
    if kind == "swap":
        register = Register(state)
        register.swap(*wires)
        return None, register.amps
    measure = {"z": measure_z, "x": measure_x, "bell": measure_bell}[kind]
    outcome, post = measure(state, *wires, _ConstantUniform(u))
    return int(getattr(outcome, "value", outcome)), post


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in _ONE_WIRE for n in range(1, kernel.MAX_QUBITS + 1)]
    + [(kind, n) for kind in _TWO_WIRES for n in range(2, kernel.MAX_QUBITS + 1)],
)
def test_tables_cover_every_entry(kind, n):
    k = 1 if kind in _ONE_WIRE else 2
    entries = list(itertools.permutations(range(n), k))
    seed = 1000 * n + k
    states = np.stack([random_state(n, np.random.default_rng(seed + i)) for i in range(len(entries))], axis=1)
    uniforms = np.random.default_rng(seed).random(len(entries))

    register = Register(states)
    for i, wires in enumerate(entries):
        state = states[:, i]
        if kind == "bell_probabilities":
            probs = np.array([oracle_projector_probability(state, v, list(wires)) for v in _PROJECTORS["bell"]])
            assert bell_probabilities(states, *wires)[:, i] == pytest.approx(probs, abs=TOL)
            assert bell_probabilities(state, *wires) == pytest.approx(probs, abs=TOL)
            continue
        outcome = _register_call(kind, register, wires, uniforms[i], i)
        got = register.amps[:, i]
        single_outcome, expected = _single_call(kind, state, wires, uniforms[i])
        assert outcome == single_outcome
        assert np.allclose(got, expected, atol=1e-12)
        if kind in _GATES:
            full = embed_operator(_GATES[kind], list(wires), n)
            assert np.allclose(got, full @ state, atol=TOL)
            continue
        vectors = _PROJECTORS[kind]
        if kind == "z":
            probs = np.array([oracle_z_probability(state, wires[0], v) for v in (0, 1)])
        else:
            probs = np.array([oracle_projector_probability(state, v, list(wires)) for v in vectors])
        # The outcome is the one the oracle's cumulative probabilities give
        # the row's uniform, and the row collapses onto its projector.
        below = probs[:outcome].sum()
        assert below - TOL <= uniforms[i] < below + probs[outcome] + TOL
        v = vectors[outcome]
        projected = embed_operator(np.outer(v, v.conj()), list(wires), n) @ state
        assert np.allclose(got, projected / np.sqrt(probs[outcome]), atol=TOL)
    # Each entry touched its own row only.
    if kind != "bell_probabilities":
        for i, wires in enumerate(entries):
            assert np.allclose(register.amps[:, i], _single_call(kind, states[:, i], wires, uniforms[i])[1], atol=1e-12)


# The cached tables hold each fact once: one label table per (width,
# wires), the "blocks" entry, which the other entries view or gather from,
# and one set of rotation factors per block shape, shared by every wire of
# that shape.  Entries share arrays, so every cached array is read-only.
_TABLE_OPS = {1: ("blocks", "rotated"), 2: ("blocks", "cnot", "swap", "cnot_labels", "rotated")}


def _arrays(entry):
    """Every array a table entry holds, through its tuples and dicts."""
    if isinstance(entry, np.ndarray):
        yield entry
    elif isinstance(entry, (tuple, dict)):
        for item in entry.values() if isinstance(entry, dict) else entry:
            yield from _arrays(item)


def _every_entry():
    return [
        kernel._table(op, n, *wires)
        for n in range(1, kernel.MAX_QUBITS + 1)
        for k, ops in _TABLE_OPS.items()
        for wires in itertools.permutations(range(n), k)
        for op in ops
    ]


def test_every_table_entry_fits_in_its_byte_bound():
    owners = {}
    for entry in _every_entry():
        for array in _arrays(entry):
            while isinstance(array.base, np.ndarray):
                array = array.base
            owners[id(array)] = array
    assert sum(array.nbytes for array in owners.values()) <= 0.9 * 2**20


@pytest.mark.parametrize("n, wire_sets", [(4, [(0,), (3,), (1,)]), (4, [(0, 1), (3, 1), (2, 0)]), (8, [(0,), (7,)])])
def test_rotated_entries_of_one_block_shape_share_their_factors(n, wire_sets):
    first, *others = (list(_arrays(kernel._table("rotated", n, *wires)[3])) for wires in wire_sets)
    for factors in others:
        assert len(factors) == len(first) and all(a is b for a, b in zip(factors, first))


@pytest.mark.parametrize("n", range(1, kernel.MAX_QUBITS + 1))
def test_derived_entries_share_the_blocks_labels(n):
    for wires in itertools.chain(itertools.permutations(range(n), 1), itertools.permutations(range(n), 2)):
        blocks = kernel._table("blocks", n, *wires)
        assert np.shares_memory(kernel._table("rotated", n, *wires)[0], blocks)
        for op in ("cnot", "swap") if len(wires) == 2 else ():
            assert np.shares_memory(kernel._table(op, n, *wires), blocks)


def test_a_write_into_any_table_entry_raises():
    for entry in _every_entry():
        for array in _arrays(entry):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0
