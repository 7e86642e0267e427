"""Tests for the dual-backend register, gates, noise, and compilation."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from vqenoise.ansatz import (
    Ansatz,
    AnsatzElement,
    build_fermionic_pool,
    build_kupccgsd,
    build_qeb_pool,
    build_qubit_pool,
    build_uccsd,
    hartree_fock_index,
)
from vqenoise.exceptions import (
    ConfigError,
    DimensionError,
    NumericIntegrityError,
    ResourceLimitError,
)
from vqenoise.adapt import _apply_generator
from vqenoise.operators import (
    MATRIX_CACHE_QUBITS,
    PauliString,
    QubitOperator,
    check_memory,
    expectation,
)
from vqenoise.simulator import (
    DENSITY_PEAK_COPIES,
    NOISELESS,
    GateOp,
    NoiseModel,
    QuantumState,
    _apply_1q,
    _depolarize_core,
    apply_depolarizing,
    apply_element,
    apply_gate,
    apply_rotations_to_rows,
    cnot_count,
    compile_circuit,
    compile_element,
    givens_rotations,
    run_circuit,
)
from vqenoise.pauli_transfer import conjugate_masks

from oracles import (
    _apply_1q_left,
    apply_element_kernel_oracle,
    apply_gate_kernel_oracle,
    circuit_unitary,
    depolarize_kernel_oracle,
    depolarizing_oracle,
    element_unitary_expm,
    gate_unitary,
    kron_pauli,
    qubit_operator_matrix,
    random_density,
)


def random_vector(n_qubits, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


def random_gates(n_qubits, n_gates, seed):
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["cnot", "rot", "h", "v", "vdg"])
        if kind == "cnot":
            c, t = rng.choice(n_qubits, size=2, replace=False)
            gates.append(GateOp.cnot(int(c), int(t)))
        elif kind == "rot":
            axis = rng.choice(list("XYZ"))
            gates.append(GateOp.rotation(
                axis, float(rng.uniform(-3, 3)), int(rng.integers(n_qubits))
            ))
        else:
            gates.append(GateOp(kind, (int(rng.integers(n_qubits)),)))
    return gates


ALL_POOLS = {
    "fermionic_4": lambda: build_fermionic_pool(4, 2).elements,
    "fermionic_6": lambda: build_fermionic_pool(6, 2).elements,
    "qeb_4": lambda: build_qeb_pool(4, 2).elements,
    "qubit_pauli_4": lambda: build_qubit_pool(4).elements,
    "kupccgsd_4": lambda: build_kupccgsd(4, 2, 1).elements,
}


class TestQuantumState:
    def test_from_basis_index_vector(self):
        s = QuantumState.from_basis_index(2, 2)
        assert not s.is_density
        np.testing.assert_array_equal(s.data, [0, 0, 1, 0])

    def test_from_basis_index_density(self):
        s = QuantumState.from_basis_index(1, 2, density=True)
        assert s.is_density
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        np.testing.assert_array_equal(s.data, expected)

    def test_bad_index_rejected(self):
        with pytest.raises(DimensionError):
            QuantumState.from_basis_index(4, 2)

    def test_bad_shape_rejected(self):
        with pytest.raises(DimensionError):
            QuantumState(2, np.zeros(3))

    def test_copy_is_independent(self):
        s = QuantumState.from_basis_index(0, 1)
        t = s.copy()
        t.data[0] = 0.0
        assert s.data[0] == 1.0

    def test_to_density(self):
        v = random_vector(2, seed=7)
        s = QuantumState(2, v)
        rho = s.to_density()
        assert rho.is_density
        np.testing.assert_allclose(rho.data, np.outer(v, v.conj()))

    def test_check_weight_flags_drift(self):
        s = QuantumState(1, np.array([0.9, 0.0]))
        with pytest.raises(NumericIntegrityError):
            s.check_weight()

    def test_validate_rejects_non_hermitian(self):
        s = QuantumState(1, np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(NumericIntegrityError):
            s.validate()

    def test_validate_rejects_negative_eigenvalue(self):
        s = QuantumState(1, np.array([[1.5, 0.0], [0.0, -0.5]]))
        with pytest.raises(NumericIntegrityError):
            s.validate()

    def test_validate_accepts_mixed_state(self):
        QuantumState(2, np.eye(4) / 4).validate()

    @pytest.mark.parametrize("shape", [(4,), (4, 4)])
    def test_check_weight_flags_nan(self, shape):
        with pytest.raises(NumericIntegrityError):
            QuantumState(2, np.full(shape, np.nan)).check_weight()

    @pytest.mark.parametrize("shape", [(4,), (4, 4)])
    def test_validate_rejects_nan(self, shape):
        with pytest.raises(NumericIntegrityError):
            QuantumState(2, np.full(shape, np.nan)).validate()


class TestGateOp:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GateOp.cnot(1, 1)
        with pytest.raises(ConfigError):
            GateOp("rot", (0,), axis="Q")
        for axis in ("", "XY", "YZ"):  # substrings of "XYZ" are no axis
            with pytest.raises(ConfigError):
                GateOp("rot", (0,), axis=axis)
        with pytest.raises(ConfigError):
            GateOp("h", (0, 1))
        with pytest.raises(ConfigError):
            GateOp("toffoli", (0, 1, 2))

    @pytest.mark.parametrize("gate", [
        GateOp.hadamard(0),
        GateOp.v(0),
        GateOp.vdg(0),
        GateOp.rotation("X", 0.7, 0),
        GateOp.rotation("Y", -1.2, 0),
        GateOp.rotation("Z", 2.1, 0),
    ])
    def test_matrices_are_unitary(self, gate):
        m = gate.matrix_1q()
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_v_maps_y_to_z(self):
        # basis-change requirement: v Y v+ = Z, so measuring Z after v
        # reads out Y
        v = GateOp.v(0).matrix_1q()
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0, -1.0])
        np.testing.assert_allclose(v @ y @ v.conj().T, z, atol=1e-12)

    def test_vdg_inverts_v(self):
        v = GateOp.v(0).matrix_1q()
        vdg = GateOp.vdg(0).matrix_1q()
        np.testing.assert_allclose(vdg @ v, np.eye(2), atol=1e-12)

    def test_rz_is_exact_z_exponential(self):
        # Rz(-2 b theta) = exp(i b theta Z) with no extra global phase
        b_theta = 0.37
        m = GateOp.rotation("Z", -2 * b_theta, 0).matrix_1q()
        expected = np.diag([np.exp(1j * b_theta), np.exp(-1j * b_theta)])
        np.testing.assert_allclose(m, expected, atol=1e-12)


class TestApplyGate:
    def test_cnot_flips_target_when_control_set(self):
        # qubit 0 = LSB is the control: index 1 -> index 3
        s = QuantumState.from_basis_index(1, 2)
        apply_gate(s, GateOp.cnot(0, 1))
        np.testing.assert_array_equal(s.data, [0, 0, 0, 1])

    def test_cnot_ignores_clear_control(self):
        s = QuantumState.from_basis_index(2, 2)
        apply_gate(s, GateOp.cnot(0, 1))
        np.testing.assert_array_equal(s.data, [0, 0, 1, 0])

    def test_hadamard_makes_plus_state(self):
        s = QuantumState.from_basis_index(0, 1)
        apply_gate(s, GateOp.hadamard(0))
        np.testing.assert_allclose(s.data, [2**-0.5, 2**-0.5])

    def test_rz_phases_basis_states(self):
        theta = 0.9
        s = QuantumState(1, np.array([0.6, 0.8]))
        apply_gate(s, GateOp.rotation("Z", theta, 0))
        np.testing.assert_allclose(
            s.data,
            [0.6 * np.exp(-1j * theta / 2), 0.8 * np.exp(1j * theta / 2)],
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vector_circuit_matches_unitary_oracle(self, seed):
        n = 3
        gates = random_gates(n, 12, seed)
        v = random_vector(n, seed + 100)
        s = QuantumState(n, v.copy())
        for g in gates:
            apply_gate(s, g)
        np.testing.assert_allclose(
            s.data, circuit_unitary(gates, n) @ v, atol=1e-12
        )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_density_circuit_matches_conjugation_oracle(self, seed):
        n = 3
        gates = random_gates(n, 12, seed)
        rho = random_density(n, seed + 100)
        s = QuantumState(n, rho.copy())
        for g in gates:
            apply_gate(s, g)
        u = circuit_unitary(gates, n)
        np.testing.assert_allclose(s.data, u @ rho @ u.conj().T, atol=1e-12)

    def test_density_and_vector_backends_agree(self):
        n = 3
        gates = random_gates(n, 10, seed=9)
        vec = QuantumState.from_basis_index(5, n)
        den = QuantumState.from_basis_index(5, n, density=True)
        for g in gates:
            apply_gate(vec, g)
            apply_gate(den, g)
        np.testing.assert_allclose(
            den.data, np.outer(vec.data, vec.data.conj()), atol=1e-12
        )

    def test_out_of_range_qubit(self):
        s = QuantumState.from_basis_index(0, 2)
        with pytest.raises(DimensionError):
            apply_gate(s, GateOp.hadamard(2))


class TestDepolarizing:
    def test_zero_probability_is_identity(self):
        rho = random_density(2, seed=0)
        s = QuantumState(2, rho.copy())
        apply_depolarizing(s, 0, 0.0)
        np.testing.assert_array_equal(s.data, rho)

    def test_ground_state_populations(self):
        p = 0.12
        s = QuantumState.from_basis_index(0, 1, density=True)
        apply_depolarizing(s, 0, p)
        np.testing.assert_allclose(
            s.data, np.diag([1 - 2 * p / 3, 2 * p / 3]), atol=1e-14
        )

    def test_maximally_mixed_is_fixed_point(self):
        s = QuantumState(2, np.eye(4) / 4)
        apply_depolarizing(s, 1, 0.3)
        np.testing.assert_allclose(s.data, np.eye(4) / 4, atol=1e-14)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    @pytest.mark.parametrize("p", [0.01, 0.25, 1.0])
    def test_matches_kraus_oracle(self, qubit, p):
        rho = random_density(3, seed=qubit + 17)
        s = QuantumState(3, rho.copy())
        apply_depolarizing(s, qubit, p)
        np.testing.assert_allclose(
            s.data, depolarizing_oracle(rho, qubit, p, 3), atol=1e-13
        )

    def test_preserves_density_invariants(self):
        s = QuantumState(3, random_density(3, seed=23))
        apply_depolarizing(s, 1, 0.2)
        s.validate()

    def test_composition_law(self):
        # two applications compose to p' = p1 + p2 - 4 p1 p2 / 3
        p1, p2 = 0.1, 0.07
        rho = random_density(2, seed=5)
        twice = QuantumState(2, rho.copy())
        apply_depolarizing(twice, 0, p1)
        apply_depolarizing(twice, 0, p2)
        once = QuantumState(2, rho.copy())
        apply_depolarizing(once, 0, p1 + p2 - 4 * p1 * p2 / 3)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-14)

    def test_vector_backend_rejected(self):
        s = QuantumState.from_basis_index(0, 1)
        with pytest.raises(ConfigError):
            apply_depolarizing(s, 0, 0.1)

    def test_bad_probability_rejected(self):
        s = QuantumState.from_basis_index(0, 1, density=True)
        with pytest.raises(ConfigError):
            apply_depolarizing(s, 0, 1.5)

    def test_bad_qubit_rejected(self):
        s = QuantumState.from_basis_index(0, 1, density=True)
        with pytest.raises(DimensionError):
            apply_depolarizing(s, 1, 0.1)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ConfigError):
            NoiseModel(-0.1)
        with pytest.raises(ConfigError):
            NoiseModel(0.1, scheme="per_shot")

    def test_effective_probability(self):
        nm = NoiseModel(1e-3, "gate_by_gate")
        assert not NOISELESS.is_noisy
        assert nm.is_noisy


class TestCompileElement:
    def _element(self, paulis, n, b=1.0):
        ps = PauliString(paulis, n)
        return AnsatzElement(
            generator=QubitOperator.from_term(ps, 1j * b), label="t"
        )

    def test_weight_one_y_needs_no_cnots(self):
        e = self._element({0: "Y"}, 1)
        gates = compile_element(e, 0.4)
        assert [g.kind for g in gates] == ["v", "rot", "vdg"]
        assert e.cnot_count == 0

    def test_weight_two_structure(self):
        e = self._element({0: "X", 1: "Y"}, 2)
        kinds = [g.kind for g in compile_element(e, 0.4)]
        assert kinds == ["h", "v", "cnot", "rot", "cnot", "vdg", "h"]

    def test_ladder_is_ascending_and_rotation_on_top(self):
        e = self._element({0: "X", 2: "X", 3: "Y"}, 4)
        gates = compile_element(e, 1.0)
        cnots = [g.qubits for g in gates if g.is_cnot]
        assert cnots == [(0, 2), (2, 3), (2, 3), (0, 2)]
        rot = [g for g in gates if g.kind == "rot"][0]
        assert rot.qubits == (3,)
        assert rot.axis == "Z"
        assert rot.angle == pytest.approx(-2.0)

    def test_weight_four_costs_six_cnots(self):
        e = self._element({0: "X", 1: "X", 2: "X", 3: "Y"}, 4)
        gates = compile_element(e, 0.3)
        assert sum(g.is_cnot for g in gates) == 6
        assert e.cnot_count == 6

    @pytest.mark.parametrize("pool_name", sorted(ALL_POOLS))
    def test_gate_cnot_recount_matches_schedule(self, pool_name):
        for e in ALL_POOLS[pool_name]():
            gates = compile_element(e, 0.7)
            assert sum(g.is_cnot for g in gates) == e.cnot_count, e.label

    @pytest.mark.parametrize("pool_name", sorted(ALL_POOLS))
    @pytest.mark.parametrize("theta", [0.3, -1.1])
    def test_compiled_unitary_matches_exponential(self, pool_name, theta):
        # the staircase product equals exp(theta T) exactly because all
        # generator terms commute; checked against a dense expm oracle
        for e in ALL_POOLS[pool_name]():
            u = circuit_unitary(compile_element(e, theta), e.n_qubits)
            np.testing.assert_allclose(
                u, element_unitary_expm(e, theta), atol=1e-12,
                err_msg=f"{e.label} at theta={theta}",
            )

    def test_compile_circuit_concatenates(self):
        ansatz = build_uccsd(4, 2)
        params = [0.1, -0.2, 0.3]
        gates = compile_circuit(ansatz, params)
        expected = []
        for e, t in zip(ansatz.elements, params):
            expected.extend(compile_element(e, t))
        assert gates == expected

    def test_compile_circuit_shape_check(self):
        with pytest.raises(DimensionError):
            compile_circuit(build_uccsd(4, 2), [0.1])

    def test_cnot_count_sums_elements(self):
        ansatz = build_uccsd(4, 2)
        assert cnot_count(ansatz) == sum(e.cnot_count for e in ansatz.elements)
        assert cnot_count(Ansatz()) == 0


def assert_elements_match_expm(start, theta):
    """apply_element on a copy of ``start`` (vector or density matrix)
    against a dense exponential, for every element of the three pools."""
    for pool_name in ("fermionic_4", "qeb_4", "qubit_pauli_4"):
        for e in ALL_POOLS[pool_name]():
            s = QuantumState(4, start.copy())
            apply_element(s, e, theta)
            u = element_unitary_expm(e, theta)
            expected = u @ start @ u.conj().T if start.ndim == 2 else u @ start
            np.testing.assert_allclose(
                s.data, expected, atol=1e-12, err_msg=e.label
            )


class TestApplyElement:
    @pytest.mark.parametrize("theta", [0.3, -1.1])
    def test_vector_matches_expm_oracle(self, theta):
        assert_elements_match_expm(random_vector(4, seed=11), theta)

    @pytest.mark.parametrize("theta", [0.3, -1.1])
    def test_density_matches_expm_oracle(self, theta):
        assert_elements_match_expm(random_density(4, seed=13), theta)

    def test_row_kernel_matches_single_states(self):
        # a block of k rows through one Givens rotation list, which skips
        # the zero-angle element, equals k single-state apply_element runs
        pool = build_fermionic_pool(4, 2).elements
        steps = [(pool[2], 0.4), (pool[0], 0.0), (pool[1], -0.7)]
        assert givens_rotations(pool[0], 0.0) == []
        rotations = [r for e, theta in steps
                     for r in givens_rotations(e, theta)]
        start = np.array([random_vector(4, seed) for seed in range(5)])
        block = start.copy()
        apply_rotations_to_rows(block, rotations, np.empty_like(block))
        u = element_unitary_expm(pool[1], -0.7) \
            @ element_unitary_expm(pool[2], 0.4)
        for row, v in zip(block, start):
            s = QuantumState(4, v.copy())
            for e, theta in steps:
                apply_element(s, e, theta)
            np.testing.assert_array_equal(row, s.data)
            np.testing.assert_allclose(row, u @ v, atol=1e-12)

    def test_zero_angle_is_identity(self):
        v = random_vector(4, seed=3)
        s = QuantumState(4, v.copy())
        apply_element(s, build_fermionic_pool(4, 2).elements[2], 0.0)
        np.testing.assert_array_equal(s.data, v)

    def test_additive_in_theta(self):
        e = build_fermionic_pool(4, 2).elements[2]
        v = random_vector(4, seed=4)
        a = QuantumState(4, v.copy())
        apply_element(apply_element(a, e, 0.4), e, 0.25)
        b = QuantumState(4, v.copy())
        apply_element(b, e, 0.65)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_inverse(self):
        e = build_qubit_pool(4).elements[7]
        v = random_vector(4, seed=5)
        s = QuantumState(4, v.copy())
        apply_element(apply_element(s, e, 0.8), e, -0.8)
        np.testing.assert_allclose(s.data, v, atol=1e-12)

    def test_register_mismatch(self):
        e = build_fermionic_pool(4, 2).elements[0]
        with pytest.raises(DimensionError):
            apply_element(QuantumState.from_basis_index(0, 3), e, 0.1)


def mixed_runs_element():
    """T = i sum_k b_k P_k whose stored order puts X0, then the
    anticommuting Y0 and the commuting Y0 Z1, then Y1 X2 and X1 Y2 on a
    second x mask: runs [X0], [Y0, Y0 Z1], [Y1 X2, X1 Y2]."""
    terms = {"X0": 0.3, "Y0": -0.5, "Y0 Z1": 0.2, "Y1 X2": 0.4, "X1 Y2": -0.25}
    return AnsatzElement(QubitOperator(3, {
        PauliString({int(f[1]): f[0] for f in label.split()}, 3): 1j * b
        for label, b in terms.items()
    }), "mixed runs")


class TestCompiledRuns:
    def test_runs_split_at_x_masks_and_anticommuting_terms(self):
        e = mixed_runs_element()
        assert [ps.label for ps, _ in e.terms] == \
            ["X0", "Y0", "Y0 Z1", "Y1 X2", "X1 Y2"]
        runs = e.runs()
        assert [list(targets) for targets, *_ in runs] == \
            [[j ^ m for j in range(8)] for m in (1, 1, 6)]
        for seed, theta in ((7, 0.9), (8, -1.7)):
            v = random_vector(3, seed)
            fast = apply_element(QuantumState(3, v.copy()), e, theta).data
            slow = apply_element_kernel_oracle(QuantumState(3, v.copy()), e,
                                               theta).data
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-14)
            gates = circuit_unitary(compile_element(e, theta), 3) @ v
            np.testing.assert_allclose(fast, gates, rtol=0, atol=1e-12)
        v = random_vector(3, 9)
        np.testing.assert_allclose(
            _apply_generator(e, v), qubit_operator_matrix(e.generator) @ v,
            rtol=0, atol=1e-14)

    def test_runs_stored_read_only(self):
        e = build_qeb_pool(4, 2).elements[-1]
        runs = e.runs()
        assert e.runs() is runs and len(runs) == 1
        for run in runs:
            assert not any(array.flags.writeable for array in run)
            with pytest.raises(ValueError):
                run[2][0] = 0.0

    def test_compiled_pool_holds_only_its_runs(self):
        """Every run of the 8-qubit fermionic pool compiled holds under
        0.5 MiB (about 0.3): no string keeps its own action beside them."""
        pool = build_fermionic_pool(8, 4)
        tracemalloc.start()
        try:
            for element in pool.elements:
                element.runs()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**19

    def test_pickle_carries_no_runs(self):
        import pickle

        e = build_fermionic_pool(4, 2).elements[-1]
        blank = pickle.dumps(e)
        runs = e.runs()
        assert pickle.dumps(e) == blank
        loaded = pickle.loads(blank)
        assert loaded._runs is None
        (fresh,) = loaded.runs()
        assert fresh[2] is not runs[0][2]
        for array, stored in zip(fresh, runs[0]):
            assert np.array_equal(array, stored)

    def test_large_register_not_stored(self):
        n = MATRIX_CACHE_QUBITS + 1
        e = AnsatzElement(QubitOperator(n, {
            PauliString({0: "X", n - 1: "Y"}, n): 0.6j,
            PauliString({0: "Y", n - 1: "X"}, n): -0.6j,
        }), "above the cap")
        v = random_vector(n, 5)
        fast = apply_element(QuantumState(n, v.copy()), e, 0.7).data
        assert e._runs is None
        assert e.runs()[0][1] is not e.runs()[0][1]
        slow = apply_element_kernel_oracle(QuantumState(n, v.copy()), e, 0.7)
        np.testing.assert_allclose(fast, slow.data, rtol=0, atol=1e-14)


class TestRunCircuit:
    def test_noiseless_matches_unitary_oracle(self, h2):
        ansatz = build_uccsd(h2.n_qubits, h2.n_electrons)
        rng = np.random.default_rng(21)
        params = rng.uniform(-0.5, 0.5, ansatz.n_params)
        state = run_circuit(hartree_fock_index(h2.n_electrons), ansatz, params)
        u = circuit_unitary(compile_circuit(ansatz, params), h2.n_qubits)
        hf = np.zeros(1 << h2.n_qubits)
        hf[hartree_fock_index(h2.n_electrons)] = 1.0
        np.testing.assert_allclose(state.data, u @ hf, atol=1e-10)

    def test_empty_ansatz_returns_reference(self):
        state = run_circuit(3, Ansatz(), [], n_qubits=4)
        np.testing.assert_array_equal(np.flatnonzero(state.data), [3])

    def test_empty_ansatz_needs_register_size(self):
        with pytest.raises(ConfigError):
            run_circuit(0, Ansatz(), [])

    def test_param_shape_checked(self):
        ansatz = build_uccsd(4, 2)
        with pytest.raises(DimensionError):
            run_circuit(3, ansatz, [0.1, 0.2])

    @pytest.mark.parametrize("noise", [NOISELESS, NoiseModel(1e-3)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, noise, bad):
        ansatz = build_uccsd(4, 2)
        with pytest.raises(ConfigError, match="finite"):
            run_circuit(3, ansatz, [0.1, bad, 0.3], noise=noise)

    def test_zero_probability_uses_vector_backend(self):
        ansatz = build_uccsd(4, 2)
        params = [0.1, -0.2, 0.3]
        for scheme in ("gate_by_gate", "element_by_element"):
            state = run_circuit(
                3, ansatz, params, noise=NoiseModel(0.0, scheme)
            )
            assert not state.is_density

    @pytest.mark.parametrize("scheme", ["gate_by_gate", "element_by_element"])
    def test_noisy_state_is_valid_density(self, scheme):
        ansatz = build_uccsd(4, 2)
        state = run_circuit(
            3, ansatz, [0.1, -0.2, 0.3], noise=NoiseModel(5e-3, scheme)
        )
        assert state.is_density
        state.validate()

    def test_gate_by_gate_matches_manual_oracle(self):
        # replay the compiled gate stream densely with Kraus channels
        ansatz = Ansatz.from_elements([build_qubit_pool(2).elements[0]])
        p = 0.02
        theta = 0.6
        state = run_circuit(
            0, ansatz, [theta], noise=NoiseModel(p, "gate_by_gate")
        )
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        for g in compile_circuit(ansatz, [theta]):
            u = gate_unitary(g, 2)
            rho = u @ rho @ u.conj().T
            if g.is_cnot:
                rho = depolarizing_oracle(rho, g.qubits[1], p, 2)
        np.testing.assert_allclose(state.data, rho, atol=1e-13)

    def test_element_by_element_matches_manual_oracle(self):
        # exact element unitary, then one channel per scheduled target
        e = build_fermionic_pool(4, 2).elements[2]
        ansatz = Ansatz.from_elements([e])
        p = 0.01
        theta = -0.4
        state = run_circuit(
            3, ansatz, [theta], noise=NoiseModel(p, "element_by_element")
        )
        rho = np.zeros((16, 16), dtype=complex)
        rho[3, 3] = 1.0
        u = element_unitary_expm(e, theta)
        rho = u @ rho @ u.conj().T
        for qubit, count in e.cnot_schedule:
            for _ in range(count):
                rho = depolarizing_oracle(rho, qubit, p, 4)
        np.testing.assert_allclose(state.data, rho, atol=1e-13)

    def test_single_cnot_z_expectation_decay(self):
        # one CNOT with a clear control leaves |00>; the channel on the
        # target then gives <Z_1> = 1 - 4p/3
        z1 = QubitOperator.from_term(PauliString({1: "Z"}, 2), 1.0)
        for p in (0.0, 0.05, 0.3):
            s = QuantumState.from_basis_index(0, 2, density=True)
            apply_gate(s, GateOp.cnot(0, 1))
            apply_depolarizing(s, 1, p)
            assert expectation(z1, s) == pytest.approx(1 - 4 * p / 3)

    def test_density_limit_enforced(self, physical_memory):
        """A noisy run's density matrix is admitted by its charge alone,
        under either scheme: refused 4096 B below it, run at it."""
        ansatz = build_uccsd(4, 2)
        charge = DENSITY_PEAK_COPIES * 16 * 4**4
        for scheme in ("gate_by_gate", "element_by_element"):
            noise = NoiseModel(1e-3, scheme)
            physical_memory(charge - 4096)
            with pytest.raises(ResourceLimitError, match="4-qubit run needs"):
                run_circuit(3, ansatz, [0.1, 0.2, 0.3], noise=noise)
            physical_memory(charge)
            state = run_circuit(3, ansatz, [0.1, 0.2, 0.3], noise=noise)
            assert state.data.shape == (16, 16)


def one_qubit_gates(qubit):
    """Every single-qubit gate kind the compiler or a caller can emit."""
    return [GateOp.hadamard(qubit), GateOp.v(qubit), GateOp.vdg(qubit)] + [
        GateOp.rotation(axis, 0.7, qubit) for axis in "XYZ"
    ]


def kernel_inputs(n_qubits):
    """A density matrix and a vector."""
    return {"density": random_density(n_qubits, seed=n_qubits),
            "vector": random_vector(n_qubits, seed=n_qubits)}


def assert_kernel_matches_oracle(data, n_qubits, gate):
    """apply_gate against the allocating kernels it replaced, compared
    with np.array_equal."""
    fast = apply_gate(QuantumState(n_qubits, data.copy()), gate).data
    slow = apply_gate_kernel_oracle(QuantumState(n_qubits, data.copy()), gate).data
    assert np.array_equal(fast, slow), gate


class TestKernelsBitIdentical:
    """The in-place kernels give exactly the bits of the allocating ones
    kept in ``oracles``; canonical benchmark outputs depend on it."""

    @pytest.mark.parametrize("n_qubits", [4, 8])
    @pytest.mark.parametrize("kind", ["density", "vector"])
    def test_one_qubit_gates(self, n_qubits, kind):
        data = kernel_inputs(n_qubits)[kind]
        for qubit in range(n_qubits):
            for gate in one_qubit_gates(qubit):
                assert_kernel_matches_oracle(data, n_qubits, gate)

    @pytest.mark.parametrize("n_qubits", [4, 8])
    def test_each_side_of_rho(self, n_qubits):
        # bit q + n is the row (ket) side, bit q the column (bra) side
        rho = random_density(n_qubits, seed=1)
        for bit in range(2 * n_qubits):
            qubit = bit % n_qubits
            for gate in one_qubit_gates(qubit):
                for m in (gate.matrix_1q(), gate.matrix_1q().conj()):
                    fast, slow = rho.copy(), rho.copy()
                    _apply_1q(fast.reshape(-1), m, bit, np.empty(rho.size, complex))
                    side = slow if bit >= n_qubits else slow.reshape(-1)
                    _apply_1q_left(side, m, qubit)
                    assert np.array_equal(fast, slow), (gate, bit)

    @pytest.mark.parametrize("n_qubits", [4, 8])
    @pytest.mark.parametrize("kind", ["density", "vector"])
    def test_cnots_both_orders(self, n_qubits, kind):
        data = kernel_inputs(n_qubits)[kind]
        for control in range(n_qubits):
            for target in range(n_qubits):
                if control != target:
                    assert_kernel_matches_oracle(
                        data, n_qubits, GateOp.cnot(control, target)
                    )

    @pytest.mark.parametrize("n_qubits", [4, 8])
    def test_depolarizing(self, n_qubits):
        rho = random_density(n_qubits, seed=2)
        for qubit in range(n_qubits):
            for p in (1e-3, 0.123, -1e-6):  # negative: derivative probes
                state = QuantumState(n_qubits, rho.copy())
                _depolarize_core(state, qubit, p)
                slow = rho.copy()
                depolarize_kernel_oracle(slow, n_qubits, qubit, p)
                assert np.array_equal(state.data, slow), (qubit, p)

    @pytest.mark.parametrize("kind", ["density", "vector"])
    def test_exact_elements(self, kind):
        # the oracle is the ordered per-term product: the density branch
        # still runs it, while a vector's Givens rotation per run of terms
        # matches it only to rounding
        data = kernel_inputs(8)[kind]
        for e in build_qeb_pool(8, 4).elements[::7]:
            fast = apply_element(QuantumState(8, data.copy()), e, 0.3)
            slow = apply_element_kernel_oracle(
                QuantumState(8, data.copy()), e, 0.3
            )
            if kind == "density":
                assert np.array_equal(fast.data, slow.data), e.label
            else:
                np.testing.assert_allclose(fast.data, slow.data, rtol=0,
                                           atol=1e-14, err_msg=e.label)

    def test_scratch_is_neither_copied_nor_pickled(self):
        import pickle

        s = QuantumState(2, random_density(2, seed=0))
        apply_gate(s, GateOp.cnot(0, 1))
        assert s.scratch().size == s.data.size
        for twin in (s.copy(), pickle.loads(pickle.dumps(s))):
            assert twin._scratch is None
            np.testing.assert_array_equal(twin.data, s.data)


class TestConjugateMasks:
    """conjugate_masks against dense G P G+ and G+ P G, up to sign."""

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_every_pauli_through_every_clifford(self, n_qubits):
        gates = [g for q in range(n_qubits)
                 for g in (GateOp.hadamard(q), GateOp.v(q), GateOp.vdg(q))]
        gates += [GateOp.cnot(c, t) for c in range(n_qubits)
                  for t in range(n_qubits) if c != t]
        dim = 1 << n_qubits
        for x in range(dim):
            for z in range(dim):
                p = kron_pauli(PauliString.from_masks(x, z, n_qubits).paulis,
                               n_qubits)
                for gate in gates:
                    u = gate_unitary(gate, n_qubits)
                    masks = conjugate_masks([gate], x, z)
                    want = kron_pauli(
                        PauliString.from_masks(*masks, n_qubits).paulis,
                        n_qubits,
                    )
                    for got in (u @ p @ u.conj().T, u.conj().T @ p @ u):
                        assert (np.allclose(got, want, atol=1e-12)
                                or np.allclose(got, -want, atol=1e-12)), \
                            (gate, x, z)

    def test_rotation_refused(self):
        with pytest.raises(ConfigError):
            conjugate_masks([GateOp.rotation("Z", 0.3, 0)], 0, 1)


class TestDensityMemoryGuard:
    """The guard works on its estimate alone; no large matrix is built."""

    def test_fourteen_qubits_refused_on_eight_gigabytes(self, physical_memory):
        physical_memory(8 * 10**9)
        check_memory(12, DENSITY_PEAK_COPIES * 16 * 4**12)  # 8 of 256 MiB
        with pytest.raises(ResourceLimitError):
            check_memory(14, DENSITY_PEAK_COPIES * 16 * 4**14)  # 8 of 4 GiB

    def test_noisy_run_refused_before_allocating(self, physical_memory):
        ansatz = build_uccsd(4, 2)
        noise = NoiseModel(1e-3)
        estimate = DENSITY_PEAK_COPIES * 16 * 4**4
        physical_memory(estimate - 4096)
        with pytest.raises(ResourceLimitError):
            run_circuit(3, ansatz, [0.1, 0.2, 0.3], noise=noise)
        # the vector backend is not guarded
        run_circuit(3, ansatz, [0.1, 0.2, 0.3])
        physical_memory(estimate)
        assert run_circuit(3, ansatz, [0.1, 0.2, 0.3], noise=noise).is_density


@pytest.fixture(scope="module")
def optimal_double(h2):
    # the lone double excitation reproduces full CI for this system
    element = build_fermionic_pool(h2.n_qubits, h2.n_electrons).elements[2]
    ansatz = Ansatz.from_elements([element])
    hf = hartree_fock_index(h2.n_electrons)

    def energy(theta):
        return expectation(h2.hamiltonian, run_circuit(hf, ansatz, [theta]))

    res = minimize_scalar(
        energy, bounds=(-1.0, 1.0), method="bounded",
        options={"xatol": 1e-12},
    )
    return ansatz, float(res.x), float(res.fun)


class TestNoiseOrdering:
    """Empirical scheme comparison on the bundled H2 instance."""

    def test_double_alone_reaches_full_ci(self, h2, optimal_double):
        _, _, e0 = optimal_double
        assert e0 == pytest.approx(h2.fci_energy, abs=1e-9)

    def test_element_scheme_never_exceeds_gate_scheme(self, h2, optimal_double):
        ansatz, theta, e0 = optimal_double
        hf = hartree_fock_index(h2.n_electrons)
        for p in (3e-4, 1e-3, 3e-3, 1e-2, 3e-2):
            energies = {}
            for scheme in ("gate_by_gate", "element_by_element"):
                state = run_circuit(
                    hf, ansatz, [theta], noise=NoiseModel(p, scheme)
                )
                energies[scheme] = expectation(h2.hamiltonian, state)
            assert energies["element_by_element"] <= \
                energies["gate_by_gate"] + 1e-12, f"p={p}"
            assert energies["element_by_element"] >= e0 - 1e-12

    def test_energy_error_grows_with_p(self, h2, optimal_double):
        ansatz, theta, _ = optimal_double
        hf = hartree_fock_index(h2.n_electrons)
        energies = [
            expectation(h2.hamiltonian, run_circuit(
                hf, ansatz, [theta], noise=NoiseModel(p, "gate_by_gate")
            ))
            for p in (1e-4, 1e-3, 1e-2, 1e-1)
        ]
        assert all(b > a for a, b in zip(energies, energies[1:]))
