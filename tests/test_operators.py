"""Pauli algebra, Jordan-Wigner transform, diagonalization, expectations."""

import pickle

import numpy as np
import pytest

from oracles import (
    fermion_operator_matrix,
    kron_pauli,
    ladder_matrix,
    qubit_operator_matrix,
)
from vqenoise.exceptions import (
    DimensionError,
    NumericIntegrityError,
    ResourceLimitError,
)
from vqenoise.operators import (
    FermionOperator,
    PauliString,
    QubitOperator,
    commutator,
    exact_spectrum,
    expectation,
    jordan_wigner,
    pauli_action,
    pauli_multiply,
)


def ps(label_map, n):
    return PauliString(label_map, n)


class TestPauliString:
    def test_identity_has_weight_zero(self):
        p = PauliString.identity(3)
        assert p.weight == 0
        assert p.paulis == {}
        assert p.is_identity

    def test_paulis_round_trip(self):
        p = ps({0: "X", 2: "Y", 3: "Z"}, 5)
        assert p.paulis == {0: "X", 2: "Y", 3: "Z"}
        assert p.weight == 3
        assert p.y_count == 1

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(DimensionError):
            ps({4: "X"}, 4)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            ps({0: "Q"}, 2)

    def test_matrix_matches_kron_oracle(self):
        rng = np.random.default_rng(7)
        axes = np.array(["X", "Y", "Z"])
        for _ in range(20):
            n = int(rng.integers(1, 5))
            support = {
                int(q): str(rng.choice(axes))
                for q in rng.choice(n, size=rng.integers(0, n + 1), replace=False)
            }
            p = ps(support, n)
            np.testing.assert_allclose(
                p.matrix(), kron_pauli(support, n), atol=1e-14
            )

    def test_action_is_signed_permutation(self):
        p = ps({0: "Y", 1: "Z"}, 2)
        targets, phases = pauli_action(p)
        m = np.zeros((4, 4), dtype=complex)
        m[targets, np.arange(4)] = phases
        np.testing.assert_allclose(m, kron_pauli({0: "Y", 1: "Z"}, 2), atol=1e-14)


class TestPauliActionCache:
    def test_stored_read_only_and_equal_to_fresh_build(self):
        p = ps({0: "Y", 2: "X", 3: "Z"}, 8)
        targets, phases = pauli_action(p)
        again = pauli_action(p)
        assert again[0] is targets and again[1] is phases
        assert not targets.flags.writeable and not phases.flags.writeable
        with pytest.raises(ValueError):
            phases[0] = 0.0
        fresh = pauli_action(ps({0: "Y", 2: "X", 3: "Z"}, 8))
        assert fresh[0] is not targets
        assert np.array_equal(fresh[0], targets)
        assert np.array_equal(fresh[1], phases)

    def test_pickle_carries_no_arrays(self):
        p = ps({1: "X", 4: "Y"}, 6)
        blank = pickle.dumps(p)
        action = pauli_action(p)
        data = pickle.dumps(p)
        assert data == blank
        loaded = pickle.loads(data)
        assert loaded == p and loaded._action is None
        targets, phases = pauli_action(loaded)
        assert targets is not action[0]
        assert np.array_equal(targets, action[0])
        assert np.array_equal(phases, action[1])

    def test_large_register_not_stored(self):
        p = ps({0: "X", 10: "Y"}, 11)
        first = pauli_action(p)
        second = pauli_action(p)
        assert p._action is None
        assert first[0] is not second[0]
        assert first[1].flags.writeable
        assert np.array_equal(first[1], second[1])

    def test_operator_matrix_stores_no_action(self):
        op = QubitOperator(3, {ps({0: "X"}, 3): 0.5, ps({1: "Z", 2: "Y"}, 3): 2.0})
        op.matrix()
        assert all(term._action is None for term in op.terms)


class TestPauliMultiply:
    def test_involution(self):
        phase, prod = pauli_multiply(ps({0: "X"}, 1), ps({0: "X"}, 1))
        assert phase == 1
        assert prod.is_identity

    def test_single_qubit_xy(self):
        phase, prod = pauli_multiply(ps({0: "X"}, 1), ps({0: "Y"}, 1))
        assert phase == 1j
        assert prod == ps({0: "Z"}, 1)

    def test_two_qubit_mixed(self):
        phase, prod = pauli_multiply(ps({0: "X", 1: "Y"}, 2), ps({1: "Z"}, 2))
        assert phase == 1j
        assert prod == ps({0: "X", 1: "X"}, 2)

    def test_mismatched_registers_rejected(self):
        with pytest.raises(DimensionError):
            pauli_multiply(ps({0: "X"}, 1), ps({0: "X"}, 2))

    @pytest.mark.parametrize("a", ["I", "X", "Y", "Z"])
    @pytest.mark.parametrize("b", ["I", "X", "Y", "Z"])
    def test_phase_exact_vs_2x2_matrices(self, a, b):
        pa = ps({} if a == "I" else {0: a}, 1)
        pb = ps({} if b == "I" else {0: b}, 1)
        phase, prod = pauli_multiply(pa, pb)
        lhs = kron_pauli(pa.paulis, 1) @ kron_pauli(pb.paulis, 1)
        np.testing.assert_allclose(lhs, phase * kron_pauli(prod.paulis, 1), atol=1e-14)

    @pytest.mark.parametrize("a", ["X", "Y", "Z"])
    @pytest.mark.parametrize("b", ["X", "Y", "Z"])
    @pytest.mark.parametrize("c", ["X", "Y", "Z"])
    def test_associativity(self, a, b, c):
        pa, pb, pc = (ps({0: s}, 1) for s in (a, b, c))
        ph1, ab = pauli_multiply(pa, pb)
        ph2, ab_c = pauli_multiply(ab, pc)
        ph3, bc = pauli_multiply(pb, pc)
        ph4, a_bc = pauli_multiply(pa, bc)
        assert ab_c == a_bc
        assert ph1 * ph2 == pytest.approx(ph3 * ph4)


class TestQubitOperator:
    def test_simplification_drops_tiny_terms(self):
        op = QubitOperator(2, {ps({0: "X"}, 2): 1e-15})
        assert op.is_zero

    def test_hermitian_iff_real_coefficients(self):
        herm = QubitOperator(1, {ps({0: "Z"}, 1): 0.5})
        anti = QubitOperator(1, {ps({0: "Z"}, 1): 0.5j})
        assert herm.is_hermitian
        assert not anti.is_hermitian

    def test_product_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        axes = np.array(["X", "Y", "Z"])
        for _ in range(10):
            n = 3
            ops = []
            for _ in range(2):
                terms = {}
                for _ in range(3):
                    support = {
                        int(q): str(rng.choice(axes))
                        for q in rng.choice(n, size=2, replace=False)
                    }
                    terms[ps(support, n)] = complex(rng.normal(), rng.normal())
                ops.append(QubitOperator(n, terms))
            a, b = ops
            np.testing.assert_allclose(
                qubit_operator_matrix(a * b),
                qubit_operator_matrix(a) @ qubit_operator_matrix(b),
                atol=1e-12,
            )

    def test_matrix_matches_oracle(self):
        op = QubitOperator(
            2, {ps({0: "Z", 1: "Z"}, 2): 1.0, ps({0: "X"}, 2): 0.5}
        )
        np.testing.assert_allclose(op.matrix(), qubit_operator_matrix(op), atol=1e-14)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        z = QubitOperator.from_term(ps({0: "Z"}, 1))
        assert commutator(z, z).is_zero

    def test_xy_pair(self):
        x = QubitOperator.from_term(ps({0: "X"}, 1))
        iy = QubitOperator.from_term(ps({0: "Y"}, 1), 1j)
        expected = QubitOperator.from_term(ps({0: "Z"}, 1), -2.0)
        assert commutator(x, iy) == expected

    def test_two_qubit_vs_dense_oracle(self):
        a = QubitOperator.from_term(ps({0: "Z", 1: "Z"}, 2))
        b = QubitOperator.from_term(ps({0: "X", 1: "Y"}, 2), 1j)
        comm = commutator(a, b)
        ma, mb = qubit_operator_matrix(a), qubit_operator_matrix(b)
        np.testing.assert_allclose(
            qubit_operator_matrix(comm), ma @ mb - mb @ ma, atol=1e-12
        )


class TestFermionOperator:
    def test_dagger_reverses_and_flips(self):
        op = FermionOperator([(2.0 + 1.0j, ((0, True), (1, False)))])
        dag = op.dagger()
        assert dag.terms == (((2.0 - 1.0j), ((1, True), (0, False))),)

    def test_normal_ordering_contracts(self):
        # a_0 a_0^dag = 1 - a_0^dag a_0
        op = FermionOperator([(1.0, ((0, False), (0, True)))])
        no = op.normal_ordered()
        terms = dict((p, c) for c, p in no.terms)
        assert terms[()] == 1.0
        assert terms[((0, True), (0, False))] == -1.0

    def test_normal_ordering_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        n = 4
        for _ in range(10):
            product = tuple(
                (int(rng.integers(0, n)), bool(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 5)))
            )
            op = FermionOperator([(1.0, product)])
            np.testing.assert_allclose(
                fermion_operator_matrix(op.normal_ordered(), n),
                fermion_operator_matrix(op, n),
                atol=1e-12,
            )

    def test_double_annihilation_vanishes(self):
        op = FermionOperator([(1.0, ((0, False), (0, False)))])
        assert op.normal_ordered().is_zero


class TestJordanWigner:
    def test_single_creation_lowest_orbital(self):
        op = jordan_wigner(FermionOperator.ladder(0, True), 2)
        expected = QubitOperator(
            2, {ps({0: "X"}, 2): 0.5, ps({0: "Y"}, 2): -0.5j}
        )
        assert op == expected

    def test_single_creation_with_chain(self):
        op = jordan_wigner(FermionOperator.ladder(1, True), 2)
        expected = QubitOperator(
            2,
            {
                ps({0: "Z", 1: "X"}, 2): 0.5,
                ps({0: "Z", 1: "Y"}, 2): -0.5j,
            },
        )
        assert op == expected

    def test_number_operator(self):
        num = FermionOperator([(1.0, ((0, True), (0, False)))])
        op = jordan_wigner(num, 1)
        expected = QubitOperator(
            1, {PauliString.identity(1): 0.5, ps({0: "Z"}, 1): -0.5}
        )
        assert op == expected

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            jordan_wigner(FermionOperator.ladder(3, True), 2)

    def test_anticommutation_relations(self):
        n = 6
        for i in range(n):
            for j in range(n):
                ai = FermionOperator.ladder(i, False)
                aj = FermionOperator.ladder(j, False)
                ajd = FermionOperator.ladder(j, True)
                mixed = jordan_wigner(ai * ajd + ajd * ai, n)
                if i == j:
                    assert mixed == QubitOperator.identity(n)
                else:
                    assert mixed.is_zero
                same = jordan_wigner(ai * aj + aj * ai, n)
                assert same.is_zero

    def test_hermiticity_transport(self):
        rng = np.random.default_rng(5)
        n = 4
        base = FermionOperator(
            [
                (complex(rng.normal(), rng.normal()), ((0, True), (2, False))),
                (complex(rng.normal(), rng.normal()),
                 ((3, True), (1, True), (0, False), (2, False))),
            ]
        )
        herm = base + base.dagger()
        assert herm.is_hermitian
        image = jordan_wigner(herm, n)
        assert image.is_hermitian

    def test_matrix_level_faithfulness(self):
        rng = np.random.default_rng(9)
        n = 4
        for i in range(n):
            for dagger in (False, True):
                op = FermionOperator.ladder(i, dagger)
                np.testing.assert_allclose(
                    qubit_operator_matrix(jordan_wigner(op, n)),
                    ladder_matrix(i, dagger, n),
                    atol=1e-12,
                )
        for _ in range(5):
            product = tuple(
                (int(rng.integers(0, n)), bool(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 5)))
            )
            coeff = complex(rng.normal(), rng.normal())
            op = FermionOperator([(coeff, product)])
            np.testing.assert_allclose(
                qubit_operator_matrix(jordan_wigner(op, n)),
                fermion_operator_matrix(op, n),
                atol=1e-12,
            )


class TestExactSpectrum:
    def test_single_z(self):
        res = exact_spectrum(QubitOperator.from_term(ps({0: "Z"}, 1)))
        assert res.ground_energy == pytest.approx(-1.0)
        assert res.max_energy == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(res.ground_state), [0.0, 1.0], atol=1e-12)

    def test_two_qubit_vs_scipy_oracle(self):
        import scipy.linalg

        op = QubitOperator(
            2, {ps({0: "Z", 1: "Z"}, 2): 1.0, ps({0: "X"}, 2): 0.5}
        )
        res = exact_spectrum(op)
        evals = scipy.linalg.eigh(qubit_operator_matrix(op), eigvals_only=True)
        assert res.ground_energy == pytest.approx(evals[0], abs=1e-12)
        assert res.max_energy == pytest.approx(evals[-1], abs=1e-12)

    def test_complex_matrix_path(self):
        # odd Y-count gives an imaginary matrix entry, exercising the
        # Hermitian (non-real) solver branch
        op = QubitOperator(1, {ps({0: "Y"}, 1): 0.7})
        res = exact_spectrum(op)
        assert res.ground_energy == pytest.approx(-0.7)

    def test_non_hermitian_rejected(self):
        op = QubitOperator.from_term(ps({0: "X"}, 1), 1j)
        with pytest.raises(NumericIntegrityError):
            exact_spectrum(op)

    def test_dense_limit_enforced(self):
        op = QubitOperator.from_term(ps({0: "Z"}, 1))
        big = QubitOperator.from_term(ps({15: "Z"}, 16))
        with pytest.raises(ResourceLimitError):
            exact_spectrum(big)
        assert exact_spectrum(op, dense_limit=1).ground_energy == pytest.approx(-1.0)

    def test_rayleigh_ritz_floor(self):
        rng = np.random.default_rng(13)
        op = QubitOperator(
            3,
            {
                ps({0: "Z", 1: "Z"}, 3): 0.8,
                ps({1: "X", 2: "X"}, 3): -0.4,
                ps({0: "Y", 2: "Y"}, 3): 0.3,
            },
        )
        res = exact_spectrum(op)
        for _ in range(25):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            v /= np.linalg.norm(v)
            assert expectation(op, v) >= res.ground_energy - 1e-9


class TestExpectation:
    def test_z_on_zero_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        assert expectation(QubitOperator.from_term(ps({0: "Z"}, 2)), v) == 1.0

    def test_maximally_mixed(self):
        rho = np.eye(2, dtype=complex) / 2
        assert expectation(QubitOperator.from_term(ps({0: "Z"}, 1)), rho) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            expectation(QubitOperator.from_term(ps({0: "Z"}, 2)), np.ones(2))

    def test_imaginary_residue_rejected(self):
        op = QubitOperator.from_term(ps({0: "X"}, 1), 1j)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(NumericIntegrityError):
            expectation(op, plus)

    @pytest.mark.parametrize("shape", [(2,), (2, 2)])
    def test_nan_state_rejected(self, shape):
        op = QubitOperator.from_term(ps({0: "Z"}, 1))
        with pytest.raises(NumericIntegrityError):
            expectation(op, np.full(shape, np.nan, dtype=complex))

    def test_vector_and_density_agree(self):
        rng = np.random.default_rng(17)
        op = QubitOperator(
            2, {ps({0: "X", 1: "Y"}, 2): 0.3, ps({1: "Z"}, 2): -1.1}
        )
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert expectation(op, v) == pytest.approx(
            expectation(op, np.outer(v, v.conj())), abs=1e-12
        )
