"""Tests for operator pools and fixed ansaetze."""

import itertools
from collections import Counter

import numpy as np
import pytest

from vqenoise.ansatz import (
    Ansatz,
    AnsatzElement,
    Pool,
    build_fermionic_pool,
    build_kupccgsd,
    build_pool,
    build_qeb_pool,
    build_qubit_pool,
    build_uccsd,
    hartree_fock_index,
)
from vqenoise.exceptions import ConfigError, DimensionError
from vqenoise.operators import (
    FermionOperator,
    PauliString,
    QubitOperator,
    jordan_wigner,
)
from vqenoise.simulator import compile_element

from oracles import fermion_operator_matrix, kron_pauli, qubit_operator_matrix


def enumerate_excitations(n_so, n_e):
    """Brute-force oracle for spin-conserving occupied->virtual tuples."""
    singles = []
    doubles = []
    for k in range(n_e):
        for i in range(n_e, n_so):
            if k % 2 == i % 2:
                singles.append((k, i))
    for k in range(n_e):
        for l in range(k + 1, n_e):
            for i in range(n_e, n_so):
                for j in range(i + 1, n_so):
                    if Counter((k % 2, l % 2)) == Counter((i % 2, j % 2)):
                        doubles.append((k, l, i, j))
    return singles, doubles


def number_operator_matrix(n_so):
    """Dense particle-number operator from ladder-operator products."""
    from oracles import ladder_matrix

    dim = 1 << n_so
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(n_so):
        m += ladder_matrix(i, True, n_so) @ ladder_matrix(i, False, n_so)
    return m


def assert_anti_hermitian(pool):
    for e in pool.elements:
        m = qubit_operator_matrix(e.generator)
        assert np.abs(m + m.conj().T).max() < 1e-12, e.label


class TestHartreeFockIndex:
    @pytest.mark.parametrize("n_e,index", [(0, 0), (1, 1), (2, 3), (4, 15)])
    def test_lowest_orbitals_occupied(self, n_e, index):
        assert hartree_fock_index(n_e) == index

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            hartree_fock_index(-1)


class TestAnsatzElement:
    def test_terms_are_sorted_and_imaginary(self):
        gen = QubitOperator(2, {
            PauliString({0: "X", 1: "Y"}, 2): 0.5j,
            PauliString({0: "Y", 1: "X"}, 2): -0.5j,
        })
        e = AnsatzElement(generator=gen, label="t")
        keys = [(ps.x_mask | ps.z_mask, ps.x_mask, ps.z_mask)
                for ps, _ in e.terms]
        assert keys == sorted(keys)
        # ties on support and x_mask break on z_mask: Y0X1 before X0Y1
        assert [b for _, b in e.terms] == pytest.approx([-0.5, 0.5])

    def test_real_coefficient_rejected(self):
        gen = QubitOperator.from_term(PauliString({0: "X"}, 1), 1.0)
        with pytest.raises(ConfigError):
            AnsatzElement(generator=gen, label="hermitian")

    def test_zero_generator_rejected(self):
        with pytest.raises(ConfigError):
            AnsatzElement(generator=QubitOperator.zero(2), label="zero")

    def test_cnot_schedule_counts_non_lowest_support(self):
        # i (X0 Z1 X2): qubits 1 and 2 are each a CNOT target twice
        gen = QubitOperator.from_term(
            PauliString({0: "X", 1: "Z", 2: "X"}, 3), 1j
        )
        e = AnsatzElement(generator=gen, label="t")
        assert e.cnot_schedule == ((1, 2), (2, 2))
        assert e.cnot_count == 4

    def test_schedule_total_matches_term_weights(self):
        pool = build_fermionic_pool(8, 4)
        for e in pool.elements:
            expected = 2 * sum(ps.weight - 1 for ps, _ in e.terms)
            assert e.cnot_count == expected, e.label

    @pytest.mark.parametrize("derived", ["cnot_schedule", "terms"])
    def test_derived_fields_are_not_arguments(self, derived):
        gen = QubitOperator.from_term(PauliString({0: "X", 1: "Y"}, 2), 1j)
        with pytest.raises(TypeError):
            AnsatzElement(generator=gen, label="t", **{derived: ()})

    @pytest.mark.parametrize("kind", ["fermionic", "qeb", "qubit_pauli"])
    def test_schedule_matches_compiled_cnot_targets(self, kind):
        # the staircase is encoded twice: the schedule here and the gates
        # of simulator.compile_term; they must agree qubit by qubit
        for e in build_pool(kind, 8, 4).elements:
            targets = Counter(g.qubits[1] for g in compile_element(e, 0.3)
                              if g.is_cnot)
            assert dict(e.cnot_schedule) == targets, e.label


class TestAnsatzContainer:
    def _element(self, n=2):
        gen = QubitOperator.from_term(PauliString({0: "X", 1: "Y"}, n), 1j)
        return AnsatzElement(generator=gen, label="t")

    def test_append_assigns_param_indices(self):
        # parameter j belongs to elements[j]; append stores the object itself
        first, second = self._element(), self._element()
        a = Ansatz().append(first).append(second)
        assert a.n_params == 2
        assert a.elements[0] is first and a.elements[1] is second

    def test_prefix(self):
        a = Ansatz.from_elements([self._element() for _ in range(3)])
        assert a.prefix(0).n_params == 0
        assert a.prefix(2).n_params == 2
        assert a.prefix(3).elements == a.elements
        with pytest.raises(ConfigError):
            a.prefix(4)

    def test_empty_ansatz_has_no_register(self):
        with pytest.raises(ConfigError):
            Ansatz().n_qubits

    def test_pool_register_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            Pool("mixed", (self._element(2),), 3, 0)


class TestFermionicPool:
    @pytest.mark.parametrize("n_so,n_e", [(4, 2), (6, 2), (8, 4)])
    def test_size_matches_enumeration(self, n_so, n_e):
        singles, doubles = enumerate_excitations(n_so, n_e)
        pool = build_fermionic_pool(n_so, n_e)
        assert len(pool) == len(singles) + len(doubles)

    def test_h2_pool_content(self):
        pool = build_fermionic_pool(4, 2)
        assert [e.label for e in pool.elements] == [
            "fermionic single 0->2",
            "fermionic single 1->3",
            "fermionic double (0,1)->(2,3)",
        ]

    def test_generators_match_ladder_oracle(self):
        pool = build_fermionic_pool(4, 2)
        fops = [
            FermionOperator([(1.0, ((2, True), (0, False))),
                             (-1.0, ((0, True), (2, False)))]),
            FermionOperator([(1.0, ((3, True), (1, False))),
                             (-1.0, ((1, True), (3, False)))]),
            FermionOperator([(1.0, ((2, True), (3, True), (0, False), (1, False))),
                             (-1.0, ((1, True), (0, True), (3, False), (2, False)))]),
        ]
        for e, fop in zip(pool.elements, fops):
            np.testing.assert_allclose(
                qubit_operator_matrix(e.generator),
                fermion_operator_matrix(fop, 4),
                atol=1e-12,
            )

    def test_anti_hermitian(self):
        assert_anti_hermitian(build_fermionic_pool(6, 2))

    def test_commutes_with_particle_number(self):
        n_op = number_operator_matrix(4)
        for e in build_fermionic_pool(4, 2).elements:
            m = qubit_operator_matrix(e.generator)
            assert np.abs(m @ n_op - n_op @ m).max() < 1e-12, e.label

    def test_no_valid_excitations_rejected(self):
        # one alpha electron, one beta virtual: nothing spin-conserving
        with pytest.raises(ConfigError):
            build_fermionic_pool(2, 1)

    @pytest.mark.parametrize("n_so,n_e", [(4, 0), (4, 4), (4, 5)])
    def test_bad_counts_rejected(self, n_so, n_e):
        with pytest.raises(ConfigError):
            build_fermionic_pool(n_so, n_e)

    def test_deterministic(self):
        a = build_fermionic_pool(8, 4)
        b = build_fermionic_pool(8, 4)
        assert [e.label for e in a.elements] == [e.label for e in b.elements]
        for x, y in zip(a.elements, b.elements):
            assert x.generator == y.generator


class TestQebPool:
    def test_size_matches_fermionic(self):
        assert len(build_qeb_pool(8, 4)) == len(build_fermionic_pool(8, 4))

    def test_single_drops_z_chain(self):
        gen = build_qeb_pool(4, 2).elements[0].generator
        expected = QubitOperator(4, {
            PauliString({0: "Y", 2: "X"}, 4): 0.5j,
            PauliString({0: "X", 2: "Y"}, 4): -0.5j,
        })
        assert gen == expected

    def test_single_matches_q_algebra_oracle(self):
        # Q+_i Q_k - Q+_k Q_i built densely from (X -+ iY)/2 factors
        x0, y0 = kron_pauli({0: "X"}, 4), kron_pauli({0: "Y"}, 4)
        x2, y2 = kron_pauli({2: "X"}, 4), kron_pauli({2: "Y"}, 4)
        qd0, q0 = (x0 - 1j * y0) / 2, (x0 + 1j * y0) / 2
        qd2, q2 = (x2 - 1j * y2) / 2, (x2 + 1j * y2) / 2
        expected = qd2 @ q0 - qd0 @ q2
        gen = build_qeb_pool(4, 2).elements[0].generator
        np.testing.assert_allclose(
            qubit_operator_matrix(gen), expected, atol=1e-12
        )

    def test_adjacent_orbitals_match_fermionic(self):
        # with an empty Z-chain the two constructions coincide
        from vqenoise.ansatz import _q, _q_dagger

        fop = FermionOperator([(1.0, ((1, True), (0, False))),
                               (-1.0, ((0, True), (1, False)))])
        fermionic = jordan_wigner(fop, 2)
        qeb = _q_dagger(1, 2) * _q(0, 2) - _q_dagger(0, 2) * _q(1, 2)
        assert fermionic == qeb

    def test_non_adjacent_orbitals_differ_from_fermionic(self):
        f = build_fermionic_pool(4, 2).elements[0].generator
        q = build_qeb_pool(4, 2).elements[0].generator
        assert not f == q

    def test_double_terms_have_weight_four(self):
        for e in build_qeb_pool(8, 4).elements:
            if "double" not in e.label:
                continue
            assert len(e.terms) == 8
            assert all(ps.weight == 4 for ps, _ in e.terms), e.label
            assert all(abs(abs(b) - 0.125) < 1e-12 for _, b in e.terms)

    def test_anti_hermitian(self):
        assert_anti_hermitian(build_qeb_pool(6, 2))

    def test_commutes_with_particle_number(self):
        n_op = number_operator_matrix(4)
        for e in build_qeb_pool(4, 2).elements:
            m = qubit_operator_matrix(e.generator)
            assert np.abs(m @ n_op - n_op @ m).max() < 1e-12, e.label


class TestQubitPool:
    def test_size_by_direct_count(self):
        expected = 0
        for weight in (2, 4):
            for support in itertools.combinations(range(4), weight):
                for axes in itertools.product("XY", repeat=weight):
                    if axes.count("Y") % 2 == 1:
                        expected += 1
        assert expected == 20
        assert len(build_qubit_pool(4)) == 20

    def test_single_term_generators(self):
        for e in build_qubit_pool(4).elements:
            assert len(e.terms) == 1
            ps, b = e.terms[0]
            assert b == pytest.approx(1.0)
            assert ps.weight in (2, 4)
            axes = set(ps.paulis.values())
            assert axes <= {"X", "Y"}
            assert sum(a == "Y" for a in ps.paulis.values()) % 2 == 1

    def test_anti_hermitian(self):
        assert_anti_hermitian(build_qubit_pool(4))

    def test_small_register_skips_weight_four(self):
        pool = build_qubit_pool(3)
        assert all(e.terms[0][0].weight == 2 for e in pool.elements)
        assert len(pool) == 2 * 3  # three supports, two odd-Y axis choices

    def test_too_small_register_rejected(self):
        with pytest.raises(ConfigError):
            build_qubit_pool(1)


class TestBuildPool:
    @pytest.mark.parametrize("kind,size", [
        ("fermionic", 3), ("qeb", 3), ("qubit_pauli", 20),
    ])
    def test_dispatch(self, kind, size):
        pool = build_pool(kind, 4, 2)
        assert pool.kind == kind
        assert len(pool) == size

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_pool("hardware_efficient", 4, 2)


class TestUccsd:
    def test_matches_pool_order(self):
        ansatz = build_uccsd(8, 4)
        pool = build_fermionic_pool(8, 4)
        assert ansatz.n_params == len(pool)
        assert [e.label for e in ansatz.elements] == \
            [e.label for e in pool.elements]

    def test_singles_precede_doubles(self):
        labels = [e.label for e in build_uccsd(8, 4).elements]
        last_single = max(i for i, s in enumerate(labels) if "single" in s)
        first_double = min(i for i, s in enumerate(labels) if "double" in s)
        assert last_single < first_double

    def test_qeb_variant(self):
        ansatz = build_uccsd(4, 2, pool_kind="qeb")
        assert all(e.label.startswith("qeb") for e in ansatz.elements)

    def test_bad_pool_kind(self):
        with pytest.raises(ConfigError):
            build_uccsd(4, 2, pool_kind="qubit_pauli")


class TestKupccgsd:
    def test_element_count_scales_with_k(self):
        # 2 * C(n_spatial, 2) generators per block
        assert build_kupccgsd(8, 4, 1).n_params == 12
        assert build_kupccgsd(8, 4, 3).n_params == 36
        assert build_kupccgsd(4, 2, 2).n_params == 4

    def test_block_labels(self):
        labels = [e.label for e in build_kupccgsd(4, 2, 2).elements]
        assert labels == [
            "upccgsd single 0<->1 block 0",
            "upccgsd pair 0<->1 block 0",
            "upccgsd single 0<->1 block 1",
            "upccgsd pair 0<->1 block 1",
        ]

    def test_generalized_single_matches_ladder_oracle(self):
        e = build_kupccgsd(4, 2, 1).elements[0]
        fop = FermionOperator([
            (1.0, ((2, True), (0, False))), (-1.0, ((0, True), (2, False))),
            (1.0, ((3, True), (1, False))), (-1.0, ((1, True), (3, False))),
        ])
        np.testing.assert_allclose(
            qubit_operator_matrix(e.generator),
            fermion_operator_matrix(fop, 4),
            atol=1e-12,
        )

    def test_pair_double_matches_ladder_oracle(self):
        e = build_kupccgsd(4, 2, 1).elements[1]
        fop = FermionOperator([
            (1.0, ((2, True), (3, True), (1, False), (0, False))),
            (-1.0, ((0, True), (1, True), (3, False), (2, False))),
        ])
        np.testing.assert_allclose(
            qubit_operator_matrix(e.generator),
            fermion_operator_matrix(fop, 4),
            atol=1e-12,
        )

    def test_anti_hermitian_and_number_conserving(self):
        n_op = number_operator_matrix(4)
        for e in build_kupccgsd(4, 2, 1).elements:
            m = qubit_operator_matrix(e.generator)
            assert np.abs(m + m.conj().T).max() < 1e-12
            assert np.abs(m @ n_op - n_op @ m).max() < 1e-12

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            build_kupccgsd(8, 4, 0)
        with pytest.raises(ConfigError):
            build_kupccgsd(7, 3, 1)
