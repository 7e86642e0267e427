"""Pauli algebra, Jordan-Wigner transform, diagonalization, expectations."""

import pickle
import tracemalloc

import numpy as np
import pytest

from oracles import (
    fermion_operator_matrix,
    jordan_wigner_by_sums,
    kron_pauli,
    ladder_matrix,
    product_by_strings,
    qubit_operator_matrix,
)
import vqenoise.operators as operators
from vqenoise import ansatz
from vqenoise.chem import BUNDLED_MOLECULES, load_bundled
from vqenoise.exceptions import (
    DimensionError,
    NumericIntegrityError,
    ResourceLimitError,
)
from vqenoise.operators import (
    COEFF_TOL,
    SPECTRUM_COMPLEX_BYTES,
    SPECTRUM_REAL_BYTES,
    FermionOperator,
    PauliString,
    QubitOperator,
    commutator,
    exact_spectrum,
    expectation,
    _mask_product,
    jordan_wigner,
    pauli_action,
)


def ps(label_map, n):
    return PauliString(label_map, n)


def term_bits(op):
    """Each term's register, masks and coefficient bits, in order; hex
    keeps the sign of a zero."""
    return [(p.n_qubits, p.x_mask, p.z_mask, c.real.hex(), c.imag.hex())
            for p, c in op.terms.items()]


def random_operator(rng, n, n_terms, width):
    """The identity plus ``n_terms`` random strings on ``width`` of the
    ``n`` qubits, so that products collide and merge."""
    qubits = rng.choice(n, size=min(width, n), replace=False).tolist()
    terms = {PauliString.identity(n): complex(rng.normal(), rng.normal())}
    for _ in range(n_terms):
        x = z = 0
        for q in qubits:
            bits = int(rng.integers(4))  # I, X, Z, Y
            x |= (bits & 1) << q
            z |= (bits >> 1) << q
        terms[PauliString.from_masks(x, z, n)] = complex(rng.normal(),
                                                         rng.normal())
    return QubitOperator(n, terms)


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
        # built from masks (x 0b00101, z 0b01100): equal, same hash, and
        # pickled like a dict-built string
        q = PauliString.from_masks(0b00101, 0b01100, 5)
        assert q == p and hash(q) == hash(p) and q.paulis == p.paulis
        assert (q.n_qubits, q.x_mask, q.z_mask) == (5, 5, 12)
        assert pickle.dumps(q) == pickle.dumps(p)
        loaded = pickle.loads(pickle.dumps(q))
        assert loaded == p
        with pytest.raises(AttributeError):
            q.x_mask = 0

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(DimensionError):
            ps({4: "X"}, 4)
        with pytest.raises(DimensionError):
            PauliString.from_masks(0, 1 << 4, 4)
        with pytest.raises(DimensionError):
            PauliString.from_masks(0, 0, 0)

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
    """``pauli_action`` keeps nothing: a string is its three integers."""

    def test_slots_are_the_value(self):
        assert PauliString.__slots__ == ("n_qubits", "x_mask", "z_mask")

    @pytest.mark.parametrize("n", [8, 11])
    def test_each_call_builds_equal_distinct_arrays(self, n):
        p = ps({0: "Y", 2: "X", n - 1: "Z"}, n)
        first, second = pauli_action(p), pauli_action(p)
        for a, b in zip(first, second):
            assert a is not b and np.array_equal(a, b)

    def test_pickle_carries_no_arrays(self):
        p = ps({1: "X", 4: "Y"}, 6)
        blank = pickle.dumps(p)
        pauli_action(p)
        assert pickle.dumps(p) == blank
        assert pickle.loads(blank) == p


def pauli_multiply(a, b):
    """``(phase, a b / phase)`` for two strings, by ``_mask_product``."""
    phase, x, z = _mask_product(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
    return phase, PauliString.from_masks(x, z, a.n_qubits)


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
            QubitOperator(1, {ps({0: "X"}, 1): 1.0}) * \
                QubitOperator(2, {ps({0: "X"}, 2): 1.0})

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


class TestMaskProduct:
    """``QubitOperator.__mul__`` on (x, z) masks against the product of
    ``PauliString`` objects it replaced (``product_by_strings``)."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, width", [(1, 1), (3, 3), (12, 4), (12, 12)])
    def test_matches_string_products_bit_for_bit(self, n, width, seed):
        rng = np.random.default_rng(seed)
        a, b = (random_operator(rng, n, 6, width) for _ in range(2))
        for left, right in ((a, b), (b, a), (a, a), (a, a.dagger())):
            assert term_bits(left * right) == \
                term_bits(product_by_strings(left, right))

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_identity_factors(self, n):
        rng = np.random.default_rng(n)
        op = random_operator(rng, n, 5, 3)
        for scale in (1.0, complex(rng.normal(), rng.normal())):
            one = QubitOperator.identity(n, scale)
            for left, right in ((one, op), (op, one), (one, one)):
                assert term_bits(left * right) == \
                    term_bits(product_by_strings(left, right))
        assert term_bits(QubitOperator.identity(n) * op) == term_bits(op)

    def test_cancellation_below_tolerance(self):
        """(a X + b Y)(c X + d Y) has identity weight ac + bd: exactly zero
        for a = b = c = 1, d = -1, and a rounding residue below COEFF_TOL
        here; both are dropped, as by the string products."""
        x, y = ps({0: "X"}, 2), ps({0: "Y"}, 2)
        assert 0.0 < abs(0.1 * 0.9 + 0.3 * -0.3) < COEFF_TOL
        for (a, b), (c, d) in (((1.0, 1.0), (1.0, -1.0)),
                               ((0.1, 0.3), (0.9, -0.3))):
            left = QubitOperator(2, {x: a, y: b})
            right = QubitOperator(2, {x: c, y: d})
            product = left * right
            assert PauliString.identity(2) not in product.terms
            assert term_bits(product) == \
                term_bits(product_by_strings(left, right))
        zero = QubitOperator(2, {x: 1.0, y: 1j})
        assert (zero * zero).is_zero and product_by_strings(zero, zero).is_zero


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

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_single_ladders_match_sums_bit_for_bit(self, n):
        for orbital in range(n):
            for dagger in (False, True):
                op = FermionOperator.ladder(orbital, dagger)
                assert term_bits(jordan_wigner(op, n)) == \
                    term_bits(jordan_wigner_by_sums(op, n))

    def test_tiny_products_drop_after_each_factor(self):
        """A product whose weights fall below COEFF_TOL on its third ladder
        (5e-12 / 8) is dropped there, as by a ``QubitOperator`` product, and
        adds nothing to the strings it shares with the first product."""
        hop = ((0, True), (1, False))
        op = FermionOperator([(0.3, hop),
                              (5e-12, hop + ((2, True), (2, False)))])
        image = jordan_wigner(op, 3)
        assert term_bits(image) == term_bits(jordan_wigner_by_sums(op, 3))
        assert term_bits(image) == term_bits(
            jordan_wigner(FermionOperator([(0.3, hop)]), 3))

    @pytest.mark.parametrize("n, n_electrons", [(4, 2), (6, 2), (8, 4)])
    def test_pool_generators_match_sums_bit_for_bit(self, n, n_electrons,
                                                    monkeypatch):
        """Every generator that the fermionic pool and k-UpCCGSD (k = 2)
        map equals its image by sums, bit for bit."""
        checked = []

        def against_sums(op, n_spin_orbitals):
            image = jordan_wigner(op, n_spin_orbitals)
            assert term_bits(image) == \
                term_bits(jordan_wigner_by_sums(op, n_spin_orbitals))
            checked.append(image)
            return image

        monkeypatch.setattr(ansatz, "jordan_wigner", against_sums)
        built = (ansatz.build_fermionic_pool(n, n_electrons).elements
                 + ansatz.build_kupccgsd(n, n_electrons, 2).elements)
        assert [e.generator for e in built] == checked

    @pytest.mark.parametrize("name", BUNDLED_MOLECULES)
    def test_accumulation_matches_sums_bit_for_bit(self, name):
        problem = load_bundled(name)
        fast, summed = (
            list(image(problem.fermionic, problem.n_qubits).terms.items())
            for image in (jordan_wigner, jordan_wigner_by_sums))
        assert fast == summed
        assert [repr(c) for _, c in fast] == [repr(c) for _, c in summed]


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

    def test_real_branch_builds_only_the_real_image(self):
        """A molecular Hamiltonian is solved on a float64 image equal to
        its complex matrix's real half, bit for bit, and its complex
        matrix is not built."""
        h4 = load_bundled("h4_1.0").hamiltonian
        h = QubitOperator(h4.n_qubits, dict(h4.terms))
        result = exact_spectrum(h)
        assert h._matrix is None
        evals, evecs = np.linalg.eigh(h.matrix().real)
        assert (result.ground_energy, result.max_energy) == (evals[0],
                                                             evals[-1])
        assert result.ground_state.tobytes() == \
            evecs[:, 0].astype(complex).tobytes()

    def test_dense_limit_enforced(self, physical_memory):
        """The dense image is admitted by its charge alone: 16 qubits are
        refused on 64 GiB, and one qubit runs on its 4 * 48 B."""
        op = QubitOperator.from_term(ps({0: "Z"}, 1))
        big = QubitOperator.from_term(ps({15: "Z"}, 16))
        physical_memory(64 * 2**30)
        with pytest.raises(ResourceLimitError, match="16-qubit run needs"):
            exact_spectrum(big)
        physical_memory(SPECTRUM_REAL_BYTES * 4)
        assert exact_spectrum(op).ground_energy == pytest.approx(-1.0)

    @pytest.mark.parametrize("branch", ["real", "complex"])
    def test_refused_below_its_charge(self, physical_memory, branch):
        """Refused 4096 B below the charge of the branch the matrix takes,
        and run at it: real weights and even Y counts take the real one."""
        n = 6
        terms = {ps({0: "Z", 1: "Z"}, n): 0.8, ps({2: "X", 5: "X"}, n): -0.4,
                 ps({3: "Y", 4: "Y"}, n): 0.3}
        if branch == "complex":
            terms[ps({1: "Y"}, n)] = 0.5
        op = QubitOperator(n, terms)
        per_entry = {"real": SPECTRUM_REAL_BYTES,
                     "complex": SPECTRUM_COMPLEX_BYTES}[branch]
        physical_memory(per_entry * 4**n - 4096)
        with pytest.raises(ResourceLimitError):
            exact_spectrum(op)
        physical_memory(per_entry * 4**n)
        evals = np.linalg.eigvalsh(qubit_operator_matrix(op))
        assert exact_spectrum(op).ground_energy == pytest.approx(evals[0],
                                                                 abs=1e-12)

    def test_fourteen_qubits_refused_on_eight_gigabytes(self, physical_memory,
                                                        monkeypatch):
        """A 14-qubit molecular-like operator (real weights, even Y counts)
        is refused on 8 GB before anything dense is allocated, and its
        charge stays below 16 GiB, where it would run."""
        n = 14
        op = QubitOperator(n, {ps({0: "Z", 13: "Z"}, n): 0.5,
                               ps({0: "Y", 1: "Y"}, n): 0.25,
                               ps({12: "X", 13: "X"}, n): -0.1})
        check_memory, calls = operators.check_memory, []

        def recorded(n_qubits, need):
            calls.append((tracemalloc.get_traced_memory()[0], need))
            return check_memory(n_qubits, need)

        monkeypatch.setattr(operators, "check_memory", recorded)
        physical_memory(8 * 10**9)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="14-qubit run needs"):
                exact_spectrum(op)
        finally:
            tracemalloc.stop()
        [(current, need)] = calls
        assert current < 2**20
        assert need == SPECTRUM_REAL_BYTES * 4**n < 16 * 2**30

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
