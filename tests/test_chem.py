"""FCIDUMP parsing and molecular Hamiltonian assembly."""

import numpy as np
import pytest

from oracles import occupation_basis_ci
from vqenoise.chem import (
    BUNDLED_MOLECULES,
    FrozenCoreSpec,
    Problem,
    build_hamiltonian,
    data_path,
    parse_fcidump,
)
from vqenoise.exceptions import ConfigError, FcidumpError
from vqenoise.operators import (
    FermionOperator,
    QubitOperator,
    commutator,
    expectation,
    jordan_wigner,
)

MINIMAL = """\
&FCI NORB=1,NELEC=2,MS2=0,
&END
-1.0 1 1 0 0
0.5 1 1 1 1
0.2 0 0 0 0
"""


class TestParser:
    def test_minimal_file(self):
        ints = parse_fcidump(MINIMAL)
        assert ints.n_spatial_orbitals == 1
        assert ints.n_electrons == 2
        assert ints.one_body[0, 0] == -1.0
        assert ints.two_body[0, 0, 0, 0] == 0.5
        assert ints.core_energy == 0.2

    def test_symmetry_completion(self):
        text = (
            "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
            "0.3 1 2 1 1\n"
        )
        g = parse_fcidump(text).two_body
        for idx in [
            (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0),
        ]:
            assert g[idx] == 0.3

    def test_slash_terminated_header_and_d_exponent(self):
        text = (
            " &FCI NORB=1,NELEC=2\n /\n"
            "-1.0D+00 1 1 0 0\n"
        )
        ints = parse_fcidump(text)
        assert ints.one_body[0, 0] == -1.0
        assert ints.ms2 == 0

    def test_symmetry_labels_and_orbital_energies_ignored(self):
        body = "0.3 1 2 1 1\n-1.0 1 1 0 0\n-0.4 2 2 0 0\n0.2 0 0 0 0\n"
        plain = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n" + body)
        labelled = parse_fcidump(
            "&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,2,\n ISYM=1,\n&END\n"
            + body + "-0.6 1 0 0 0\n0.1 2 0 0 0\n"
        )
        assert np.array_equal(labelled.one_body, plain.one_body)
        assert np.array_equal(labelled.two_body, plain.two_body)
        assert labelled.core_energy == plain.core_energy == 0.2
        assert (labelled.n_spatial_orbitals, labelled.n_electrons,
                labelled.ms2) == (2, 2, 0)

    def test_missing_norb_rejected(self):
        with pytest.raises(FcidumpError, match="NORB"):
            parse_fcidump("&FCI NELEC=2 &END\n")

    def test_non_numeric_value_reports_line(self):
        text = "&FCI NORB=1,NELEC=2 &END\nfoo 1 1 0 0\n"
        with pytest.raises(FcidumpError, match="line 2"):
            parse_fcidump(text)

    def test_out_of_range_index_reports_line(self):
        text = "&FCI NORB=1,NELEC=2 &END\n0.1 1 1 0 0\n0.2 2 1 0 0\n"
        with pytest.raises(FcidumpError, match="line 3"):
            parse_fcidump(text)

    def test_conflicting_duplicates_rejected(self):
        text = (
            "&FCI NORB=2,NELEC=2 &END\n"
            "0.5 1 2 0 0\n"
            "0.7 2 1 0 0\n"
        )
        with pytest.raises(FcidumpError, match="conflicts"):
            parse_fcidump(text)

    def test_bundled_files_parse(self):
        for name in BUNDLED_MOLECULES:
            with open(str(data_path(name))) as f:
                ints = parse_fcidump(f)
            assert ints.n_spatial_orbitals in (2, 4)
            assert ints.n_electrons in (2, 4)

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError):
            data_path("h3_0.1")


class TestBuildHamiltonian:
    def test_one_orbital_two_electron_energy(self):
        ints = parse_fcidump(MINIMAL)
        problem = Problem.from_integrals(ints)
        # doubly occupied single orbital: 2h_11 + (11|11) + core
        assert problem.fci_energy == pytest.approx(-1.3, abs=1e-12)

    def test_freeze_everything_moves_energy_to_shift(self):
        ints = parse_fcidump(MINIMAL)
        fop, n_so, n_el, shift = build_hamiltonian(
            ints, FrozenCoreSpec(frozen_occupied=(0,))
        )
        assert fop.is_zero
        assert n_so == 0
        assert n_el == 0
        assert shift == pytest.approx(-1.3, abs=1e-12)

    def test_freezing_nothing_is_identity(self, h2):
        again = Problem.from_integrals(h2.integrals, FrozenCoreSpec())
        assert again.fci_energy == pytest.approx(h2.fci_energy, abs=1e-12)

    def test_frozen_index_out_of_range(self):
        ints = parse_fcidump(MINIMAL)
        with pytest.raises(ConfigError):
            build_hamiltonian(ints, FrozenCoreSpec(frozen_occupied=(5,)))

    def test_frozen_overlap_rejected(self):
        with pytest.raises(ConfigError):
            FrozenCoreSpec(frozen_occupied=(0,), frozen_virtual=(0,))

    def test_assembled_operator_is_hermitian(self, h2):
        assert h2.fermionic.is_hermitian

    def test_number_symmetry(self, h2, h4):
        for problem in (h2, h4):
            n = problem.n_qubits
            number = QubitOperator.zero(n)
            for i in range(n):
                number = number + jordan_wigner(
                    FermionOperator([(1.0, ((i, True), (i, False)))]), n
                )
            assert commutator(problem.hamiltonian, number).is_zero

    def test_hartree_fock_energy_closed_shell_formula(self, h2):
        ints = h2.integrals
        hf_index = (1 << 2) - 1  # spin-orbitals 0 and 1 occupied
        vec = np.zeros(1 << h2.n_qubits, dtype=complex)
        vec[hf_index] = 1.0
        expected = 2 * ints.one_body[0, 0] + ints.two_body[0, 0, 0, 0] \
            + ints.core_energy
        assert expectation(h2.hamiltonian, vec) == pytest.approx(expected, abs=1e-10)

    def test_fci_against_occupation_basis_oracle(self, h2):
        assert h2.fci_energy == pytest.approx(
            occupation_basis_ci(h2.integrals), abs=1e-9
        )

    def test_spectral_range_positive(self, h2):
        assert h2.spectral_range > 0
