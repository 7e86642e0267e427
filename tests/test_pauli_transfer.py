"""Noisy energies on Pauli-transfer coefficients against the dense
density-matrix oracle: each exact rotation, each channel, whole circuits."""

import json
from pathlib import Path

import numpy as np
import pytest

import vqenoise.pauli_transfer as pauli_transfer
from vqenoise.adapt import AdaptConfig, adapt_run, truncation_prefixes
from vqenoise.analysis import sweep_noise
from vqenoise.ansatz import (
    Ansatz, build_pool, build_uccsd, hartree_fock_index,
)
from vqenoise.cli import EXIT_NUMERIC, main
from vqenoise.exceptions import (
    ConfigError,
    DimensionError,
    NumericIntegrityError,
    ResourceLimitError,
)
from vqenoise.operators import PauliString, expectation
from vqenoise.pauli_transfer import (
    _apply_channels,
    _apply_term,
    _check_coefficients,
    noisy_energy,
    term_slots,
)
from vqenoise.simulator import (
    PAULI_PEAK_BYTES, NoiseModel, compile_term, run_circuit,
)

from oracles import (
    depolarizing_oracle,
    gate_unitary,
    kron_pauli,
    pauli_coefficients,
    random_density,
)

N = 3
DIM = 1 << N
REGISTER = np.arange(DIM)
STRINGS = [PauliString.from_masks(k % DIM, k // DIM, N)
           for k in range(1, DIM * DIM)]
CIRCUITS_FILE = (Path(__file__).resolve().parent.parent
                 / "bench" / "data" / "circuits.json")
SCHEMES = ("gate_by_gate", "element_by_element")


def grid(rho):
    """Pauli coefficients on the kernels' (rows z, columns x) grid."""
    return pauli_coefficients(rho, N).reshape(DIM, DIM)


def scratch():
    return np.empty((DIM, DIM)), np.empty((DIM, DIM), dtype=np.intp)


@pytest.mark.parametrize("ps", STRINGS, ids=lambda ps: ps.label)
def test_exact_rotation_matches_dense(ps):
    rho = random_density(N, seed=ps.x_mask + DIM * ps.z_mask)
    phi = 0.37
    u = np.cos(phi) * np.eye(DIM) + 1j * np.sin(phi) * kron_pauli(ps.paulis, N)
    r = grid(rho)
    _apply_term(r, *scratch(), REGISTER, ps, phi, 0.5, (), ())
    np.testing.assert_allclose(r, grid(u @ rho @ u.conj().T), rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [0.3, 1.0, -1e-3])
@pytest.mark.parametrize("ps", [ps for ps in STRINGS if ps.weight > 1],
                         ids=lambda ps: ps.label)
def test_staircase_term_with_channels_matches_dense(ps, p):
    """A channel after every CNOT of the staircase, negative p included:
    the term is diag(f_post) R_P diag(f_pre) on Pauli coefficients."""
    rho = random_density(N, seed=ps.x_mask + DIM * ps.z_mask)
    phi = -0.61
    want = rho
    for gate in compile_term(ps, 1.0, phi):  # exp(i phi P)
        u = gate_unitary(gate, N)
        want = u @ want @ u.conj().T
        if gate.is_cnot:
            want = depolarizing_oracle(want, gate.qubits[1], p, N)
    r = grid(rho)
    _apply_term(r, *scratch(), REGISTER, ps, phi, 1.0 - 4.0 * p / 3.0,
                *term_slots(ps))
    np.testing.assert_allclose(r, grid(want), rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [0.2, 0.75, -1e-3])
@pytest.mark.parametrize("schedule", [((0, 1),), ((1, 2),), ((0, 2), (2, 3))])
def test_element_channels_match_dense(schedule, p):
    rho = random_density(N, seed=7)
    want = rho
    for qubit, count in schedule:
        for _ in range(count):
            want = depolarizing_oracle(want, qubit, p, N)
    r = grid(rho)
    _apply_channels(r, *scratch(), REGISTER, schedule, 1.0 - 4.0 * p / 3.0)
    np.testing.assert_allclose(r, grid(want), rtol=0, atol=1e-12)


def frozen_qeb_h4(h4):
    """The frozen H4 qeb circuit of the benchmark's data: 492 CNOTs."""
    spec = json.loads(CIRCUITS_FILE.read_text())["h4"]["qeb"]
    pool = build_pool("qeb", h4.n_qubits, h4.n_electrons)
    by_label = {e.label: e for e in pool.elements}
    ansatz = Ansatz.from_elements(by_label[label] for label in spec["labels"])
    return ansatz, np.array(spec["params"][-1])


def fermionic_h4(h4):
    """The deepest prefix of noiseless fermionic ADAPT on H4."""
    _, ansatz, params = truncation_prefixes(
        adapt_run(h4, AdaptConfig(pool_kind="fermionic")))[-1]
    return ansatz, params


@pytest.fixture(scope="module")
def circuits(h2, h4):
    """(problem, ansatz, params) of whole circuits on H2 and H4."""
    ansatz = build_uccsd(h2.n_qubits, h2.n_electrons, pool_kind="qeb")
    return {
        "h2_qeb": (h2, ansatz, np.array([0.11, -0.07, 0.23])),
        "h4_qeb_frozen": (h4, *frozen_qeb_h4(h4)),
        "h4_fermionic": (h4, *fermionic_h4(h4)),
    }


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["h2_qeb", "h4_qeb_frozen", "h4_fermionic"])
def test_whole_circuit_matches_dense(circuits, name, scheme):
    problem, ansatz, params = circuits[name]
    reference = hartree_fock_index(problem.n_electrons)
    p = 1e-3
    dense = expectation(problem.hamiltonian, run_circuit(
        reference, ansatz, params, noise=NoiseModel(p, scheme)))
    fast = noisy_energy(reference, ansatz, params, problem.hamiltonian, p, scheme)
    assert abs(fast - dense) <= 1e-12


def test_noiseless_and_empty_circuits(circuits, h2):
    _, ansatz, params = circuits["h2_qeb"]
    hf = hartree_fock_index(h2.n_electrons)
    pure = expectation(h2.hamiltonian, run_circuit(hf, ansatz, params))
    for scheme in SCHEMES:
        assert abs(noisy_energy(hf, ansatz, params, h2.hamiltonian, 0.0, scheme)
                   - pure) <= 1e-12
    empty = expectation(h2.hamiltonian,
                        run_circuit(hf, Ansatz(), [], n_qubits=4))
    assert abs(noisy_energy(hf, Ansatz(), [], h2.hamiltonian, 1e-3, n_qubits=4)
               - empty) <= 1e-12


class TestIntegrityChecks:
    def test_healthy_coefficients_pass(self):
        _check_coefficients(pauli_coefficients(random_density(N, 3), N), N, True)

    def test_nan_caught_even_when_unphysical(self):
        r = pauli_coefficients(random_density(N, 3), N)
        r[5] = np.nan
        for physical in (True, False):
            with pytest.raises(NumericIntegrityError, match="not finite"):
                _check_coefficients(r, N, physical)

    def test_out_of_range_coefficient_caught(self):
        r = pauli_coefficients(random_density(N, 3), N)
        r[5] = 1.5
        with pytest.raises(NumericIntegrityError, match="exceeds 1"):
            _check_coefficients(r, N, True)
        _check_coefficients(r, N, False)  # a derivative probe's map

    def test_purity_above_one_caught(self):
        with pytest.raises(NumericIntegrityError, match="purity"):
            _check_coefficients(np.ones(DIM * DIM), N, True)

    @pytest.mark.parametrize("corrupt", [
        lambda a: a * 2.0, lambda a: a * np.nan,
    ], ids=["out_of_range", "nan"])
    def test_corrupted_run_raises(self, circuits, h2, monkeypatch, corrupt):
        _, ansatz, params = circuits["h2_qeb"]
        factors = pauli_transfer._term_factors

        def corrupted(*args):
            a, b, codes = factors(*args)
            return corrupt(a), b, codes

        monkeypatch.setattr(pauli_transfer, "_term_factors", corrupted)
        with pytest.raises(NumericIntegrityError):
            noisy_energy(3, ansatz, params, h2.hamiltonian, 1e-3)

    def test_sweep_exits_numeric(self, tmp_path, monkeypatch):
        factors = pauli_transfer._term_factors

        def corrupted(*args):
            a, b, codes = factors(*args)
            return a * np.nan, b, codes

        monkeypatch.setattr(pauli_transfer, "_term_factors", corrupted)
        code = main(["sweep", "--set", "pool=qeb", "--set", "p_grid=0.001",
                     "--workers", "1", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC


class TestInputs:
    def test_memory_refused_before_allocating(self, circuits, h2,
                                              physical_memory):
        _, ansatz, params = circuits["h2_qeb"]
        estimate = PAULI_PEAK_BYTES * 4**h2.n_qubits
        physical_memory(estimate - 4096)
        with pytest.raises(ResourceLimitError):
            noisy_energy(3, ansatz, params, h2.hamiltonian, 1e-3)
        physical_memory(estimate)
        noisy_energy(3, ansatz, params, h2.hamiltonian, 1e-3)

    def test_bad_inputs(self, circuits, h2, h4):
        _, ansatz, params = circuits["h2_qeb"]
        with pytest.raises(ConfigError, match="finite"):
            noisy_energy(3, ansatz, params, h2.hamiltonian, float("nan"))
        with pytest.raises(ConfigError):
            noisy_energy(3, ansatz, params, h2.hamiltonian, 1e-3, "per_shot")
        with pytest.raises(DimensionError):
            noisy_energy(16, ansatz, params, h2.hamiltonian, 1e-3)
        with pytest.raises(DimensionError):
            noisy_energy(3, ansatz, params, h4.hamiltonian, 1e-3)
        with pytest.raises(DimensionError):
            noisy_energy(3, ansatz, params[:-1], h2.hamiltonian, 1e-3)

    def test_sweep_refuses_nan_before_any_cell(self, circuits, h2,
                                               monkeypatch):
        import vqenoise.analysis as analysis

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(analysis, "run_circuit", no_cell)
        monkeypatch.setattr(analysis, "noisy_energy", no_cell)
        _, ansatz, params = circuits["h2_qeb"]
        for grid_values in ([0.0, float("nan")], [float("nan")]):
            with pytest.raises(ConfigError, match=r"\[0, 1\]"):
                sweep_noise([(3, ansatz, params)], h2.hamiltonian,
                            grid_values, 3, h2.fci_energy)
