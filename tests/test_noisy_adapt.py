"""Noisy ADAPT on Pauli-transfer energies against the dense density
matrix: the optimizer's objective and optimum, energy-rule screening,
and whole growth runs."""

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import vqenoise.adapt as adapt_module
import vqenoise.pauli_transfer as pauli_transfer
from vqenoise.adapt import (
    _appended_energy,
    _grown_energy,
    _screen,
    GRAD_NORM_CUTOFF,
    AdaptConfig,
    adapt_run,
    bfgs_minimize,
    nelder_mead,
    optimize_parameters,
    pool_gradients,
)
from vqenoise.ansatz import Ansatz, build_pool, build_uccsd, hartree_fock_index
from vqenoise.pauli_transfer import (
    CODE_CACHE_BYTES, PAULI_PEAK_BYTES, NoisyCircuit, noisy_energy,
)
from vqenoise.simulator import NoiseModel, run_circuit

from oracles import dense_noisy_adapt_oracle, dense_noisy_energy, grid_charge

SCHEMES = ("gate_by_gate", "element_by_element")
POOLS = ("fermionic", "qeb", "qubit_pauli")
CIRCUITS_FILE = (Path(__file__).resolve().parent.parent
                 / "bench" / "data" / "circuits.json")
P = 1e-3


def h4_qeb_prefix(h4, n=2):
    """The first ``n`` elements of the benchmark's frozen H4 qeb circuit
    with the parameters recorded when the n-th was accepted."""
    spec = json.loads(CIRCUITS_FILE.read_text())["h4"]["qeb"]
    pool = build_pool("qeb", h4.n_qubits, h4.n_electrons)
    by_label = {e.label: e for e in pool.elements}
    ansatz = Ansatz.from_elements(by_label[label]
                                  for label in spec["labels"][:n])
    return ansatz, np.array(spec["params"][n])


@pytest.fixture(scope="module")
def circuits(h2, h4):
    """(problem, ansatz, start parameters) of the optimized circuits."""
    uccsd = build_uccsd(h2.n_qubits, h2.n_electrons)
    return {
        "h2_uccsd": (h2, uccsd, np.zeros(uccsd.n_params)),
        "h4_qeb_prefix": (h4, *h4_qeb_prefix(h4)),
    }


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["h2_uccsd", "h4_qeb_prefix"])
def test_noisy_optimization_matches_dense(circuits, name, scheme,
                                          monkeypatch):
    """The objective handed to the optimizer is the dense energy within
    1e-10 wherever it is read, and the optimum is within 1e-8 of BFGS on
    the dense energy from the same start."""
    problem, ansatz, x0 = circuits[name]
    h = problem.hamiltonian
    reference = hartree_fock_index(problem.n_electrons)
    noise = NoiseModel(P, scheme)
    handed = {}

    def capture(fun, x, grad_tol, gradient):
        handed["fun"], handed["gradient"] = fun, gradient
        return bfgs_minimize(fun, x, grad_tol, gradient)

    monkeypatch.setitem(adapt_module._OPTIMIZER_FUNCTIONS, "bfgs", capture)
    got = optimize_parameters(ansatz, x0, h, reference, noise=noise)
    assert handed["gradient"] is None  # central differences

    def dense(x):
        return dense_noisy_energy(reference, ansatz, x, h, noise)

    shift = np.random.default_rng(3).uniform(-0.3, 0.3, ansatz.n_params)
    for x in (x0, x0 + shift, got.x):
        assert abs(handed["fun"](x) - dense(x)) <= 1e-10
    want = bfgs_minimize(dense, x0)
    assert got.converged and want.converged
    assert abs(got.energy - want.energy) <= 1e-8


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("optimizer", ["bfgs", "nelder_mead"])
def test_noisy_optimizer_bit_identical_to_energy_closure(circuits, optimizer,
                                                         scheme):
    """Optimizing on one compiled circuit takes the steps, and returns the
    bits and counts, of the optimizer run on ``noisy_energy`` per point."""
    problem, ansatz, x0 = circuits["h2_uccsd"]
    h = problem.hamiltonian
    reference = hartree_fock_index(problem.n_electrons)
    minimize = {"bfgs": bfgs_minimize, "nelder_mead": nelder_mead}[optimizer]
    want = minimize(
        lambda x: noisy_energy(reference, ansatz, x, h, P, scheme), x0,
        grad_tol=GRAD_NORM_CUTOFF)
    got = optimize_parameters(ansatz, x0, h, reference,
                              noise=NoiseModel(P, scheme), optimizer=optimizer)
    assert got.x.tobytes() == want.x.tobytes()
    assert got.energy == want.energy
    assert (got.n_evaluations, got.n_gradients) == (
        want.n_evaluations, want.n_gradients)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_noisy_optimizer_charges_its_grid_once(circuits, scheme,
                                               monkeypatch):
    """A whole noisy optimization asks ``check_memory`` once, for the
    charge of its grid as if every cache were empty."""
    problem, ansatz, x0 = circuits["h4_qeb_prefix"]
    check_memory, needs = pauli_transfer.check_memory, []

    def recorded(n_qubits, need):
        needs.append(need)
        return check_memory(n_qubits, need)

    monkeypatch.setattr(pauli_transfer, "check_memory", recorded)
    result = optimize_parameters(ansatz, x0, problem.hamiltonian,
                                 hartree_fock_index(problem.n_electrons),
                                 noise=NoiseModel(P, scheme))
    strings = [ps for element in ansatz.elements for ps, _ in element.terms]
    assert result.n_evaluations > 1
    assert needs == [grid_charge(problem.n_qubits, strings, PAULI_PEAK_BYTES,
                                 CODE_CACHE_BYTES)]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_noisy_optimizer_leaves_no_reference_cycles(h2, scheme):
    """The compiled circuit and its scratch are freed with the optimizer's
    objects, not at the cyclic collector's next run."""
    ansatz = build_uccsd(h2.n_qubits, h2.n_electrons)
    args = (ansatz, np.zeros(ansatz.n_params), h2.hamiltonian,
            hartree_fock_index(h2.n_electrons), NoiseModel(P, scheme))
    optimize_parameters(*args)  # fills the per-string caches
    gc.collect()
    gc.disable()
    try:
        optimize_parameters(*args)
        assert gc.collect() == 0
    finally:
        gc.enable()


def grown_circuit(problem, pool, n_accepted):
    """The ``n_accepted`` largest-gradient pool elements at the reference,
    at fixed nonzero angles: a circuit to screen the pool after."""
    reference = hartree_fock_index(problem.n_electrons)
    state = run_circuit(reference, Ansatz(), [], n_qubits=problem.n_qubits)
    grads = np.abs(pool_gradients(state, problem.hamiltonian, pool))
    chosen = np.argsort(-grads, kind="stable")[:n_accepted].tolist()
    params = np.array([0.11, -0.07][:n_accepted])
    return Ansatz.from_elements(pool.elements[i] for i in chosen), params


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("pool_kind", POOLS)
@pytest.mark.parametrize("n_accepted", [0, 2])
@pytest.mark.parametrize("molecule", ["h2", "h4"])
def test_grid_screening_matches_dense(request, molecule, n_accepted,
                                      pool_kind, scheme):
    """Screening on whole-circuit grid energies picks what screening on
    copies of the dense state picks, each candidate within 1e-10."""
    problem = request.getfixturevalue(molecule)
    pool = build_pool(pool_kind, problem.n_qubits, problem.n_electrons)
    ansatz, params = grown_circuit(problem, pool, n_accepted)
    config = AdaptConfig(pool_kind=pool_kind, rule="energy",
                         noise=NoiseModel(P, scheme))
    reference = hartree_fock_index(problem.n_electrons)
    h = problem.hamiltonian
    state = run_circuit(reference, ansatz, params, noise=config.noise,
                        n_qubits=problem.n_qubits)
    gradients = pool_gradients(state, h, pool)
    subpool = 3 if molecule == "h4" else len(pool)
    grid_choice, grid_screened = _screen(
        _grown_energy(problem, reference, ansatz, params, config), pool,
        gradients, subpool, config.optimizer, config.eps_opt)
    dense_choice, dense_screened = _screen(
        _appended_energy(state, h, config.noise), pool, gradients, subpool,
        config.optimizer, config.eps_opt)
    assert grid_choice == dense_choice
    assert [i for i, _ in grid_screened] == [i for i, _ in dense_screened]
    assert len(grid_screened) == min(subpool, len(pool))
    for (_, fast), (_, slow) in zip(grid_screened, dense_screened):
        assert abs(fast - slow) <= 1e-10


@pytest.mark.parametrize("scheme", SCHEMES)
def test_screening_compiles_one_circuit_per_candidate(h2, scheme,
                                                      monkeypatch):
    """Grid screening compiles one circuit per screened candidate, each
    once the last one is freed (one grid's charge at a time), and gives
    the choice and the bits of screening on a fresh ``noisy_energy`` per
    energy."""
    pool = build_pool("qubit_pauli", h2.n_qubits, h2.n_electrons)
    ansatz, params = grown_circuit(h2, pool, 2)
    config = AdaptConfig(pool_kind="qubit_pauli", rule="energy",
                         noise=NoiseModel(P, scheme))
    reference = hartree_fock_index(h2.n_electrons)
    state = run_circuit(reference, ansatz, params)
    gradients = pool_gradients(state, h2.hamiltonian, pool)
    builds, alive = [], weakref.WeakSet()  # circuits alive at each build

    class Counted(NoisyCircuit):
        def __init__(self, *args):
            builds.append(len(alive))
            super().__init__(*args)
            alive.add(self)

    def fresh(element, theta):
        return noisy_energy(reference, ansatz.append(element),
                            np.append(params, theta), h2.hamiltonian, P,
                            scheme, h2.n_qubits)

    subpool = 4
    want = _screen(fresh, pool, gradients, subpool, config.optimizer,
                   config.eps_opt)
    monkeypatch.setattr(adapt_module, "NoisyCircuit", Counted)
    got = _screen(_grown_energy(h2, reference, ansatz, params, config), pool,
                  gradients, subpool, config.optimizer, config.eps_opt)
    assert got == want
    assert builds == [0] * len(got[1]) and len(got[1]) == subpool


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("rule", ["gradient", "energy"])
@pytest.mark.parametrize("pool_kind", POOLS)
def test_two_noisy_iterations_match_dense_loop(h2, pool_kind, rule, scheme):
    config = AdaptConfig(pool_kind=pool_kind, rule=rule, max_iterations=2,
                         noise=NoiseModel(1e-4, scheme))
    record = adapt_run(h2, config)
    labels, energies = dense_noisy_adapt_oracle(h2, config)
    assert [it.label for it in record.iterations] == labels
    assert len(labels) >= 1
    np.testing.assert_allclose([it.energy for it in record.iterations],
                               energies, rtol=0, atol=1e-8)


def test_screened_energies_are_recorded(h2):
    """The energy rule records every screened (pool index, energy) pair in
    gradient order, the winner's the lowest; the gradient rule none."""
    noise = NoiseModel(1e-4)
    by_rule = {rule: adapt_run(h2, AdaptConfig(
        pool_kind="qubit_pauli", rule=rule, subpool_size=4, noise=noise,
        max_iterations=2)) for rule in ("gradient", "energy")}
    assert all(it.screened_energies == ()
               for it in by_rule["gradient"].iterations)
    pool = build_pool("qubit_pauli", h2.n_qubits, h2.n_electrons)
    for it in by_rule["energy"].iterations:
        indices = [i for i, _ in it.screened_energies]
        assert len(indices) == 4
        grads = np.abs(np.asarray(it.gradients))
        assert list(grads[indices]) == sorted(grads[indices], reverse=True)
        best = min(it.screened_energies, key=lambda pair: pair[1])
        assert pool.elements[best[0]].label == it.label
