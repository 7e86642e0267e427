"""End-to-end acceptance suite.

Eleven tests validate the toolkit's headline behaviors at desk scale:
exact-diagonalization cross-checks, adaptive-growth convergence, the
depolarizing channel, linear noise response and its inverse-gate-count
scaling, error-probability budgets, extrapolation gains, noise-scheme
ordering, truncation behavior, operator correctness, and bit-for-bit
reproducibility. Each test carries an ``acceptance`` marker; the session
summary prints one PASS/FAIL line per criterion as a checklist.
"""

import itertools
import time

import numpy as np
import pytest

from vqenoise.adapt import (
    AdaptConfig,
    adapt_run,
    finite_difference_pool_gradients,
    pool_gradients,
    truncation_prefixes,
)
from vqenoise.analysis import (
    CHEMICAL_ACCURACY,
    chi_from_density_derivative,
    estimate_pc,
    noise_susceptibility,
    optimal_truncation,
    pc_scaling_fit,
    sweep_crossing_pc,
    sweep_noise,
    zne_linear,
)
from vqenoise.ansatz import build_pool
from vqenoise.cli import main as cli_main
from vqenoise.operators import FermionOperator, expectation, jordan_wigner
from vqenoise.simulator import (
    NOISELESS,
    NoiseModel,
    QuantumState,
    apply_depolarizing,
    apply_element,
    run_circuit,
)

from oracles import occupation_basis_extremes, qubit_operator_matrix

POOLS = ("fermionic", "qeb", "qubit_pauli")
GRID = tuple(np.logspace(-6, -2, 9))


@pytest.fixture(scope="module")
def growth_records(h2, h4):
    """Noiseless ADAPT records for every pool on H2 and H4."""
    records = {}
    for name, problem in (("h2", h2), ("h4", h4)):
        for pool in POOLS:
            records[name, pool] = adapt_run(
                problem, AdaptConfig(pool_kind=pool)
            )
    return records


@pytest.fixture(scope="module")
def h4_circuit(growth_records):
    """Deepest fermionic-pool H4 circuit: (prefixes, ansatz, params, ref)."""
    record = growth_records["h4", "fermionic"]
    prefixes = truncation_prefixes(record)
    _, ansatz, params = prefixes[-1]
    return prefixes, ansatz, params, record.reference_index


@pytest.fixture(scope="module")
def h4_sweeps(h4, h4_circuit):
    """Full (p, depth) sweep of the H4 circuit family, both schemes."""
    prefixes, _, _, reference = h4_circuit
    tables = {}
    for scheme in ("gate_by_gate", "element_by_element"):
        tables[scheme] = sweep_noise(
            prefixes, h4.hamiltonian, GRID, reference, h4.fci_energy,
            scheme=scheme, n_qubits=h4.n_qubits,
        )
    return tables


def noisy_residual(problem, ansatz, params, reference, p,
                   scheme="gate_by_gate"):
    noise = NoiseModel(p, scheme) if p > 0 else NOISELESS
    state = run_circuit(reference, ansatz, params, noise=noise)
    return expectation(problem.hamiltonian, state) - problem.fci_energy


@pytest.mark.acceptance("01 fci-oracle-equivalence")
def test_exact_spectrum_matches_independent_ci(h2, h4):
    start = time.time()
    for problem in (h2, h4):
        low, high = occupation_basis_extremes(problem.integrals)
        assert abs(problem.fci_energy - low) <= 1e-9
        assert abs(problem.max_energy - high) <= 1e-9
    assert time.time() - start < 10


@pytest.mark.acceptance("02 noiseless-adapt-convergence")
def test_every_pool_reaches_chemical_accuracy(h2, h4, growth_records):
    start = time.time()
    budgets = {"h2": 4, "h4": 15}
    problems = {"h2": h2, "h4": h4}
    for (name, pool), record in growth_records.items():
        fci = problems[name].fci_energy
        crossings = [
            n for n, e in enumerate(record.energies, start=1)
            if e - fci < CHEMICAL_ACCURACY
        ]
        assert crossings, f"{name}/{pool} never reached accuracy"
        assert crossings[0] <= budgets[name], (
            f"{name}/{pool} needed {crossings[0]} iterations"
        )
    assert time.time() - start < 300


@pytest.mark.acceptance("03 depolarizing-channel-suite")
def test_channel_invariants_on_random_states():
    start = time.time()
    rng = np.random.default_rng(7)
    n, dim = 3, 8
    for trial in range(4):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        for qubit, p in itertools.product(range(n), (0.0, 0.05, 0.4, 1.0)):
            state = QuantumState(n, rho.copy())
            apply_depolarizing(state, qubit, p)
            out = state.data
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-12
            if p == 0.0:
                assert np.max(np.abs(out - rho)) <= 1e-15
        # two applications compose like a single effective probability
        p1, p2 = 0.1, 0.3
        once = QuantumState(n, rho.copy())
        apply_depolarizing(once, 1, p1)
        apply_depolarizing(once, 1, p2)
        combined = QuantumState(n, rho.copy())
        apply_depolarizing(combined, 1, p1 + p2 - 4.0 * p1 * p2 / 3.0)
        assert np.max(np.abs(once.data - combined.data)) <= 1e-12
    mixed = QuantumState(n, np.eye(dim, dtype=complex) / dim)
    apply_depolarizing(mixed, 2, 0.7)
    assert np.max(np.abs(mixed.data - np.eye(dim) / dim)) <= 1e-14
    assert time.time() - start < 5


@pytest.mark.acceptance("04 susceptibility-linear-response")
def test_chi_predicts_small_p_behavior(h2, h4, growth_records):
    start = time.time()
    problems = {"h2": h2, "h4": h4}
    for name in ("h2", "h4"):
        problem = problems[name]
        record = growth_records[name, "fermionic"]
        _, ansatz, params = truncation_prefixes(record)[-1]
        reference = record.reference_index
        report = noise_susceptibility(
            ansatz, params, problem.hamiltonian, reference,
            n_qubits=problem.n_qubits,
        )
        derivative = chi_from_density_derivative(
            ansatz, params, problem.hamiltonian, reference,
            n_qubits=problem.n_qubits,
        )
        assert abs(report.chi - derivative) <= 1e-4 * abs(derivative)
        residual = report.e_unperturbed - problem.fci_energy
        estimate = estimate_pc(report, residual)
        assert estimate.p_c > 0
        for p in np.geomspace(estimate.p_c / 30, estimate.p_c, 5):
            delta = noisy_residual(problem, ansatz, params, reference, p)
            assert abs(delta - residual - report.chi * p) \
                <= 0.2 * report.chi * p
    assert time.time() - start < 600


@pytest.mark.acceptance("05 inverse-gate-count-scaling")
def test_pc_scales_inversely_with_cnot_count(h2, h4, growth_records):
    start = time.time()
    problems = {"h2": h2, "h4": h4}
    reports = []
    for (name, pool), record in growth_records.items():
        problem = problems[name]
        prefixes = truncation_prefixes(record)
        chosen = [prefixes[-1]]
        if name == "h4":
            chosen.append(prefixes[len(prefixes) // 2])
        for _, ansatz, params in chosen:
            report = noise_susceptibility(
                ansatz, params, problem.hamiltonian,
                record.reference_index, n_qubits=problem.n_qubits,
            )
            if report.n_ii > 0:
                reports.append(report)
    assert len(reports) >= 8
    fluctuation_sizes = [r.delta_e for r in reports]
    assert max(fluctuation_sizes) / min(fluctuation_sizes) < 10.0
    fit = pc_scaling_fit(reports)
    assert -1.3 <= fit.slope <= -0.7
    assert time.time() - start < 900


@pytest.mark.acceptance("06 pc-magnitude-window")
def test_h4_elementwise_pc_in_expected_decade(h4, h4_circuit):
    _, ansatz, params, reference = h4_circuit

    def delta_at(p):
        return noisy_residual(h4, ansatz, params, reference, p,
                              scheme="element_by_element")

    crossing = sweep_crossing_pc(delta_at, GRID)
    assert crossing is not None
    assert 1e-6 <= crossing <= 1e-3


@pytest.mark.acceptance("07 extrapolation-gain")
def test_linear_zne_extends_error_budget(h2, h4, growth_records):
    problems = {"h2": h2, "h4": h4}
    for name in ("h2", "h4"):
        problem = problems[name]
        record = growth_records[name, "fermionic"]
        _, ansatz, params = truncation_prefixes(record)[-1]
        reference = record.reference_index

        def raw(p):
            return noisy_residual(problem, ansatz, params, reference, p)

        def mitigated(p):
            return zne_linear(raw(p), raw(3.0 * p), 3.0)

        pc_raw = sweep_crossing_pc(raw, GRID)
        pc_mitigated = sweep_crossing_pc(mitigated, GRID)
        assert pc_raw is not None and pc_mitigated is not None
        assert pc_mitigated >= 10.0 * pc_raw
        # residual after extrapolation should be quadratic in p
        residual0 = raw(0.0)
        ps = np.geomspace(1e-5, 1e-4, 5)
        leftovers = [abs(mitigated(p) - residual0) for p in ps]
        slope = np.polyfit(np.log10(ps), np.log10(leftovers), 1)[0]
        assert 1.7 <= slope <= 2.3


@pytest.mark.acceptance("08 noise-scheme-ordering")
def test_elementwise_never_exceeds_gatewise(h2, h4, growth_records,
                                            h4_circuit, h4_sweeps):
    gatewise = h4_sweeps["gate_by_gate"]
    elementwise = h4_sweeps["element_by_element"]
    assert np.all(elementwise.delta_e <= gatewise.delta_e + 1e-12)

    record = growth_records["h2", "fermionic"]
    prefixes = truncation_prefixes(record)
    small_grid = (1e-5, 1e-4, 1e-3)
    h2_tables = {
        scheme: sweep_noise(
            prefixes, h2.hamiltonian, small_grid, record.reference_index,
            h2.fci_energy, scheme=scheme, n_qubits=h2.n_qubits,
        )
        for scheme in ("gate_by_gate", "element_by_element")
    }
    assert np.all(
        h2_tables["element_by_element"].delta_e
        <= h2_tables["gate_by_gate"].delta_e + 1e-12
    )

    # one probability rescaling aligns the two H4 curves at first order
    _, ansatz, params, reference = h4_circuit
    chis = {
        scheme: noise_susceptibility(
            ansatz, params, h4.hamiltonian, reference, scheme=scheme,
            n_qubits=h4.n_qubits,
        ).chi
        for scheme in ("gate_by_gate", "element_by_element")
    }
    factor = chis["gate_by_gate"] / chis["element_by_element"]
    assert 1.0 <= factor <= 2.0


@pytest.mark.acceptance("09 optimal-truncation-monotone")
def test_best_depth_shrinks_with_noise(h4_sweeps):
    table = h4_sweeps["gate_by_gate"]
    best = optimal_truncation(table)
    depths = [n for _, n, _ in best]
    assert all(b <= a for a, b in zip(depths, depths[1:]))
    full_depth_column = table.delta_e[:, -1]
    for (p, n_opt, delta), full in zip(best, full_depth_column):
        assert delta <= full + 1e-15


@pytest.mark.acceptance("10 operator-layer-correctness")
def test_mapping_pools_and_gradients(h2):
    # anticommutation relations survive the qubit mapping
    for n_so in (2, 4, 6):
        mats = {
            (orb, dag): qubit_operator_matrix(
                jordan_wigner(FermionOperator.ladder(orb, dag), n_so)
            )
            for orb in range(n_so) for dag in (False, True)
        }
        eye = np.eye(1 << n_so)
        for p_orb in range(n_so):
            for q_orb in range(n_so):
                mixed = mats[p_orb, False] @ mats[q_orb, True] \
                    + mats[q_orb, True] @ mats[p_orb, False]
                expected = eye if p_orb == q_orb else 0.0 * eye
                assert np.max(np.abs(mixed - expected)) <= 1e-12
                same = mats[p_orb, False] @ mats[q_orb, False] \
                    + mats[q_orb, False] @ mats[p_orb, False]
                assert np.max(np.abs(same)) <= 1e-12

    # commutator-based pool gradients agree with finite differences
    pool = build_pool("fermionic", h2.n_qubits, h2.n_electrons)
    state = QuantumState.from_basis_index(0b0011, h2.n_qubits)
    apply_element(state, pool.elements[0], 0.2)
    analytic = pool_gradients(state, h2.hamiltonian, pool)
    numeric = finite_difference_pool_gradients(
        state, h2.hamiltonian, pool, NOISELESS
    )
    assert np.max(np.abs(np.array(analytic) - np.array(numeric))) <= 1e-6

    # pauli-pool size matches a direct parity enumeration
    n = 4
    count = 0
    for weight in (2, 4):
        for support in itertools.combinations(range(n), weight):
            for axes in itertools.product("XY", repeat=weight):
                if axes.count("Y") % 2 == 1:
                    count += 1
    assert count == 20
    assert len(build_pool("qubit_pauli", n, 0).elements) == count


@pytest.mark.acceptance("11 bit-for-bit-reproducibility")
def test_sweep_output_independent_of_worker_count(tmp_path, capsys):
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        code = cli_main([
            "sweep", "--set", "pool=qeb",
            "--set", "p_grid=0,1e-4,3e-4,1e-3",
            "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        outputs[workers] = (out / "sweep.csv").read_bytes()
    assert outputs[1] == outputs[8]
    assert outputs[1].startswith(b"# config_hash=")
