"""Tests for the growth loop, decision rules, and in-repo optimizers."""

import numpy as np
import pytest

from vqenoise.adapt import (
    _adjoint_gradient,
    AdaptConfig,
    AdaptIteration,
    AdaptRecord,
    adapt_run,
    bfgs_minimize,
    central_gradient,
    finite_difference_pool_gradients,
    nelder_mead,
    optimize_parameters,
    pool_gradients,
    select_energy_rule,
    select_gradient_rule,
    truncation_prefixes,
)
from vqenoise.ansatz import (
    Ansatz,
    AnsatzElement,
    Pool,
    build_fermionic_pool,
    build_pool,
    build_uccsd,
    hartree_fock_index,
)
from vqenoise.exceptions import (
    ConfigError,
    NumericIntegrityError,
    ResourceLimitError,
    StalledError,
)
from vqenoise.operators import PauliString, QubitOperator, expectation
from vqenoise.simulator import (
    NOISELESS,
    NoiseModel,
    QuantumState,
    apply_element,
    run_circuit,
)

from oracles import qubit_operator_matrix, random_density

OPTIMIZERS = [nelder_mead, bfgs_minimize]


def quadratic_bowl(x):
    return float((x[0] - 0.3) ** 2)


def coupled_quadratic(x):
    a = np.array([[2.0, 0.4, 0.0], [0.4, 1.5, -0.2], [0.0, -0.2, 3.0]])
    center = np.array([0.1, -0.7, 0.4])
    d = np.asarray(x) - center
    return float(d @ a @ d)


class TestOptimizers:
    @pytest.mark.parametrize("minimize", OPTIMIZERS)
    def test_scalar_quadratic(self, minimize):
        res = minimize(quadratic_bowl, np.array([1.2]))
        assert res.x[0] == pytest.approx(0.3, abs=1e-6)
        assert res.converged

    @pytest.mark.parametrize("minimize", OPTIMIZERS)
    def test_coupled_quadratic(self, minimize):
        res = minimize(coupled_quadratic, np.zeros(3))
        np.testing.assert_allclose(res.x, [0.1, -0.7, 0.4], atol=1e-5)
        assert res.energy < 1e-10

    @pytest.mark.parametrize("minimize", OPTIMIZERS)
    def test_converged_means_small_gradient(self, minimize):
        res = minimize(coupled_quadratic, np.ones(3), grad_tol=1e-6)
        assert res.converged
        grad = central_gradient(coupled_quadratic, res.x)
        assert np.linalg.norm(grad) <= 1e-6

    @pytest.mark.parametrize("minimize", OPTIMIZERS)
    def test_empty_parameter_vector(self, minimize):
        res = minimize(lambda x: 4.2, np.zeros(0))
        assert res.converged
        assert res.energy == 4.2
        assert res.x.size == 0

    @pytest.mark.parametrize("minimize", OPTIMIZERS)
    def test_non_finite_objective_rejected(self, minimize):
        with pytest.raises(NumericIntegrityError):
            minimize(lambda x: float("nan"), np.zeros(2))

    @pytest.mark.parametrize("minimize", OPTIMIZERS)
    def test_deterministic(self, minimize):
        a = minimize(coupled_quadratic, np.zeros(3))
        b = minimize(coupled_quadratic, np.zeros(3))
        assert a.energy == b.energy
        assert np.array_equal(a.x, b.x)
        assert a.n_evaluations == b.n_evaluations

    def test_evaluations_counted(self):
        res = bfgs_minimize(quadratic_bowl, np.array([2.0]))
        assert res.n_evaluations > 0

    @pytest.mark.parametrize("minimize", OPTIMIZERS)
    def test_given_gradient_is_used_and_counted(self, minimize):
        def exact(x):
            return 2.0 * (x - 0.3)

        plain = minimize(quadratic_bowl, np.array([1.2]))
        res = minimize(quadratic_bowl, np.array([1.2]), gradient=exact)
        assert res.converged
        assert res.x[0] == pytest.approx(0.3, abs=1e-6)
        assert res.n_gradients > 0
        # central differences spend two objective calls per gradient
        assert plain.n_evaluations - res.n_evaluations \
            >= 2 * res.n_gradients

    @pytest.mark.parametrize("minimize", OPTIMIZERS)
    def test_non_finite_gradient_rejected(self, minimize):
        with pytest.raises(NumericIntegrityError, match="gradient"):
            minimize(coupled_quadratic, np.zeros(3),
                     gradient=lambda x: np.array([0.0, np.nan, 0.0]))


def single_generator_pool(paulis, n_qubits, label="t"):
    gen = QubitOperator.from_term(PauliString(paulis, n_qubits), 1j)
    return Pool("custom", (AnsatzElement(generator=gen, label=label),),
                n_qubits, 0)


class TestPoolGradients:
    def test_pauli_commutator_value(self):
        # Tr([X, iY] |0><0|) = Tr(-2Z |0><0|) = -2
        pool = single_generator_pool({0: "Y"}, 1)
        h = QubitOperator.from_term(PauliString({0: "X"}, 1), 1.0)
        for density in (False, True):
            state = QuantumState.from_basis_index(0, 1, density=density)
            grads = pool_gradients(state, h, pool)
            assert grads[0] == pytest.approx(-2.0, abs=1e-12)

    def test_eigenstate_gives_zero(self):
        pool = single_generator_pool({0: "Y"}, 1)
        h = QubitOperator.from_term(PauliString({0: "Z"}, 1), 1.0)
        state = QuantumState.from_basis_index(0, 1)
        assert pool_gradients(state, h, pool)[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_difference_oracle(self, h2, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        pool = build_fermionic_pool(4, 2)
        state = QuantumState(4, v)
        analytic = pool_gradients(state, h2.hamiltonian, pool)
        delta = 1e-4
        for alpha, element in enumerate(pool.elements):
            plus = QuantumState(4, v.copy())
            minus = QuantumState(4, v.copy())
            apply_element(plus, element, delta)
            apply_element(minus, element, -delta)
            fd = (expectation(h2.hamiltonian, plus)
                  - expectation(h2.hamiltonian, minus)) / (2 * delta)
            assert analytic[alpha] == pytest.approx(fd, abs=1e-6)

    def test_backends_agree(self, h2):
        rng = np.random.default_rng(5)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        pool = build_fermionic_pool(4, 2)
        vec = pool_gradients(QuantumState(4, v), h2.hamiltonian, pool)
        den = pool_gradients(
            QuantumState(4, v).to_density(), h2.hamiltonian, pool
        )
        np.testing.assert_allclose(vec, den, atol=1e-10)

    @pytest.mark.parametrize("kind", ["fermionic", "qeb", "qubit_pauli"])
    def test_mixed_state_matches_dense_commutator(self, h2, kind):
        # the density branch uses rho = rho+; a full-rank rho tests that
        # beyond pure states
        rho = random_density(4, seed=31)
        pool = build_pool(kind, 4, 2)
        grads = pool_gradients(QuantumState(4, rho), h2.hamiltonian, pool)
        h = qubit_operator_matrix(h2.hamiltonian)
        for alpha, element in enumerate(pool.elements):
            t = qubit_operator_matrix(element.generator)
            oracle = np.trace(h @ (t @ rho - rho @ t)).real
            assert grads[alpha] == pytest.approx(oracle, abs=1e-12)

    def test_noiseless_fd_route_agrees(self, h2):
        state = QuantumState.from_basis_index(3, 4)
        pool = build_fermionic_pool(4, 2)
        analytic = pool_gradients(state, h2.hamiltonian, pool)
        fd = finite_difference_pool_gradients(
            state, h2.hamiltonian, pool, NOISELESS
        )
        np.testing.assert_allclose(analytic, fd, atol=1e-6)

    def test_dimension_mismatch(self, h2):
        pool = build_fermionic_pool(4, 2)
        with pytest.raises(Exception):
            pool_gradients(
                QuantumState.from_basis_index(0, 3), h2.hamiltonian, pool
            )


class TestSelectGradientRule:
    def test_largest_magnitude_wins(self):
        assert select_gradient_rule([0.1, -0.5, 0.2]) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert select_gradient_rule([0.3, -0.3]) == 0

    def test_all_zero_stalls(self):
        with pytest.raises(StalledError):
            select_gradient_rule([0.0, 1e-12])

    def test_empty_pool(self):
        with pytest.raises(ConfigError):
            select_gradient_rule([])


class TestSelectEnergyRule:
    @pytest.fixture()
    def hf_state(self, h2):
        return QuantumState.from_basis_index(
            hartree_fock_index(h2.n_electrons), h2.n_qubits
        )

    def test_subpool_of_one_reduces_to_gradient_rule(self, h2, hf_state):
        pool = build_fermionic_pool(4, 2)
        grads = pool_gradients(hf_state, h2.hamiltonian, pool)
        chosen = select_energy_rule(
            hf_state, h2.hamiltonian, pool, grads, subpool_size=1
        )
        assert chosen == select_gradient_rule(grads)

    def test_full_subpool_matches_grid_scan_oracle(self, h2, hf_state):
        pool = build_fermionic_pool(4, 2)
        grads = pool_gradients(hf_state, h2.hamiltonian, pool)
        chosen = select_energy_rule(
            hf_state, h2.hamiltonian, pool, grads, subpool_size=len(pool)
        )
        thetas = np.arange(-2.0, 2.0, 1e-3)
        best_index, best_energy = -1, np.inf
        for index, element in enumerate(pool.elements):
            for theta in thetas:
                s = hf_state.copy()
                apply_element(s, element, theta)
                e = expectation(h2.hamiltonian, s)
                if e < best_energy:
                    best_index, best_energy = index, e
        assert chosen == best_index

    def test_improving_candidate_beats_flat_one(self, h2, hf_state):
        # singles leave the closed-shell reference invariant at first
        # order and cannot lower it alone; the double strictly improves
        pool = build_fermionic_pool(4, 2)
        grads = pool_gradients(hf_state, h2.hamiltonian, pool)
        chosen = select_energy_rule(
            hf_state, h2.hamiltonian, pool, grads, subpool_size=len(pool)
        )
        assert "double" in pool.elements[chosen].label

    def test_stalls_on_zero_gradients(self, h2, hf_state):
        pool = build_fermionic_pool(4, 2)
        with pytest.raises(StalledError):
            select_energy_rule(
                hf_state, h2.hamiltonian, pool, np.zeros(len(pool)),
                subpool_size=2,
            )


def adjoint_and_oracle(problem, ansatz, params):
    """Adjoint gradient and the central-difference oracle at ``params``."""
    reference = hartree_fock_index(problem.n_electrons)

    def energy(x):
        return expectation(problem.hamiltonian, run_circuit(
            reference, ansatz, x, n_qubits=problem.n_qubits))

    adjoint = _adjoint_gradient(ansatz, problem.hamiltonian, reference,
                                problem.n_qubits)(params)
    return adjoint, central_gradient(energy, params)


class TestAdjointGradient:
    @pytest.mark.parametrize("molecule", ["h2", "h4"])
    @pytest.mark.parametrize("pool_kind", ["fermionic", "qeb", "qubit_pauli"])
    def test_adapt_prefixes_match_central_differences(
        self, request, molecule, pool_kind
    ):
        problem = request.getfixturevalue(molecule)
        record = adapt_run(problem, AdaptConfig(pool_kind=pool_kind))
        rng = np.random.default_rng(11)
        for n, ansatz, params in truncation_prefixes(record)[1:]:
            for point in (params, params + rng.uniform(-0.4, 0.4, n)):
                adjoint, oracle = adjoint_and_oracle(problem, ansatz, point)
                np.testing.assert_allclose(adjoint, oracle, rtol=0, atol=1e-7)

    def test_uccsd_matches_central_differences(self, h4):
        ansatz = build_uccsd(h4.n_qubits, h4.n_electrons)
        params = np.random.default_rng(5).uniform(-0.3, 0.3, ansatz.n_params)
        adjoint, oracle = adjoint_and_oracle(h4, ansatz, params)
        assert np.abs(adjoint).max() > 1e-2
        np.testing.assert_allclose(adjoint, oracle, rtol=0, atol=1e-7)

    def test_zero_angle_and_repeated_element(self, h2):
        pool = build_fermionic_pool(h2.n_qubits, h2.n_electrons)
        double = pool.elements[-1]
        ansatz = Ansatz.from_elements(
            [pool.elements[0], double, double, pool.elements[1]]
        )
        params = np.array([0.0, 0.2, -0.35, 0.0])
        adjoint, oracle = adjoint_and_oracle(h2, ansatz, params)
        assert np.abs(adjoint).max() > 1e-2
        np.testing.assert_allclose(adjoint, oracle, rtol=0, atol=1e-7)


class TestEvaluationCounts:
    """Energy-evaluation budgets of noiseless optimization; central
    differences spent 637 (UCCSD) and 2,187 (ADAPT) on these runs."""

    def test_h4_uccsd_bfgs(self, h4):
        ansatz = build_uccsd(h4.n_qubits, h4.n_electrons)
        result = optimize_parameters(
            ansatz, np.zeros(ansatz.n_params), h4.hamiltonian,
            hartree_fock_index(h4.n_electrons),
        )
        assert result.converged
        assert result.energy - h4.fci_energy < 1.6e-3
        assert result.n_evaluations <= 60
        assert 0 < result.n_gradients <= result.n_evaluations

    def test_h4_fermionic_adapt(self, h4):
        record = adapt_run(h4, AdaptConfig(pool_kind="fermionic"))
        assert record.status == "reached_epsilon_t"
        assert sum(it.n_evaluations for it in record.iterations) <= 400
        assert all(it.n_gradients > 0 for it in record.iterations)

    def test_noisy_objective_keeps_central_differences(self, h2):
        pool = build_fermionic_pool(h2.n_qubits, h2.n_electrons)
        ansatz = Ansatz.from_elements(pool.elements[-1:])
        result = optimize_parameters(
            ansatz, np.zeros(1), h2.hamiltonian,
            hartree_fock_index(h2.n_electrons), noise=NoiseModel(1e-3),
        )
        # each gradient is two energy calls
        assert result.n_evaluations >= 2 * result.n_gradients + 1


class TestOptimizeParameters:
    @pytest.mark.parametrize("optimizer", ["bfgs", "nelder_mead"])
    def test_uccsd_reaches_full_ci(self, h2, optimizer):
        ansatz = build_uccsd(h2.n_qubits, h2.n_electrons)
        res = optimize_parameters(
            ansatz, np.zeros(ansatz.n_params), h2.hamiltonian,
            hartree_fock_index(h2.n_electrons), optimizer=optimizer,
        )
        assert res.energy == pytest.approx(h2.fci_energy, abs=1e-8)

    def test_noisy_optimum_at_least_as_good(self, h2):
        # re-optimizing under noise can only improve on noiselessly
        # optimal parameters evaluated noisily
        ansatz = build_uccsd(h2.n_qubits, h2.n_electrons)
        hf = hartree_fock_index(h2.n_electrons)
        noiseless = optimize_parameters(
            ansatz, np.zeros(ansatz.n_params), h2.hamiltonian, hf
        )
        noise = NoiseModel(1e-4, "gate_by_gate")
        frozen = expectation(h2.hamiltonian, run_circuit(
            hf, ansatz, noiseless.x, noise=noise
        ))
        reopt = optimize_parameters(
            ansatz, noiseless.x, h2.hamiltonian, hf, noise=noise
        )
        assert reopt.energy <= frozen + 1e-10

    def test_bad_initial_parameters(self, h2):
        ansatz = build_uccsd(4, 2)
        with pytest.raises(ConfigError):
            optimize_parameters(
                ansatz, [np.nan, 0.0, 0.0], h2.hamiltonian, 3
            )

    def test_unknown_optimizer(self, h2):
        ansatz = build_uccsd(4, 2)
        with pytest.raises(ConfigError):
            optimize_parameters(
                ansatz, np.zeros(3), h2.hamiltonian, 3, optimizer="adam"
            )


class TestAdaptConfig:
    def test_defaults_valid(self):
        config = AdaptConfig()
        assert config.rule == "gradient"
        assert config.noise is NOISELESS

    @pytest.mark.parametrize("kwargs", [
        {"rule": "random"},
        {"optimizer": "adam"},
        {"eps_opt": 0.0},
        {"eps_halt": -1.0},
        {"eps_truncation": 0.0},
        {"subpool_size": 0},
        {"max_iterations": -1},
    ])
    def test_invalid_settings(self, kwargs):
        with pytest.raises(ConfigError):
            AdaptConfig(**kwargs)


class TestAdaptRun:
    @pytest.mark.parametrize("pool_kind", ["fermionic", "qeb", "qubit_pauli"])
    def test_h2_reaches_chemical_accuracy_quickly(self, h2, pool_kind):
        record = adapt_run(h2, AdaptConfig(pool_kind=pool_kind))
        errors = [e - h2.fci_energy for e in record.energies]
        within = [n for n, err in enumerate(errors) if err < 1.6e-3]
        assert within and within[0] <= 4

    @pytest.mark.parametrize("pool_kind", ["fermionic", "qeb", "qubit_pauli"])
    def test_noiseless_monotonic_and_variational(self, h2, pool_kind):
        record = adapt_run(h2, AdaptConfig(pool_kind=pool_kind))
        energies = record.energies
        for previous, current in zip(energies, energies[1:]):
            assert current <= previous + 1e-9
        for energy in energies:
            assert energy >= h2.fci_energy - 1e-9

    def test_h4_monotonic_prefix(self, h4):
        record = adapt_run(h4, AdaptConfig(max_iterations=4))
        energies = record.energies
        assert len(energies) == 5
        for previous, current in zip(energies, energies[1:]):
            assert current <= previous + 1e-9

    def test_gradient_rule_consistency(self, h2):
        record = adapt_run(h2, AdaptConfig(pool_kind="qubit_pauli"))
        pool = build_pool("qubit_pauli", h2.n_qubits, h2.n_electrons)
        labels = [e.label for e in pool.elements]
        for iteration in record.iterations:
            grads = np.abs(iteration.gradients)
            chosen = labels.index(iteration.label)
            assert grads[chosen] == grads.max()

    def test_energy_rule_runs(self, h2):
        record = adapt_run(
            h2, AdaptConfig(rule="energy", subpool_size=3)
        )
        assert record.final_energy == pytest.approx(h2.fci_energy, abs=1e-6)

    def test_reference_energy_recorded(self, h2):
        record = adapt_run(h2, AdaptConfig())
        hf_state = run_circuit(
            record.reference_index, Ansatz(), [], n_qubits=h2.n_qubits
        )
        assert record.initial_energy == pytest.approx(
            expectation(h2.hamiltonian, hf_state), abs=1e-12
        )

    def test_huge_epsilon_halts_immediately(self, h2):
        record = adapt_run(h2, AdaptConfig(eps_halt=1.0))
        assert record.status == "halted_by_epsilon"
        assert record.n_iterations == 0

    def test_noiseless_default_reaches_truncation_target(self, h2):
        record = adapt_run(h2, AdaptConfig())
        assert record.status == "reached_epsilon_t"
        assert record.final_energy - h2.fci_energy < 1e-4

    def test_deterministic(self, h2):
        a = adapt_run(h2, AdaptConfig(pool_kind="qubit_pauli"))
        b = adapt_run(h2, AdaptConfig(pool_kind="qubit_pauli"))
        assert a.energies == b.energies
        assert a.status == b.status
        assert all(
            x.params == y.params and x.label == y.label
            for x, y in zip(a.iterations, b.iterations)
        )

    def test_record_bookkeeping(self, h2):
        record = adapt_run(h2, AdaptConfig(pool_kind="qubit_pauli"))
        assert record.ansatz.n_params == record.n_iterations
        assert len(record.energies) == record.n_iterations + 1
        cnots = [it.cumulative_cnots for it in record.iterations]
        assert all(b >= a for a, b in zip(cnots, cnots[1:]))
        assert record.status in (
            "reached_epsilon_t", "halted_by_epsilon", "max_iterations",
            "converged", "stalled",
        )

    def test_noisy_growth_shorter_than_noiseless(self, h2):
        noiseless = adapt_run(h2, AdaptConfig(max_iterations=6))
        noisy = adapt_run(h2, AdaptConfig(
            noise=NoiseModel(1e-3, "gate_by_gate"), max_iterations=6,
        ))
        assert noisy.n_iterations <= noiseless.n_iterations
        assert noisy.status == "halted_by_epsilon"

    def test_noisy_growth_improves_at_small_p(self, h2):
        record = adapt_run(h2, AdaptConfig(
            noise=NoiseModel(1e-5, "gate_by_gate"), max_iterations=3,
        ))
        assert record.n_iterations >= 1
        assert record.final_energy < record.initial_energy

    def test_loop_errors_carry_iteration_context(self, h2, monkeypatch):
        import vqenoise.adapt as adapt_module

        def failing_optimizer(*args, **kwargs):
            raise NumericIntegrityError("synthetic failure")

        monkeypatch.setattr(
            adapt_module, "optimize_parameters", failing_optimizer
        )
        with pytest.raises(NumericIntegrityError, match="iteration 1"):
            adapt_run(h2, AdaptConfig())

    def test_register_too_large_for_noisy_growth(self, h2):
        config = AdaptConfig(
            noise=NoiseModel(1e-3, "gate_by_gate"), dense_limit=2,
        )
        with pytest.raises(ResourceLimitError, match="density-matrix limit"):
            adapt_run(h2, config)

    def test_invalid_status_rejected(self):
        with pytest.raises(ConfigError):
            AdaptRecord(
                config=AdaptConfig(), n_qubits=2, reference_index=0,
                initial_energy=0.0, ansatz=Ansatz(), iterations=(),
                status="done",
            )


@pytest.fixture(scope="module")
def h2_record(h2):
    return adapt_run(h2, AdaptConfig(pool_kind="qubit_pauli"))


class TestTruncationPrefixes:
    def test_zero_prefix_is_reference(self, h2, h2_record):
        prefixes = truncation_prefixes(h2_record)
        n, ansatz, params = prefixes[0]
        assert n == 0 and ansatz.n_params == 0 and params.size == 0
        state = run_circuit(
            h2_record.reference_index, ansatz, params, n_qubits=h2.n_qubits
        )
        assert expectation(h2.hamiltonian, state) == pytest.approx(
            h2_record.initial_energy, abs=1e-12
        )

    def test_prefix_energies_match_record(self, h2, h2_record):
        for n, ansatz, params in truncation_prefixes(h2_record)[1:]:
            state = run_circuit(h2_record.reference_index, ansatz, params)
            assert expectation(h2.hamiltonian, state) == pytest.approx(
                h2_record.energies[n], abs=1e-12
            )

    def test_resimulation_oracle(self, h2, h2_record):
        # rebuild each prefix from raw elements instead of Ansatz.prefix
        for n, _, params in truncation_prefixes(h2_record)[1:]:
            rebuilt = Ansatz.from_elements(h2_record.ansatz.elements[:n])
            state = run_circuit(h2_record.reference_index, rebuilt, params)
            assert expectation(h2.hamiltonian, state) == pytest.approx(
                h2_record.energies[n], abs=1e-12
            )

    def test_malformed_history_rejected(self, h2_record):
        broken = AdaptRecord(
            config=h2_record.config,
            n_qubits=h2_record.n_qubits,
            reference_index=h2_record.reference_index,
            initial_energy=h2_record.initial_energy,
            ansatz=h2_record.ansatz,
            iterations=tuple(
                AdaptIteration(
                    label=it.label, params=it.params[:-1] or (0.0, 0.0),
                    energy=it.energy, gradients=it.gradients,
                    cumulative_cnots=it.cumulative_cnots,
                    converged=it.converged, n_evaluations=it.n_evaluations,
                    n_gradients=it.n_gradients,
                )
                for it in h2_record.iterations
            ),
            status=h2_record.status,
        )
        with pytest.raises(NumericIntegrityError):
            truncation_prefixes(broken)
