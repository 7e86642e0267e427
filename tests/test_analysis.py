"""Tests for susceptibility, p_c estimation, sweeps, and extrapolation."""

import numpy as np
import pytest

from vqenoise.adapt import AdaptConfig, adapt_run, optimize_parameters, \
    truncation_prefixes
from vqenoise.analysis import (
    CHEMICAL_ACCURACY,
    PcEstimate,
    ScalingFit,
    SusceptibilityReport,
    SweepTable,
    chi_from_density_derivative,
    estimate_pc,
    gate_susceptibility,
    noise_susceptibility,
    optimal_truncation,
    pc_scaling_fit,
    sweep_crossing_pc,
    sweep_noise,
    zne_linear,
)
from vqenoise.ansatz import Ansatz, build_uccsd, hartree_fock_index
from vqenoise.exceptions import (
    ConfigError,
    DimensionError,
    ResourceLimitError,
)
from vqenoise.operators import PauliString, QubitOperator, expectation
from vqenoise.simulator import (
    GateOp,
    NoiseModel,
    QuantumState,
    apply_depolarizing,
    apply_gate,
    cnot_count,
    compile_element,
    run_circuit,
)

from oracles import qubit_operator_matrix, susceptibility_oracle


def make_report(n_ii, delta_e, e_unperturbed=0.0):
    """Synthetic report with uniform fluctuations."""
    fluctuations = tuple(
        (r, 0, sigma, delta_e) for r in range(n_ii) for sigma in "XYZ"
    )
    return SusceptibilityReport(
        chi=delta_e * n_ii, delta_e=delta_e, n_ii=n_ii,
        e_unperturbed=e_unperturbed, fluctuations=fluctuations,
    )


@pytest.fixture(scope="module")
def qeb_h2(h2):
    """Optimized QEB ansatz for H2 with its noiseless residual."""
    ansatz = build_uccsd(h2.n_qubits, h2.n_electrons, pool_kind="qeb")
    hf = hartree_fock_index(h2.n_electrons)
    res = optimize_parameters(
        ansatz, np.zeros(ansatz.n_params), h2.hamiltonian, hf
    )
    return ansatz, res.x, hf, res.energy - h2.fci_energy


@pytest.fixture(scope="module")
def h2_report(h2, qeb_h2):
    ansatz, params, hf, _ = qeb_h2
    return noise_susceptibility(ansatz, params, h2.hamiltonian, hf)


class TestSusceptibilityReport:
    def test_chi_identity_enforced(self):
        with pytest.raises(ConfigError):
            SusceptibilityReport(
                chi=1.0, delta_e=0.4, n_ii=2, e_unperturbed=0.0,
                fluctuations=tuple((r, 0, s, 0.4) for r in range(2)
                                   for s in "XYZ"),
            )

    def test_fluctuation_count_enforced(self):
        with pytest.raises(DimensionError):
            SusceptibilityReport(
                chi=0.8, delta_e=0.4, n_ii=2, e_unperturbed=0.0,
                fluctuations=((0, 0, "X", 0.4),),
            )

    def test_undefined_delta_e_requires_zero_chi(self):
        with pytest.raises(ConfigError):
            SusceptibilityReport(
                chi=0.5, delta_e=0.0, n_ii=0, e_unperturbed=0.0,
                fluctuations=(), delta_e_defined=False,
            )

    def test_negative_cnot_count_rejected(self):
        with pytest.raises(ConfigError):
            SusceptibilityReport(
                chi=0.0, delta_e=0.0, n_ii=-1, e_unperturbed=0.0,
                fluctuations=(), delta_e_defined=False,
            )


class TestGateSusceptibility:
    def test_single_cnot_hand_values(self):
        # |00> with H = Z1: X and Y after the CNOT flip the target
        # expectation to -1, Z leaves it alone
        z1 = QubitOperator.from_term(PauliString({1: "Z"}, 2), 1.0)
        report = gate_susceptibility([GateOp.cnot(0, 1)], 2, z1, 0)
        assert report.n_ii == 1
        assert report.e_unperturbed == pytest.approx(1.0)
        by_sigma = {s: f for _, _, s, f in report.fluctuations}
        assert by_sigma == pytest.approx({"X": -2.0, "Y": -2.0, "Z": 0.0})
        assert report.delta_e == pytest.approx(-4.0 / 3.0)
        assert report.chi == pytest.approx(-4.0 / 3.0)

    def test_hand_values_match_density_slope(self):
        # the channel is linear in p here, so one secant gives the slope
        z1 = QubitOperator.from_term(PauliString({1: "Z"}, 2), 1.0)
        report = gate_susceptibility([GateOp.cnot(0, 1)], 2, z1, 0)
        energies = []
        for p in (0.0, 0.1):
            state = QuantumState.from_basis_index(0, 2, density=True)
            apply_gate(state, GateOp.cnot(0, 1))
            apply_depolarizing(state, 1, p)
            energies.append(expectation(z1, state))
        slope = (energies[1] - energies[0]) / 0.1
        assert report.chi == pytest.approx(slope, abs=1e-12)

    def test_no_cnots_flagged(self):
        z0 = QubitOperator.from_term(PauliString({0: "Z"}, 1), 1.0)
        report = gate_susceptibility([GateOp.hadamard(0)], 1, z0, 0)
        assert report.chi == 0.0
        assert report.n_ii == 0
        assert not report.delta_e_defined
        assert report.e_unperturbed == pytest.approx(0.0)

    def test_register_mismatch(self):
        z1 = QubitOperator.from_term(PauliString({1: "Z"}, 2), 1.0)
        with pytest.raises(DimensionError):
            gate_susceptibility([GateOp.cnot(0, 1)], 3, z1, 0)


def assert_matches_oracle(report, expected):
    assert [f[:3] for f in report.fluctuations] == [f[:3] for f in expected]
    for (*_, got), (*_, want) in zip(report.fluctuations, expected):
        assert abs(got - want) <= 1e-12


class TestEngineOracle:
    """The batched engine against dense-matrix replays of every slot."""

    @pytest.mark.parametrize("scheme", ["gate_by_gate", "element_by_element"])
    def test_h2_qeb_matches_dense_oracle(self, h2, qeb_h2, scheme):
        ansatz, params, hf, _ = qeb_h2
        # the circuit twice over, so that both schemes fill several blocks
        doubled = Ansatz.from_elements(ansatz.elements * 2)
        thetas = np.concatenate([params, 0.5 - params])
        # rows per engine step: a Pauli term (gate_by_gate) or an element
        if scheme == "gate_by_gate":
            per_step = [6 * (ps.weight - 1)
                        for e in doubled.elements for ps, _ in e.terms]
        else:
            per_step = [3 * len(e.cnot_schedule) for e in doubled.elements]
        # more rows than one block holds; in gate_by_gate a single step
        # also outgrows 2^n
        assert sum(per_step) > max([2 ** h2.n_qubits] + per_step)
        if scheme == "gate_by_gate":
            assert max(per_step) > 2 ** h2.n_qubits

        gates, slots = [], []
        for element, theta in zip(doubled.elements, thetas):
            element_gates = compile_element(element, float(theta))
            if scheme == "gate_by_gate":
                slots += [
                    (len(gates) + i, gate.qubits[1], 1)
                    for i, gate in enumerate(element_gates) if gate.is_cnot
                ]
            else:
                end = len(gates) + len(element_gates) - 1
                slots += [(end, q, c) for q, c in element.cnot_schedule]
            gates += element_gates

        report = noise_susceptibility(
            doubled, thetas, h2.hamiltonian, hf, scheme=scheme
        )
        expected = susceptibility_oracle(
            gates, slots, h2.n_qubits,
            qubit_operator_matrix(h2.hamiltonian), hf,
        )
        assert_matches_oracle(report, expected)
        assert report.n_ii == cnot_count(doubled)

    def test_gate_list_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        n = 3
        gates = []
        for _ in range(40):
            kind = rng.integers(5)
            q = [int(v) for v in rng.permutation(n)[:2]]
            if kind == 0:
                gates.append(GateOp.cnot(*q))
            elif kind == 1:
                axis = "XYZ"[rng.integers(3)]
                gates.append(GateOp.rotation(axis, rng.normal(), q[0]))
            else:
                name = ("hadamard", "v", "vdg")[kind - 2]
                gates.append(getattr(GateOp, name)(q[0]))
        h = QubitOperator(n, {
            PauliString({0: "Z", 1: "X"}, n): 0.7,
            PauliString({2: "Y"}, n): -0.3,
            PauliString({1: "Z", 2: "Z"}, n): 0.2,
        })
        slots = [
            (i, gate.qubits[1], 1)
            for i, gate in enumerate(gates) if gate.is_cnot
        ]
        assert 3 * len(slots) > 2 ** n
        report = gate_susceptibility(gates, n, h, 5)
        expected = susceptibility_oracle(
            gates, slots, n, qubit_operator_matrix(h), 5
        )
        assert_matches_oracle(report, expected)


class TestNoiseSusceptibility:
    def test_counts_every_cnot(self, h2, qeb_h2, h2_report):
        ansatz = qeb_h2[0]
        assert h2_report.n_ii == cnot_count(ansatz)
        assert len(h2_report.fluctuations) == 3 * h2_report.n_ii

    @pytest.mark.parametrize("scheme", ["gate_by_gate", "element_by_element"])
    def test_chi_matches_density_derivative(self, h2, qeb_h2, scheme):
        ansatz, params, hf, _ = qeb_h2
        report = noise_susceptibility(
            ansatz, params, h2.hamiltonian, hf, scheme=scheme
        )
        derivative = chi_from_density_derivative(
            ansatz, params, h2.hamiltonian, hf, scheme=scheme
        )
        assert abs(report.chi - derivative) <= 1e-4 * abs(derivative)

    def test_linear_response_band(self, h2, qeb_h2, h2_report):
        ansatz, params, hf, residual = qeb_h2
        for p in (1e-4, 3e-4, 1e-3):
            state = run_circuit(
                hf, ansatz, params, noise=NoiseModel(p, "gate_by_gate")
            )
            delta = expectation(h2.hamiltonian, state) - h2.fci_energy
            assert abs(delta - residual - h2_report.chi * p) \
                <= 0.2 * h2_report.chi * p

    @pytest.mark.parametrize("scheme", ["gate_by_gate", "element_by_element"])
    def test_non_finite_params_rejected(self, h2, qeb_h2, scheme):
        ansatz, params, hf, _ = qeb_h2
        bad = np.array(params, dtype=float)
        bad[0] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            noise_susceptibility(ansatz, bad, h2.hamiltonian, hf, scheme=scheme)

    def test_fluctuations_within_spectral_range(self, h2, h2_report):
        lo = h2.spectrum.ground_energy - h2_report.e_unperturbed
        hi = h2.spectrum.max_energy - h2_report.e_unperturbed
        for _, _, _, shift in h2_report.fluctuations:
            assert lo - 1e-9 <= shift <= hi + 1e-9
        assert h2_report.delta_e <= h2.spectral_range + 1e-9

    def test_element_scheme_differs_but_same_slots(self, h2, qeb_h2, h2_report):
        ansatz, params, hf, _ = qeb_h2
        element_report = noise_susceptibility(
            ansatz, params, h2.hamiltonian, hf, scheme="element_by_element"
        )
        assert element_report.n_ii == h2_report.n_ii
        assert element_report.chi <= h2_report.chi

    def test_deterministic(self, h2, qeb_h2):
        ansatz, params, hf, _ = qeb_h2
        a = noise_susceptibility(ansatz, params, h2.hamiltonian, hf)
        b = noise_susceptibility(ansatz, params, h2.hamiltonian, hf)
        assert a.chi == b.chi
        assert a.fluctuations == b.fluctuations

    def test_empty_ansatz_flagged(self, h2):
        report = noise_susceptibility(
            Ansatz(), [], h2.hamiltonian, 3, n_qubits=4
        )
        assert report.chi == 0.0
        assert not report.delta_e_defined

    def test_bad_inputs(self, h2, qeb_h2):
        ansatz, params, hf, _ = qeb_h2
        with pytest.raises(DimensionError):
            noise_susceptibility(ansatz, params[:-1], h2.hamiltonian, hf)
        with pytest.raises(ConfigError):
            noise_susceptibility(
                ansatz, params, h2.hamiltonian, hf, scheme="per_shot"
            )

    def test_density_derivative_rejects_short_parameters(self, h2, qeb_h2):
        # a short vector must not silently run a shorter circuit
        ansatz, params, hf, _ = qeb_h2
        with pytest.raises(DimensionError):
            chi_from_density_derivative(ansatz, params[:1], h2.hamiltonian, hf)

    def test_density_derivative_rejects_unknown_scheme(self, h2, qeb_h2):
        # an unknown scheme must not fall back to element_by_element
        ansatz, params, hf, _ = qeb_h2
        with pytest.raises(ConfigError):
            chi_from_density_derivative(
                ansatz, params, h2.hamiltonian, hf, scheme="bogus"
            )

    def test_density_derivative_checks_memory(self, h2, qeb_h2, physical_memory):
        ansatz, params, hf, _ = qeb_h2
        physical_memory(4096)
        with pytest.raises(ResourceLimitError):
            chi_from_density_derivative(ansatz, params, h2.hamiltonian, hf)


class TestEstimatePc:
    def test_simple_division(self):
        report = make_report(n_ii=2, delta_e=0.8)
        estimate = estimate_pc(report, 0.0)
        assert estimate.p_c == pytest.approx(1e-3)
        assert not estimate.unreachable and not estimate.chi_flagged

    def test_residual_above_accuracy_unreachable(self):
        report = make_report(n_ii=2, delta_e=0.8)
        estimate = estimate_pc(report, 2e-3)
        assert estimate.unreachable
        assert estimate.p_c == 0.0

    def test_nonpositive_chi_flagged(self):
        report = make_report(n_ii=2, delta_e=-0.5)
        estimate = estimate_pc(report, 0.0)
        assert estimate.chi_flagged
        assert estimate.chi == pytest.approx(-1.0)
        assert estimate.p_c == 1.0

    def test_clamped_to_unit_interval(self):
        report = make_report(n_ii=2, delta_e=5e-5)
        estimate = estimate_pc(report, 0.0)
        assert estimate.p_c == 1.0

    def test_agrees_with_sweep_crossing(self, h2, qeb_h2, h2_report):
        ansatz, params, hf, residual = qeb_h2
        estimate = estimate_pc(h2_report, residual)

        def delta_e_at(p):
            state = run_circuit(
                hf, ansatz, params, noise=NoiseModel(p, "gate_by_gate")
            )
            return expectation(h2.hamiltonian, state) - h2.fci_energy

        crossing = sweep_crossing_pc(delta_e_at, np.logspace(-6, -2, 9))
        assert crossing is not None
        assert abs(estimate.p_c - crossing) <= 0.25 * crossing


@pytest.fixture(scope="module")
def h2_prefixes(h2):
    record = adapt_run(h2, AdaptConfig(pool_kind="qeb"))
    return record, truncation_prefixes(record)


class TestSweepNoise:
    def test_zero_column_matches_record(self, h2, h2_prefixes):
        record, prefixes = h2_prefixes
        table = sweep_noise(
            prefixes, h2.hamiltonian, [0.0, 1e-4], record.reference_index,
            h2.fci_energy, n_qubits=h2.n_qubits,
        )
        expected = [e - h2.fci_energy for e in record.energies]
        np.testing.assert_allclose(table.delta_e[0], expected, atol=1e-9)

    def test_rows_non_decreasing_in_p(self, h2, h2_prefixes):
        record, prefixes = h2_prefixes
        table = sweep_noise(
            prefixes, h2.hamiltonian, [0.0, 1e-4, 1e-3, 1e-2],
            record.reference_index, h2.fci_energy, n_qubits=h2.n_qubits,
        )
        for column in range(table.delta_e.shape[1]):
            column_values = table.delta_e[:, column]
            assert all(
                b >= a - 1e-12
                for a, b in zip(column_values, column_values[1:])
            )

    def test_metadata_recorded_and_frozen(self, h2, h2_prefixes):
        record, prefixes = h2_prefixes
        table = sweep_noise(
            prefixes, h2.hamiltonian, [0.0], record.reference_index,
            h2.fci_energy, scheme="element_by_element",
            n_qubits=h2.n_qubits, metadata={"molecule": "h2_0.7414"},
        )
        assert table.metadata["scheme"] == "element_by_element"
        assert table.metadata["molecule"] == "h2_0.7414"
        with pytest.raises(TypeError):
            table.metadata["scheme"] = "other"

    def test_input_validation(self, h2, h2_prefixes):
        record, prefixes = h2_prefixes
        with pytest.raises(ConfigError):
            sweep_noise(prefixes, h2.hamiltonian, [1e-3, 1e-4],
                        record.reference_index, h2.fci_energy)
        with pytest.raises(ConfigError):
            sweep_noise(prefixes, h2.hamiltonian, [0.5, 1.5],
                        record.reference_index, h2.fci_energy)
        with pytest.raises(ConfigError):
            sweep_noise([], h2.hamiltonian, [0.0],
                        record.reference_index, h2.fci_energy)

    def test_non_finite_params_rejected(self, h2, h2_prefixes):
        record, prefixes = h2_prefixes
        length, ansatz, params = prefixes[-1]
        bad = np.array(params, dtype=float)
        bad[-1] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            sweep_noise(
                [(length, ansatz, bad)], h2.hamiltonian, [0.0, 1e-3],
                record.reference_index, h2.fci_energy, n_qubits=h2.n_qubits,
            )

    def test_errors_carry_grid_context(self, h2, h2_prefixes):
        record, prefixes = h2_prefixes
        with pytest.raises(ResourceLimitError, match="p=0.001, n="):
            sweep_noise(
                prefixes, h2.hamiltonian, [1e-3], record.reference_index,
                h2.fci_energy, n_qubits=h2.n_qubits, dense_limit=2,
            )


class TestSweepTable:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            SweepTable((0.0, 1e-3), (0, 1), np.zeros((3, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            SweepTable((), (), np.zeros((0, 0)))


class TestOptimalTruncation:
    def test_interior_minimum_found(self):
        table = SweepTable(
            p_values=(1e-4,), lengths=(0, 1, 2, 3),
            delta_e=np.array([[0.5, 0.1, 0.05, 0.2]]),
        )
        assert optimal_truncation(table) == [(1e-4, 2, 0.05)]

    def test_tie_takes_smallest_length(self):
        table = SweepTable(
            p_values=(1e-4,), lengths=(0, 1, 2),
            delta_e=np.array([[0.3, 0.1, 0.1]]),
        )
        assert optimal_truncation(table)[0][1] == 1

    def test_noiseless_row_picks_deepest_prefix(self, h2, h2_prefixes):
        record, prefixes = h2_prefixes
        table = sweep_noise(
            prefixes, h2.hamiltonian, [0.0], record.reference_index,
            h2.fci_energy, n_qubits=h2.n_qubits,
        )
        p, n_opt, best = optimal_truncation(table)[0]
        assert n_opt == record.n_iterations
        assert best == pytest.approx(
            record.final_energy - h2.fci_energy, abs=1e-12
        )


class TestZneLinear:
    def test_exact_on_linear_model(self):
        e0, chi = -1.1, 40.0
        for p in (1e-4, 1e-3):
            for m in (2.0, 3.0, 5.0):
                mitigated = zne_linear(e0 + chi * p, e0 + chi * m * p, m)
                assert mitigated == pytest.approx(e0, abs=1e-12)

    def test_quadratic_bias(self):
        e0, chi, q, p = -1.1, 40.0, 500.0, 1e-3
        energy = lambda x: e0 + chi * x + q * x * x
        mitigated = zne_linear(energy(p), energy(3 * p), 3.0)
        assert mitigated - e0 == pytest.approx(-3 * q * p * p, rel=1e-9)

    def test_multiplier_validation(self):
        with pytest.raises(ConfigError):
            zne_linear(-1.0, -1.0, m=1.0)

    def test_reduces_real_noise_error(self, h2, qeb_h2):
        ansatz, params, hf, _ = qeb_h2
        p = 3e-4

        def energy(prob):
            state = run_circuit(
                hf, ansatz, params, noise=NoiseModel(prob, "gate_by_gate")
            )
            return expectation(h2.hamiltonian, state)

        clean = energy(0.0)
        raw = energy(p)
        mitigated = zne_linear(raw, energy(3 * p), 3.0)
        assert abs(mitigated - clean) < 0.1 * abs(raw - clean)


class TestPcScalingFit:
    def test_exact_inverse_scaling(self):
        reports = [make_report(n, 0.5) for n in (10, 20, 50, 100, 200)]
        fit = pc_scaling_fit(reports)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.n_points == 5
        assert fit.delta_e_min == fit.delta_e_max == 0.5

    def test_intercept_recovers_constant(self):
        delta_e = 0.5
        reports = [make_report(n, delta_e) for n in (10, 20, 50, 100, 200)]
        fit = pc_scaling_fit(reports)
        assert 10 ** fit.intercept == pytest.approx(
            CHEMICAL_ACCURACY / delta_e, rel=1e-9
        )

    def test_insufficient_reports(self):
        with pytest.raises(ConfigError):
            pc_scaling_fit([make_report(10, 0.5)])

    def test_narrow_span_rejected(self):
        reports = [make_report(n, 0.5) for n in (10, 12, 14, 16, 18)]
        with pytest.raises(ConfigError):
            pc_scaling_fit(reports)

    def test_nonpositive_chi_rejected(self):
        reports = [make_report(n, 0.5) for n in (10, 20, 50, 100)]
        reports.append(make_report(200, -0.5))
        with pytest.raises(ConfigError):
            pc_scaling_fit(reports)


class TestSweepCrossingPc:
    def test_recovers_linear_crossing(self):
        residual, chi = 2e-4, 10.0
        true_pc = (CHEMICAL_ACCURACY - residual) / chi
        found = sweep_crossing_pc(
            lambda p: residual + chi * p, np.logspace(-7, -1, 13)
        )
        assert found == pytest.approx(true_pc, rel=0.05)

    def test_all_above_threshold(self):
        assert sweep_crossing_pc(
            lambda p: 1.0, np.logspace(-6, -2, 5)
        ) is None

    def test_never_crossing_returns_last(self):
        grid = np.logspace(-6, -2, 5)
        assert sweep_crossing_pc(lambda p: 0.0, grid) == grid[-1]

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            sweep_crossing_pc(lambda p: 0.0, [1e-3, 1e-4])
        with pytest.raises(ConfigError):
            sweep_crossing_pc(lambda p: 0.0, [])
        with pytest.raises(ConfigError):
            sweep_crossing_pc(lambda p: 0.0, [0.0, 1e-3])
