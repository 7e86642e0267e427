"""Noise susceptibility, critical-error estimation, sweeps, and mitigation.

The susceptibility chi of a circuit is the first-order response of its
energy to the per-CNOT depolarizing probability: insert one Pauli after
one CNOT, finish the circuit, and average the energy fluctuations over
the three Paulis and all CNOT positions (delta_E); then
chi = delta_E x N_II with N_II the CNOT count. ``pauli_transfer``
builds the circuit's steps for either scheme (``circuit_steps``): Pauli
rotations (a term or an element) with slots before and after them, a
gate_by_gate slot's Pauli moved to its term's boundary. Every slot is
scored in one forward and one backward pass on the noiseless circuit's
Pauli coefficients, one product per slot boundary
(``pauli_transfer.slot_shifts``): no perturbed state is ever evolved and
no gate is applied.

Everything else here builds on that response: the maximally allowed gate
error p_c for chemical accuracy, accuracy sweeps over (p, ansatz length),
optimal truncation, linear zero-noise extrapolation, and the scaling fit
of p_c against circuit size. Noisy sweep cells and the density-derivative
cross-check of chi run on Pauli-transfer coefficients
(``pauli_transfer.noisy_energy``), whose terms use the same slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Callable, Sequence

import numpy as np

from .ansatz import Ansatz
from .exceptions import ConfigError, DimensionError, VqeNoiseError
from .operators import QubitOperator, expectation
from .pauli_transfer import circuit_steps, noisy_energy, slot_shifts
from .simulator import SCHEMES, check_circuit, run_circuit

# Energy-accuracy target: chemical accuracy, in Hartree.
CHEMICAL_ACCURACY = 1.6e-3
# Relative bracket width at which the grid-crossing bisection stops.
CROSSING_TOLERANCE = 0.05
# Step of chi's cross-check by finite differences of grid energies.
DERIVATIVE_STEP = 1e-6

SIGMAS = ("X", "Y", "Z")


@dataclass(frozen=True, eq=False)
class SusceptibilityReport:
    """Linear noise response of one compiled circuit.

    ``fluctuations`` holds one entry per (CNOT position r, target qubit,
    sigma): the energy shift E_perturbed - E_U from inserting that Pauli
    after that CNOT. ``delta_e_defined`` is False for zero-CNOT circuits,
    where the average fluctuation has no meaning and chi is zero.
    """

    chi: float
    delta_e: float
    n_ii: int
    e_unperturbed: float
    fluctuations: tuple[tuple[int, int, str, float], ...] = field(repr=False)
    delta_e_defined: bool = True

    def __post_init__(self):
        if self.n_ii < 0:
            raise ConfigError(f"negative CNOT count {self.n_ii}")
        if self.delta_e_defined:
            if len(self.fluctuations) != 3 * self.n_ii:
                raise DimensionError(
                    f"{len(self.fluctuations)} fluctuations for "
                    f"{self.n_ii} CNOTs"
                )
            if self.chi != self.delta_e * self.n_ii:
                raise ConfigError("chi must equal delta_e * n_ii exactly")
        elif self.chi != 0.0:
            raise ConfigError("undefined delta_e requires chi = 0")


@dataclass(frozen=True)
class PcEstimate:
    """Maximally allowed gate-error probability for chemical accuracy.

    ``unreachable`` marks circuits whose noiseless residual already
    exceeds the accuracy target; ``chi_flagged`` marks a non-positive
    susceptibility (noise lowers the energy), where the linear model
    cannot produce a finite crossing and p_c is clamped.
    """

    p_c: float
    chi: float
    residual: float
    unreachable: bool = False
    chi_flagged: bool = False


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Energy accuracy Delta E on a (p, ansatz length) grid. Plain data
    that pickles, so grid workers return their cells as one-row tables."""

    p_values: tuple[float, ...]
    lengths: tuple[int, ...]
    delta_e: np.ndarray

    def __post_init__(self):
        if not self.p_values or not self.lengths:
            raise ConfigError("sweep table needs at least one row and column")
        if list(self.p_values) != sorted(self.p_values):
            raise ConfigError("p grid must be sorted ascending")
        if self.delta_e.shape != (len(self.p_values), len(self.lengths)):
            raise DimensionError(
                f"grid shape {self.delta_e.shape} does not match "
                f"{len(self.p_values)} probabilities x "
                f"{len(self.lengths)} lengths"
            )


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log10 p_c against log10 N_II."""

    slope: float
    intercept: float
    n_points: int
    delta_e_min: float
    delta_e_max: float


def noise_susceptibility(
    ansatz: Ansatz,
    params,
    h: QubitOperator,
    reference: int,
    scheme: str = "gate_by_gate",
    n_qubits: int | None = None,
) -> SusceptibilityReport:
    """Linear noise response of an ansatz circuit at fixed parameters.

    The gate_by_gate scheme perturbs after every CNOT of the compiled
    staircase, each slot moved to its Pauli term's boundary;
    element_by_element perturbs at that scheme's channel slots after each
    element instead (``pauli_transfer.circuit_steps``). Both score every
    slot in one forward and one backward pass on Pauli coefficients
    (``pauli_transfer.slot_shifts``).
    """
    params, n = check_circuit(ansatz, params, n_qubits)
    steps = circuit_steps(ansatz, params, scheme)
    e_unperturbed, shifts = slot_shifts(reference, steps, h, n)
    slots = [slot for _, before, after in steps for slot in (*before, *after)]
    # one (qubit, slot) per CNOT position: a slot stands for count channels
    positions = [(qubit, i) for i, (qubit, count, _) in enumerate(slots)
                 for _ in range(count)]
    fluctuations = [
        (position, qubit, sigma, shift)
        for position, (qubit, i) in enumerate(positions)
        for sigma, shift in zip(SIGMAS, shifts[i].tolist())
    ]
    n_ii = len(positions)
    # zero-CNOT circuits: delta_E is undefined and chi is zero
    delta_e = float(np.mean([f[3] for f in fluctuations])) if n_ii else 0.0
    return SusceptibilityReport(
        chi=delta_e * n_ii, delta_e=delta_e, n_ii=n_ii,
        e_unperturbed=e_unperturbed, fluctuations=tuple(fluctuations),
        delta_e_defined=n_ii > 0,
    )


def chi_from_density_derivative(
    ansatz: Ansatz,
    params,
    h: QubitOperator,
    reference: int,
    scheme: str = "gate_by_gate",
    n_qubits: int | None = None,
) -> float:
    """dE/dp at p = 0 from symmetric noisy runs (``noisy_energy``).

    Each channel is linear in p, so evaluating at p = -DERIVATIVE_STEP is a
    legitimate analytic continuation; this is the cross-check that the
    adjoint pass of ``noise_susceptibility`` must reproduce.
    """
    plus, minus = (
        noisy_energy(reference, ansatz, params, h, signed, scheme, n_qubits)
        for signed in (DERIVATIVE_STEP, -DERIVATIVE_STEP)
    )
    return (plus - minus) / (2.0 * DERIVATIVE_STEP)


def estimate_pc(
    report: SusceptibilityReport, residual_accuracy: float
) -> PcEstimate:
    """Invert the linear response for the accuracy-crossing probability.

    p_c = (chemical accuracy - noiseless residual) / chi, clamped to
    [0, 1]; flagged unreachable when the residual alone exceeds the
    target, and chi_flagged when the response is non-positive.
    """
    chi = report.chi
    if residual_accuracy >= CHEMICAL_ACCURACY:
        return PcEstimate(
            p_c=0.0, chi=chi, residual=residual_accuracy,
            unreachable=True, chi_flagged=chi <= 0.0,
        )
    if chi <= 0.0:
        # noise does not push the energy out of the accuracy band under
        # the linear model; report the raw chi and clamp
        return PcEstimate(
            p_c=1.0, chi=chi, residual=residual_accuracy, chi_flagged=True,
        )
    p_c = (CHEMICAL_ACCURACY - residual_accuracy) / chi
    return PcEstimate(
        p_c=float(min(max(p_c, 0.0), 1.0)), chi=chi,
        residual=residual_accuracy,
    )


def sweep_noise(
    prefixes: Sequence[tuple[int, Ansatz, np.ndarray]],
    h: QubitOperator,
    p_values: Sequence[float],
    reference: int,
    fci_energy: float,
    scheme: str = "gate_by_gate",
    n_qubits: int | None = None,
) -> SweepTable:
    """Delta E(p, n) over every circuit prefix and probability.

    Grid cells are independent; this sequential reference implementation
    fixes the cell semantics that parallel runners must reproduce. A p = 0
    cell runs the state-vector backend; a p > 0 cell runs
    ``noisy_energy`` on Pauli coefficients, which agrees with the dense
    density-matrix run to rounding but builds none, so only its memory
    charge limits the register.
    """
    p_values = tuple(float(p) for p in p_values)
    if not all(0.0 <= p <= 1.0 for p in p_values):  # NaN fails too
        raise ConfigError("p_values must lie in [0, 1]")
    if list(p_values) != sorted(p_values):
        raise ConfigError("p_values must be sorted ascending")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown noise scheme {scheme!r}")
    if not prefixes:
        raise ConfigError("no circuit prefixes to sweep")
    grid = np.zeros((len(p_values), len(prefixes)))
    for column, (length, ansatz, params) in enumerate(prefixes):
        for row, p in enumerate(p_values):
            try:
                if p > 0.0:
                    energy = noisy_energy(reference, ansatz, params, h, p,
                                          scheme, n_qubits=n_qubits)
                else:
                    energy = expectation(h, run_circuit(
                        reference, ansatz, params, n_qubits=n_qubits,
                    ))
                grid[row, column] = energy - fci_energy
            except VqeNoiseError as err:
                raise type(err)(f"p={p}, n={length}: {err}") from err
    return SweepTable(
        p_values=p_values,
        lengths=tuple(length for length, _, _ in prefixes),
        delta_e=grid,
    )


def optimal_truncation(table: SweepTable) -> list[tuple[float, int, float]]:
    """Best ansatz length per probability: argmin over the row.

    Ties resolve to the smallest length (argmin takes the first hit on
    the ascending length axis).
    """
    out = []
    for row, p in enumerate(table.p_values):
        best = int(np.argmin(table.delta_e[row]))
        out.append((p, table.lengths[best], float(table.delta_e[row, best])))
    return out


def zne_linear(e_at_p: float, e_at_mp: float, m: float) -> float:
    """Linear zero-noise extrapolation from E(p) and E(m p)."""
    if m <= 1.0:
        raise ConfigError(f"noise multiplier m must exceed 1, got {m}")
    return (m * e_at_p - e_at_mp) / (m - 1.0)


def pc_scaling_fit(reports: Sequence[SusceptibilityReport]) -> ScalingFit:
    """Slope of log10 p_c against log10 N_II across circuits.

    p_c here is the pure linear-response crossing chemical_accuracy/chi,
    so the fit isolates how the response grows with circuit size; the
    delta_e extremes document that the average fluctuation stays O(1).
    """
    if len(reports) < 5:
        raise ConfigError(
            f"scaling fit needs at least 5 reports, got {len(reports)}"
        )
    sizes = []
    crossings = []
    deltas = []
    for report in reports:
        if not report.delta_e_defined or report.n_ii <= 0:
            raise ConfigError("scaling fit needs circuits with CNOTs")
        if report.chi <= 0.0:
            raise ConfigError(
                "scaling fit needs positive susceptibilities; "
                f"got chi = {report.chi:.3e}"
            )
        sizes.append(report.n_ii)
        crossings.append(CHEMICAL_ACCURACY / report.chi)
        deltas.append(report.delta_e)
    span = max(sizes) / min(sizes)
    if span < 10.0:
        raise ConfigError(
            f"N_II range spans only {span:.2f}x; need at least one decade"
        )
    slope, intercept = np.polyfit(np.log10(sizes), np.log10(crossings), 1)
    return ScalingFit(
        slope=float(slope), intercept=float(intercept),
        n_points=len(reports),
        delta_e_min=float(min(deltas)), delta_e_max=float(max(deltas)),
    )


def sweep_crossing_pc(
    evaluate: Callable[[float], float],
    p_values: Sequence[float],
) -> float | None:
    """Largest probability keeping Delta E within chemical accuracy.

    Scans the ascending grid for the last compliant point, then bisects
    in log space against the first non-compliant neighbour until the
    bracket is tighter than CROSSING_TOLERANCE. Returns None when even
    the smallest grid point violates the target, and the last grid point
    when nothing violates it.
    """
    p_values = [float(p) for p in p_values]
    if list(p_values) != sorted(p_values) or not p_values:
        raise ConfigError("p grid must be nonempty and sorted ascending")
    if any(p <= 0.0 for p in p_values):
        raise ConfigError("crossing search needs strictly positive p")
    values = [evaluate(p) for p in p_values]
    compliant = [i for i, v in enumerate(values) if v <= CHEMICAL_ACCURACY]
    if not compliant:
        return None
    last = compliant[-1]
    if last == len(p_values) - 1:
        return p_values[-1]
    low, high = p_values[last], p_values[last + 1]
    while high / low > 1.0 + CROSSING_TOLERANCE:
        mid = sqrt(low * high)
        if evaluate(mid) <= CHEMICAL_ACCURACY:
            low = mid
        else:
            high = mid
    return low
