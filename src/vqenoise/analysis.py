"""Noise susceptibility, critical-error estimation, sweeps, and mitigation.

The susceptibility chi of a circuit is the first-order response of its
energy to the per-CNOT depolarizing probability: insert one Pauli after
one CNOT, finish the circuit, and average the energy fluctuations over
the three Paulis and all CNOT positions (delta_E); then
chi = delta_E x N_II with N_II the CNOT count. One batched engine serves
both noise schemes: a single pure-state pass writes the perturbed states
into row blocks of at most max(2^n, one element's rows) that cross later
terms and elements by exact evolution, which costs O(rows x later
elements) vectorised work instead of O(N_II x gates) Python gate calls.
That exact evolution is ``simulator.apply_rotations_to_rows``, the kernel
``apply_element`` also runs on a single state vector.

Everything else here builds on that response: the maximally allowed gate
error p_c for chemical accuracy, accuracy sweeps over (p, ansatz length),
optimal truncation, linear zero-noise extrapolation, and the scaling fit
of p_c against circuit size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .ansatz import Ansatz
from .exceptions import (
    ConfigError, DimensionError, NumericIntegrityError, VqeNoiseError,
)
from .operators import (
    IMAG_TOL, PauliString, QubitOperator, apply_operator, expectation,
    pauli_action,
)
from .simulator import (
    DENSITY_LIMIT_DEFAULT,
    GateOp,
    NoiseModel,
    QuantumState,
    _element_with_raw_probability,
    apply_gate,
    apply_gate_to_rows,
    apply_rotations_to_rows,
    check_circuit,
    compile_term,
    pauli_rotations,
    run_circuit,
)

# Energy-accuracy target: chemical accuracy, in Hartree.
CHEMICAL_ACCURACY = 1.6e-3
# Step for the density-matrix derivative cross-check of chi.
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
    """Energy accuracy Delta E on a (p, ansatz length) grid."""

    p_values: tuple[float, ...]
    lengths: tuple[int, ...]
    delta_e: np.ndarray
    metadata: Mapping[str, object] = field(default_factory=dict)

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
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log10 p_c against log10 N_II."""

    slope: float
    intercept: float
    n_points: int
    delta_e_min: float
    delta_e_max: float


def _susceptibility(steps, n_qubits, h, reference) -> SusceptibilityReport:
    """The batched engine behind both noise schemes.

    ``steps`` walks the circuit as (rotations, gates, schedule), the
    rotations from ``pauli_rotations``. With ``gates`` (gate_by_gate: one
    step per Pauli term; a bare gate list is a single step without
    rotations) the clean state advances gate by gate
    and every CNOT is a slot. Without, it advances by the exact evolution
    and each ``schedule`` entry (qubit, count) is a slot whose shifts
    repeat ``count`` times (element_by_element). Each slot writes sigma psi
    for X, Y, Z into a (k, 2^n) row block of at most max(2^n, one step's
    rows). Rows finish their own step gate by gate, then cross later steps
    by exact evolution; before a step that would overflow the block, the
    block is carried to the end of the circuit, scored and dropped.
    """
    if h.n_qubits != n_qubits:
        raise DimensionError(
            f"hamiltonian on {h.n_qubits} qubits, circuit on {n_qubits}"
        )
    dim = 1 << n_qubits
    state = QuantumState.from_basis_index(reference, n_qubits)
    sizes = [3 * (len(schedule) if gates is None
                  else sum(gate.is_cnot for gate in gates))
             for _, gates, schedule in steps]
    cap = min(max([dim] + sizes), sum(sizes))
    chunk = max(1, (1 << 13) // dim)  # rows per gather: 128 KiB stays in cache
    block = np.empty((cap, dim), dtype=complex)
    gathered = np.empty((chunk, dim), dtype=complex)
    paulis = {(q, sigma): pauli_action(PauliString({q: sigma}, n_qubits))
              for q in range(n_qubits) for sigma in SIGMAS}
    # one (qubit, index of its X row among all rows) per CNOT position
    positions, energies, used = [], [], 0

    def perturb(qubit, count):
        nonlocal used
        positions.extend([(qubit, len(energies) + used)] * count)
        for sigma in SIGMAS:
            targets, phases = paulis[qubit, sigma]
            np.multiply(phases[targets], state.data[targets], out=block[used])
            used += 1

    def carry(rows, rotations, score=False):
        """Evolve rows through rotations, a chunk at a time; score them."""
        for low in range(0, len(rows), chunk):
            part = rows[low:low + chunk]
            apply_rotations_to_rows(part, rotations, gathered[:len(part)])
            if score:
                # <H r|r> is the conjugate of <r|H|r>: conjugate H r in place
                h_part = apply_operator(h, part.T)
                values = np.einsum(
                    "ik,ki->k", np.conjugate(h_part, out=h_part), part
                )
                if np.abs(values.imag).max() > IMAG_TOL:
                    raise NumericIntegrityError(
                        "perturbed energy has imaginary residue"
                    )
                energies.extend(values.real.tolist())

    for index, (rotations, gates, schedule) in enumerate(steps):
        if used + sizes[index] > cap:
            later = [rotation for step in steps[index:] for rotation in step[0]]
            carry(block[:used], later, score=True)
            used = 0
        else:
            carry(block[:used], rotations)
        if gates is None:
            carry(state.data[None], rotations)
            for qubit, count in schedule:
                perturb(qubit, count)
            continue
        start = used
        for gate in gates:
            apply_gate(state, gate)
            if used > start:
                apply_gate_to_rows(block[start:used], gate)
            if gate.is_cnot:
                perturb(gate.qubits[1], 1)
    carry(block[:used], [], score=True)
    e_unperturbed = expectation(h, state)

    fluctuations = [
        (position, qubit, sigma, energies[row + j] - e_unperturbed)
        for position, (qubit, row) in enumerate(positions)
        for j, sigma in enumerate(SIGMAS)
    ]
    n_ii = len(positions)
    # zero-CNOT circuits: delta_E is undefined and chi is zero
    delta_e = float(np.mean([f[3] for f in fluctuations])) if n_ii else 0.0
    return SusceptibilityReport(
        chi=delta_e * n_ii, delta_e=delta_e, n_ii=n_ii,
        e_unperturbed=e_unperturbed, fluctuations=tuple(fluctuations),
        delta_e_defined=n_ii > 0,
    )


def gate_susceptibility(
    gates: Sequence[GateOp],
    n_qubits: int,
    h: QubitOperator,
    reference: int,
) -> SusceptibilityReport:
    """Susceptibility of an explicit gate list via pure-state runs.

    The list is one step of the batched engine: one pure-state pass fills
    a (3 N_II, 2^n) row block whose rows cross each later gate at once.
    """
    return _susceptibility([([], list(gates), None)], n_qubits, h, reference)


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
    staircase; element_by_element perturbs at that scheme's channel
    slots instead; both run through the one batched engine.
    """
    params, n = check_circuit(ansatz, params, n_qubits)
    pairs = list(zip(ansatz.elements, params.tolist()))
    if scheme == "gate_by_gate":
        steps = [(pauli_rotations([term], theta), compile_term(*term, theta), None)
                 for element, theta in pairs for term in element.terms]
    elif scheme == "element_by_element":
        steps = [(pauli_rotations(element.terms, theta), None,
                  element.cnot_schedule) for element, theta in pairs]
    else:
        raise ConfigError(f"unknown noise scheme {scheme!r}")
    return _susceptibility(steps, n, h, reference)


def chi_from_density_derivative(
    ansatz: Ansatz,
    params,
    h: QubitOperator,
    reference: int,
    scheme: str = "gate_by_gate",
    n_qubits: int | None = None,
) -> float:
    """dE/dp at p = 0 from symmetric density-matrix runs.

    The twirl form of the channel is linear in p, so evaluating at
    p = -DERIVATIVE_STEP is a legitimate analytic continuation; this is the
    cross-check that the pure-state susceptibility must reproduce.
    """
    params, n = check_circuit(ansatz, params, n_qubits)
    energies = []
    for signed in (DERIVATIVE_STEP, -DERIVATIVE_STEP):
        state = QuantumState.from_basis_index(reference, n, density=True)
        for element, theta in zip(ansatz.elements, params.tolist()):
            _element_with_raw_probability(state, element, theta, signed, scheme)
        energies.append(expectation(h, state))
    return (energies[0] - energies[1]) / (2.0 * DERIVATIVE_STEP)


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
    dense_limit: int = DENSITY_LIMIT_DEFAULT,
    metadata: Mapping[str, object] | None = None,
) -> SweepTable:
    """Delta E(p, n) over every circuit prefix and probability.

    Grid cells are independent; this sequential reference implementation
    fixes the cell semantics that parallel runners must reproduce.
    """
    p_values = tuple(float(p) for p in p_values)
    if list(p_values) != sorted(p_values):
        raise ConfigError("p_values must be sorted ascending")
    if any(p < 0.0 or p > 1.0 for p in p_values):
        raise ConfigError("p_values must lie in [0, 1]")
    if not prefixes:
        raise ConfigError("no circuit prefixes to sweep")
    grid = np.zeros((len(p_values), len(prefixes)))
    for column, (length, ansatz, params) in enumerate(prefixes):
        for row, p in enumerate(p_values):
            try:
                state = run_circuit(
                    reference, ansatz, params,
                    noise=NoiseModel(p, scheme),
                    n_qubits=n_qubits, dense_limit=dense_limit,
                )
                grid[row, column] = expectation(h, state) - fci_energy
            except VqeNoiseError as err:
                raise type(err)(f"p={p}, n={length}: {err}") from err
    table_metadata = dict(metadata or {})
    table_metadata.setdefault("scheme", scheme)
    return SweepTable(
        p_values=p_values,
        lengths=tuple(length for length, _, _ in prefixes),
        delta_e=grid,
        metadata=table_metadata,
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
    threshold: float = CHEMICAL_ACCURACY,
    relative_tolerance: float = 0.05,
) -> float | None:
    """Largest probability keeping Delta E within the threshold.

    Scans the ascending grid for the last compliant point, then bisects
    in log space against the first non-compliant neighbour until the
    bracket is tighter than the relative tolerance. Returns None when
    even the smallest grid point violates the threshold, and the last
    grid point when nothing violates it.
    """
    p_values = [float(p) for p in p_values]
    if list(p_values) != sorted(p_values) or not p_values:
        raise ConfigError("p grid must be nonempty and sorted ascending")
    if any(p <= 0.0 for p in p_values):
        raise ConfigError("crossing search needs strictly positive p")
    values = [evaluate(p) for p in p_values]
    compliant = [i for i, v in enumerate(values) if v <= threshold]
    if not compliant:
        return None
    last = compliant[-1]
    if last == len(p_values) - 1:
        return p_values[-1]
    low, high = p_values[last], p_values[last + 1]
    while high / low > 1.0 + relative_tolerance:
        mid = sqrt(low * high)
        if evaluate(mid) <= threshold:
            low = mid
        else:
            high = mid
    return low
