"""Dual-backend quantum register with depolarizing noise.

Noiseless and perturbation runs use a state-vector backend; noisy runs use
a dense density matrix, which evolves through the same state-vector
kernels: rho <- U rho U+ takes U on every column of rho and U* on every
row. Ansatz elements evolve either exactly (each Pauli term of the
generator applied as a cosine/sine rotation by the one kernel
``apply_rotations_to_rows``, which ``apply_element`` and the
susceptibility engine in ``analysis`` share) or through their staircase
gate decomposition; the two agree because every bundled generator has
mutually commuting terms, which the test suite verifies against dense
matrix exponentials.

Depolarizing noise attaches to CNOT target qubits only. The gate-by-gate
scheme applies the channel after every CNOT of the compiled circuit; the
element-by-element scheme applies the exact element unitary first and
then one channel per scheduled CNOT target.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz, AnsatzElement
from .exceptions import (
    ConfigError,
    DimensionError,
    NumericIntegrityError,
    ResourceLimitError,
)
from .operators import PauliString, pauli_action

# Density-matrix register ceiling: default and the absolute cap.
DENSITY_LIMIT_DEFAULT = 12
DENSITY_LIMIT_HARD = 14
# Norm/trace drift beyond this aborts instead of silently renormalizing.
DRIFT_TOL = 1e-8
# Peak live 4^n complex arrays of a density-matrix run, rounded up from the
# 5.1 traced (H4) beside a held state: a trial copy's element, pool gradients.
DENSITY_PEAK_COPIES = 8

_SQ2 = 1.0 / math.sqrt(2.0)
_H_MATRIX = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)


class QuantumState:
    """A register state: 1-D amplitudes or a 2-D density matrix.

    Mutable and single-owner; gate application works in place. The
    ``data`` attribute is the raw numpy array.
    """

    __slots__ = ("n_qubits", "data")

    def __init__(self, n_qubits: int, data: np.ndarray):
        dim = 1 << n_qubits
        # contiguity keeps the in-place reshape tricks in gate kernels valid
        arr = np.ascontiguousarray(data, dtype=complex)
        if arr.shape not in ((dim,), (dim, dim)):
            raise DimensionError(
                f"state shape {arr.shape} does not fit {n_qubits} qubits"
            )
        self.n_qubits = n_qubits
        self.data = arr

    @classmethod
    def from_basis_index(
        cls, index: int, n_qubits: int, density: bool = False
    ) -> "QuantumState":
        dim = 1 << n_qubits
        if not 0 <= index < dim:
            raise DimensionError(
                f"basis index {index} outside register of {n_qubits} qubits"
            )
        if density:
            _check_density_memory(n_qubits)
            data = np.zeros((dim, dim), dtype=complex)
            data[index, index] = 1.0
        else:
            data = np.zeros(dim, dtype=complex)
            data[index] = 1.0
        return cls(n_qubits, data)

    @property
    def is_density(self) -> bool:
        return self.data.ndim == 2

    def copy(self) -> "QuantumState":
        return QuantumState(self.n_qubits, self.data.copy())

    def to_density(self) -> "QuantumState":
        if self.is_density:
            return self.copy()
        return QuantumState(self.n_qubits, np.outer(self.data, self.data.conj()))

    @property
    def weight(self) -> float:
        """Norm (vector) or trace (density); 1 for a healthy state."""
        if self.is_density:
            return float(np.trace(self.data).real)
        return float(np.linalg.norm(self.data))

    def check_weight(self) -> "QuantumState":
        drift = abs(self.weight - 1.0)
        if not drift <= DRIFT_TOL:  # NaN fails too
            kind = "trace" if self.is_density else "norm"
            raise NumericIntegrityError(
                f"state {kind} drifted by {drift:.3e}; renormalization is "
                "never applied silently"
            )
        return self

    def validate(self, atol: float = 1e-10) -> "QuantumState":
        """Full invariant check (norm/trace, Hermiticity, positivity)."""
        if not abs(self.weight - 1.0) <= atol:  # NaN fails too
            kind = "density trace" if self.is_density else "vector norm"
            raise NumericIntegrityError(f"{kind} {self.weight} != 1")
        if not self.is_density:
            return self
        if not np.abs(self.data - self.data.conj().T).max() <= atol:
            raise NumericIntegrityError("density matrix is not Hermitian")
        min_eig = float(np.linalg.eigvalsh(self.data)[0])
        if not min_eig >= -1e-9:
            raise NumericIntegrityError(f"negative eigenvalue {min_eig:.3e}")
        return self


@dataclass(frozen=True)
class GateOp:
    """One primitive gate: cnot, rot (axis rotation), h, or the Y-basis
    change cliffords v = Rx(pi/2) and vdg = Rx(-pi/2)."""

    kind: str
    qubits: tuple[int, ...]
    axis: str = ""
    angle: float = 0.0

    def __post_init__(self):
        if self.kind == "cnot":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ConfigError(f"cnot needs two distinct qubits, got {self.qubits}")
        elif self.kind == "rot":
            if len(self.qubits) != 1 or self.axis not in ("X", "Y", "Z"):
                raise ConfigError(f"bad rotation gate {self}")
        elif self.kind in ("h", "v", "vdg"):
            if len(self.qubits) != 1:
                raise ConfigError(f"{self.kind} is a single-qubit gate")
        else:
            raise ConfigError(f"unknown gate kind {self.kind!r}")

    @classmethod
    def cnot(cls, control: int, target: int) -> "GateOp":
        return cls("cnot", (control, target))

    @classmethod
    def rotation(cls, axis: str, angle: float, qubit: int) -> "GateOp":
        return cls("rot", (qubit,), axis, float(angle))

    @classmethod
    def hadamard(cls, qubit: int) -> "GateOp":
        return cls("h", (qubit,))

    @classmethod
    def v(cls, qubit: int) -> "GateOp":
        return cls("v", (qubit,))

    @classmethod
    def vdg(cls, qubit: int) -> "GateOp":
        return cls("vdg", (qubit,))

    @property
    def is_cnot(self) -> bool:
        return self.kind == "cnot"

    def matrix_1q(self) -> np.ndarray:
        if self.kind == "h":
            return _H_MATRIX
        half = {"v": math.pi / 4, "vdg": -math.pi / 4}.get(self.kind, self.angle / 2)
        c, s = math.cos(half), math.sin(half)
        if self.kind != "rot" or self.axis == "X":
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        if self.axis == "Y":
            return np.array([[c, -s], [s, c]], dtype=complex)
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=complex)


SCHEMES = ("gate_by_gate", "element_by_element")


@dataclass(frozen=True)
class NoiseModel:
    """Per-CNOT depolarizing probability and its application scheme."""

    p: float
    scheme: str = "gate_by_gate"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"gate-error probability {self.p} outside [0, 1]")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown noise scheme {self.scheme!r}")

    @property
    def is_noisy(self) -> bool:
        return self.p > 0.0


NOISELESS = NoiseModel(0.0)


def _apply_1q_left(arr: np.ndarray, m: np.ndarray, qubit: int):
    """arr <- (M on qubit) arr along the first index, in place.

    Requires a C-contiguous array so the reshape is a view.
    """
    low = 1 << qubit
    shaped = arr.reshape(-1, 2, low * (arr.size // arr.shape[0]))
    # shaped[:, b, :] groups first-axis indices with qubit bit b, carrying
    # lower bits and any trailing axes in the last dimension
    x0 = shaped[:, 0, :].copy()
    x1 = shaped[:, 1, :]
    shaped[:, 0, :] = m[0, 0] * x0 + m[0, 1] * x1
    shaped[:, 1, :] = m[1, 0] * x0 + m[1, 1] * x1


def _cnot_permutation(n_qubits: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    return idx ^ (((idx >> control) & 1) << target)


def apply_gate(state: QuantumState, gate: GateOp) -> QuantumState:
    """Apply one gate in place: |psi> <- G|psi> or rho <- G rho G+."""
    n = state.n_qubits
    for q in gate.qubits:
        if not 0 <= q < n:
            raise DimensionError(f"gate qubit {q} outside register of {n} qubits")
    if not state.is_density:
        apply_gate_to_rows(state.data[None], gate)
    elif gate.is_cnot:
        perm = _cnot_permutation(n, *gate.qubits)
        state.data = np.ascontiguousarray(state.data[np.ix_(perm, perm)])
    else:
        m = gate.matrix_1q()
        _apply_1q_left(state.data, m, gate.qubits[0])
        # the low n bits of rho's flat index are the bra (column) index
        _apply_1q_left(state.data.reshape(-1), m.conj(), gate.qubits[0])
    return state


def apply_gate_to_rows(rows: np.ndarray, gate: GateOp):
    """Apply one gate in place to each row of a C-contiguous (k, 2^n) block
    of state vectors."""
    if gate.is_cnot:
        n = rows.shape[1].bit_length() - 1
        rows[...] = rows[:, _cnot_permutation(n, *gate.qubits)]
    else:  # a row's qubit bits are the low bits of its flat indices
        _apply_1q_left(rows.reshape(-1), gate.matrix_1q(), gate.qubits[0])


def _depolarize_core(data: np.ndarray, n_qubits: int, qubit: int, p: float):
    """Twirl-identity channel update without validation.

    Algebraically valid for any real p, which linear-response probes use
    to take symmetric derivatives at p = 0.
    """
    low = 1 << qubit
    high = 1 << (n_qubits - qubit - 1)
    r = data.reshape(high, 2, low, high, 2, low)
    reduced = r[:, 0, :, :, 0, :] + r[:, 1, :, :, 1, :]
    r *= 1.0 - 4.0 * p / 3.0
    r[:, 0, :, :, 0, :] += (2.0 * p / 3.0) * reduced
    r[:, 1, :, :, 1, :] += (2.0 * p / 3.0) * reduced


def apply_depolarizing(state: QuantumState, qubit: int, p: float) -> QuantumState:
    """rho <- (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z) on one qubit.

    Implemented through the twirl identity: the channel equals
    (1 - 4p/3) rho + (4p/3) (I/2 tensor Tr_q rho).
    """
    if not state.is_density:
        raise ConfigError(
            "the depolarizing channel needs the density backend; "
            "vector states cannot host mixed output"
        )
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"depolarizing probability {p} outside [0, 1]")
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise DimensionError(f"qubit {qubit} outside register of {n} qubits")
    if p == 0.0:
        return state
    _depolarize_core(state.data, n, qubit, p)
    return state


def pauli_rotations(terms, theta: float) -> list:
    """(targets, cos, i sin * phases[targets]) per nonzero-angle term of
    exp(theta T): term exp(i b theta P) is cos(b theta) + i sin(b theta) P.
    Applying them in stored order is exact because the terms commute."""
    rotations = []
    for ps, b in terms:
        phi = b * theta
        if phi != 0.0:
            targets, phases = pauli_action(ps)
            rotations.append(
                (targets, math.cos(phi), 1j * math.sin(phi) * phases[targets])
            )
    return rotations


def apply_rotations_to_rows(rows: np.ndarray, rotations, scratch: np.ndarray):
    """Apply ``pauli_rotations`` in order, in place, to each row of a
    (k, 2^n) block of state vectors, or to one 2^n vector; ``scratch`` has
    the shape of ``rows``."""
    for targets, c, phased in rotations:
        # targets are always in range; "clip" skips take's buffered check
        rows.take(targets, axis=-1, out=scratch, mode="clip")
        scratch *= phased
        rows *= c
        rows += scratch


def apply_element(
    state: QuantumState, element: AnsatzElement, theta: float
) -> QuantumState:
    """Exact evolution under U = exp(theta T) by ``apply_rotations_to_rows``.

    A vector is one row; a density matrix takes U on every column (the
    rows of rho.T), then U* on every row: rho <- U rho U+.
    """
    if element.n_qubits != state.n_qubits:
        raise DimensionError(
            f"element on {element.n_qubits} qubits, state on {state.n_qubits}"
        )
    rotations = pauli_rotations(element.terms, theta)
    scratch = np.empty_like(state.data)
    if state.is_density:
        apply_rotations_to_rows(state.data.T, rotations, scratch.T)
        rotations = [(t, c, phased.conj()) for t, c, phased in rotations]
    apply_rotations_to_rows(state.data, rotations, scratch)
    return state


def compile_term(ps: PauliString, b: float, theta: float) -> list[GateOp]:
    """Staircase decomposition of one term exp(i b theta P) into gates.

    Basis changes (H for X, v for Y), a CNOT ladder onto the highest-index
    support qubit, Rz(-2 b theta) there, and the inverses. A weight-w term
    costs 2(w-1) CNOTs.
    """
    support = sorted(ps.paulis)
    axes = ps.paulis
    pre: list[GateOp] = []
    post: list[GateOp] = []
    for q in support:
        if axes[q] == "X":
            pre.append(GateOp.hadamard(q))
            post.append(GateOp.hadamard(q))
        elif axes[q] == "Y":
            pre.append(GateOp.v(q))
            post.append(GateOp.vdg(q))
    ladder = [
        GateOp.cnot(support[i], support[i + 1])
        for i in range(len(support) - 1)
    ]
    rotation = GateOp.rotation("Z", -2.0 * b * theta, support[-1])
    return pre + ladder + [rotation] + ladder[::-1] + post[::-1]


def compile_element(element: AnsatzElement, theta: float) -> list[GateOp]:
    """Staircase decomposition of exp(theta T): its terms in stored order."""
    return [g for ps, b in element.terms for g in compile_term(ps, b, theta)]


def _element_with_raw_probability(
    state: QuantumState, element: AnsatzElement, theta: float,
    p: float, scheme: str,
):
    """One element plus per-CNOT-target channels at unvalidated p."""
    if scheme == "gate_by_gate":
        for gate in compile_element(element, theta):
            apply_gate(state, gate)
            if gate.is_cnot:
                _depolarize_core(state.data, state.n_qubits, gate.qubits[1], p)
    elif scheme == "element_by_element":
        apply_element(state, element, theta)
        for qubit, count in element.cnot_schedule:
            for _ in range(count):
                _depolarize_core(state.data, state.n_qubits, qubit, p)
    else:
        raise ConfigError(f"unknown noise scheme {scheme!r}")


def apply_noisy_element(
    state: QuantumState, element: AnsatzElement, theta: float, noise: NoiseModel
) -> QuantumState:
    """Apply one ansatz element under the configured noise scheme.

    Noiseless requests fall back to exact evolution on either backend.
    """
    if not noise.is_noisy:
        return apply_element(state, element, theta)
    if not state.is_density:
        raise ConfigError(
            "noisy element application needs the density backend"
        )
    _element_with_raw_probability(
        state, element, theta, noise.p, noise.scheme
    )
    return state.check_weight()


def check_circuit(ansatz: Ansatz, params, n_qubits: int | None = None):
    """Finite float parameters (one per element) and register size (an
    empty ansatz needs ``n_qubits``) of a circuit request."""
    params = np.asarray(params, dtype=float)
    if params.shape != (ansatz.n_params,):
        raise DimensionError(
            f"{params.shape} parameters for {ansatz.n_params} elements"
        )
    if not np.all(np.isfinite(params)):
        raise ConfigError("circuit parameters must be finite")
    n = ansatz.n_qubits if ansatz.elements else n_qubits
    if n is None:
        raise ConfigError("empty ansatz needs an explicit n_qubits")
    return params, n


def compile_circuit(ansatz: Ansatz, params) -> list[GateOp]:
    """Gate list of the whole circuit, element order preserved."""
    params, _ = check_circuit(ansatz, params, n_qubits=0)  # gates need no register
    return [gate for element, theta in zip(ansatz.elements, params.tolist())
            for gate in compile_element(element, theta)]


def cnot_count(ansatz: Ansatz) -> int:
    """N_II: the number of noisy (two-qubit) gates in the circuit."""
    return sum(e.cnot_count for e in ansatz.elements)


def _check_density_memory(n_qubits: int):
    """Refuse, before allocating, a density-matrix run that would outgrow
    physical memory."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf reading
        return
    need = DENSITY_PEAK_COPIES * 16 * 4 ** n_qubits
    if need > have:
        raise ResourceLimitError(
            f"{n_qubits}-qubit density-matrix runs need about "
            f"{need / 2**30:.1f} GiB of {have / 2**30:.1f} GiB memory"
        )


def _check_density_limit(n_qubits: int, dense_limit: int):
    if dense_limit > DENSITY_LIMIT_HARD:
        raise ConfigError(
            f"density limit {dense_limit} exceeds the hard cap "
            f"{DENSITY_LIMIT_HARD}"
        )
    if n_qubits > dense_limit:
        raise ResourceLimitError(
            f"{n_qubits} qubits exceeds the density-matrix limit {dense_limit}"
        )


def run_circuit(
    initial: int,
    ansatz: Ansatz,
    params,
    noise: NoiseModel = NOISELESS,
    n_qubits: int | None = None,
    dense_limit: int = DENSITY_LIMIT_DEFAULT,
) -> QuantumState:
    """Evolve the reference determinant through the ansatz.

    Noiseless requests run on the vector backend with exact element
    evolution. With noise, gate_by_gate compiles to the staircase and
    depolarizes every CNOT target; element_by_element applies exact
    element unitaries and then the per-element CNOT-target schedule.
    """
    params, n = check_circuit(ansatz, params, n_qubits)
    if noise.is_noisy:
        _check_density_limit(n, dense_limit)
    state = QuantumState.from_basis_index(initial, n, density=noise.is_noisy)
    for element, theta in zip(ansatz.elements, params):
        apply_noisy_element(state, element, float(theta), noise)
    return state.check_weight()
