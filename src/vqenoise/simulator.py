"""Dual-backend quantum register with depolarizing noise.

Noiseless runs use a state-vector backend; noisy runs use
a dense density matrix, which evolves through the same state-vector
kernels: rho <- U rho U+ takes U on every column of rho and U* on every
row. Gates and channels work in place on rho's flat index (row bits above
column bits) through scratch the caller owns, bit-identical to the
allocating forms the tests keep as oracles; a CNOT swaps the target-bit
halves where the control bit is 1. Ansatz elements evolve either exactly
(rotations applied by the one row kernel ``apply_rotations_to_rows``: a
Givens rotation per compiled run for state vectors and the adjoint
gradient in ``adapt``, a rotation per Pauli term for density matrices)
or through their staircase gate decomposition; the two agree because
every bundled generator has mutually commuting terms, which the test
suite verifies against dense matrix exponentials.

Depolarizing noise attaches to CNOT target qubits only. The gate-by-gate
scheme applies the channel after every CNOT of the compiled circuit; the
element-by-element scheme applies the exact element unitary first and
then one channel per scheduled CNOT target. The dense density matrix
serves noisy ADAPT's finite-difference pool gradients and direct
``run_circuit`` calls, and is the oracle of
``pauli_transfer.noisy_energy``, which runs noisy Delta E grids and noisy
ADAPT's optimizer and energy-rule screening on Pauli coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz, AnsatzElement
from .exceptions import ConfigError, DimensionError, NumericIntegrityError
from .operators import PauliString, check_memory, pauli_action

# Norm/trace drift beyond this aborts instead of silently renormalizing.
DRIFT_TOL = 1e-8
# ``QuantumState.validate``: norm/trace and Hermiticity tolerance.
VALIDATE_TOL = 1e-10
# Peak live 4^n complex arrays of a density-matrix run, rounded up from the
# 6.1 traced (H4) beside a held state, each with its scratch: pool gradients.
DENSITY_PEAK_COPIES = 8

_SQ2 = 1.0 / math.sqrt(2.0)
_H_MATRIX = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)


class QuantumState:
    """A register state: 1-D amplitudes or a 2-D density matrix.

    Mutable and single-owner; gate application works in place. The
    ``data`` attribute is the raw numpy array.
    """

    __slots__ = ("n_qubits", "data", "_scratch")

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
        self._scratch = None

    def __reduce__(self):
        return QuantumState, (self.n_qubits, self.data)

    def scratch(self) -> np.ndarray:
        """The kernels' flat work array of ``data.size`` entries, made on
        first use; it is never copied or pickled."""
        if self._scratch is None:
            self._scratch = np.empty(self.data.size, dtype=complex)
        return self._scratch

    @classmethod
    def from_basis_index(
        cls, index: int, n_qubits: int, density: bool = False
    ) -> "QuantumState":
        """Basis state ``index``; with ``density``, a density matrix once
        ``check_memory`` admits DENSITY_PEAK_COPIES complex 4^n arrays."""
        dim = 1 << n_qubits
        if not 0 <= index < dim:
            raise DimensionError(
                f"basis index {index} outside register of {n_qubits} qubits"
            )
        if density:
            check_memory(n_qubits, DENSITY_PEAK_COPIES * 16 * 4 ** n_qubits)
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

    def validate(self) -> "QuantumState":
        """Full invariant check (norm/trace, Hermiticity, positivity)."""
        if not abs(self.weight - 1.0) <= VALIDATE_TOL:  # NaN fails too
            kind = "density trace" if self.is_density else "vector norm"
            raise NumericIntegrityError(f"{kind} {self.weight} != 1")
        if not self.is_density:
            return self
        if not np.abs(self.data - self.data.conj().T).max() <= VALIDATE_TOL:
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


def _apply_1q(flat: np.ndarray, m: np.ndarray, bit: int, scratch: np.ndarray):
    """flat <- (M on index bit ``bit``) flat, in place, bit-identical to
    m[i, 0] x0 + m[i, 1] x1 less its products by zero entries (Rz) and H's
    repeated one. Products keep m first (x *= m swaps the operands, which
    fused multiply-adds round differently) and, but for Rz, go to
    contiguous scratch: strided ufunc outputs run slower."""
    x0, x1 = flat.reshape(-1, 2, 1 << bit).transpose(1, 0, 2)
    a, b = scratch[:flat.size].reshape(2, *x0.shape)
    if m[0, 1] == 0 == m[1, 0]:  # Rz
        np.multiply(m[0, 0], x0, out=x0)
        np.multiply(m[1, 1], x1, out=x1)
        return
    np.multiply(m[0, 0], x0, out=a)
    np.multiply(m[0, 1], x1, out=b)
    if m[1, 0] == m[0, 0] and m[1, 1] == -m[0, 1]:  # H
        np.add(a, b, out=x0)
        np.subtract(a, b, out=x1)
        return
    a += b
    np.multiply(m[1, 0], x0, out=b)
    x0[...] = a
    np.multiply(m[1, 1], x1, out=a)
    b += a
    x1[...] = b


def _apply_cnot(flat: np.ndarray, control: int, target: int, scratch: np.ndarray):
    """CNOT on flat index bits, in place: swap the ``target`` halves
    wherever ``control`` is 1."""
    lo, hi = sorted((control, target))
    v = flat.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    x0, x1 = (v[:, 1, :, t] if control > target else v[:, t, :, 1] for t in (0, 1))
    held = scratch[:x0.size].reshape(x0.shape)
    held[...] = x0
    x0[...] = x1
    x1[...] = held


def apply_gate(state: QuantumState, gate: GateOp) -> QuantumState:
    """Apply one gate in place: |psi> <- G|psi> or rho <- G rho G+."""
    n = state.n_qubits
    for q in gate.qubits:
        if not 0 <= q < n:
            raise DimensionError(f"gate qubit {q} outside register of {n} qubits")
    # a vector's qubit bits are its flat index; rho's is row << n | column
    flat, scratch = state.data.reshape(-1), state.scratch()
    if gate.is_cnot:
        control, target = gate.qubits
        if state.is_density:
            _apply_cnot(flat, control + n, target + n, scratch)
        _apply_cnot(flat, control, target, scratch)
    else:
        m, q = gate.matrix_1q(), gate.qubits[0]
        if state.is_density:
            _apply_1q(flat, m, q + n, scratch)
            m = m.conj()
        _apply_1q(flat, m, q, scratch)
    return state


def _depolarize_core(state: QuantumState, qubit: int, p: float):
    """Twirl-identity channel update; the callers validate p."""
    low = 1 << qubit
    high = 1 << (state.n_qubits - qubit - 1)
    r = state.data.reshape(high, 2, low, high, 2, low)
    r00, r11 = r[:, 0, :, :, 0, :], r[:, 1, :, :, 1, :]
    mixed = np.add(r00, r11, out=state.scratch()[:r00.size].reshape(r00.shape))
    np.multiply(2.0 * p / 3.0, mixed, out=mixed)
    r *= 1.0 - 4.0 * p / 3.0
    r00 += mixed
    r11 += mixed


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
    _depolarize_core(state, qubit, p)
    return state


def pauli_rotations(terms, theta: float) -> list:
    """(targets, cos, i sin * phases[targets]) per nonzero-angle term of
    exp(theta T), for density matrices: term exp(i b theta P) is
    cos(b theta) + i sin(b theta) P, exact in stored order as terms commute."""
    rotations = []
    for ps, b in terms:
        phi = b * theta
        if phi != 0.0:
            targets, phases = pauli_action(ps)
            rotations.append(
                (targets, math.cos(phi), 1j * math.sin(phi) * phases[targets])
            )
    return rotations


def givens_rotations(element: AnsatzElement, theta: float) -> list:
    """(targets, cos, sin * g / |g|) per run of ``element.runs()``, none at
    theta = 0: a run's T is anti-Hermitian, so T^2 = -|g|^2 and exp(theta T)
    psi = cos(theta |g|) psi + sin(theta |g|) g / |g| psi[j ^ m]."""
    if theta == 0.0:
        return []
    rotations = []
    for targets, modulus, unit in element.runs():
        phi = theta * modulus
        rotations.append((targets, np.cos(phi), np.sin(phi) * unit))
    return rotations


def apply_rotations_to_rows(rows: np.ndarray, rotations, scratch: np.ndarray):
    """Apply ``pauli_rotations`` or ``givens_rotations`` in order, in place,
    to each row of a (k, 2^n) block of state vectors, or to one 2^n vector;
    ``scratch`` has the shape of ``rows``."""
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

    A vector is one row, through ``givens_rotations``; a density matrix takes
    U on every column (the rows of rho.T), then U* on every row, term by term.
    """
    if element.n_qubits != state.n_qubits:
        raise DimensionError(
            f"element on {element.n_qubits} qubits, state on {state.n_qubits}"
        )
    rotations = (pauli_rotations(element.terms, theta) if state.is_density
                 else givens_rotations(element, theta))
    data, scratch = state.data, state.scratch().reshape(state.data.shape)
    if state.is_density:
        for targets, c, phased in rotations:  # whole rows of rho at a time
            data.take(targets, axis=0, out=scratch, mode="clip")
            scratch *= phased[:, None]
            data *= c
            data += scratch
        rotations = [(t, c, phased.conj()) for t, c, phased in rotations]
    apply_rotations_to_rows(data, rotations, scratch)
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


def apply_noisy_element(
    state: QuantumState, element: AnsatzElement, theta: float, noise: NoiseModel
) -> QuantumState:
    """Apply one ansatz element under the configured noise scheme: its
    staircase gates with a channel on every CNOT target, or its exact
    unitary and then one channel per scheduled CNOT target.

    Noiseless requests fall back to exact evolution on either backend.
    """
    if not noise.is_noisy:
        return apply_element(state, element, theta)
    if not state.is_density:
        raise ConfigError(
            "noisy element application needs the density backend"
        )
    if noise.scheme == "gate_by_gate":
        for gate in compile_element(element, theta):
            apply_gate(state, gate)
            if gate.is_cnot:
                _depolarize_core(state, gate.qubits[1], noise.p)
    else:
        apply_element(state, element, theta)
        for qubit, count in element.cnot_schedule:
            for _ in range(count):
                _depolarize_core(state, qubit, noise.p)
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


def run_circuit(
    initial: int,
    ansatz: Ansatz,
    params,
    noise: NoiseModel = NOISELESS,
    n_qubits: int | None = None,
) -> QuantumState:
    """Evolve the reference determinant through the ansatz.

    Noiseless requests run on the vector backend with exact element
    evolution. With noise, gate_by_gate compiles to the staircase and
    depolarizes every CNOT target; element_by_element applies exact
    element unitaries and then the per-element CNOT-target schedule, on a
    density matrix that ``QuantumState.from_basis_index`` admits by its
    memory charge alone.
    """
    params, n = check_circuit(ansatz, params, n_qubits)
    state = QuantumState.from_basis_index(initial, n, density=noise.is_noisy)
    for element, theta in zip(ansatz.elements, params):
        if noise.is_noisy:
            apply_noisy_element(state, element, float(theta), noise)
        else:
            apply_element(state, element, float(theta))
    return state.check_weight()
