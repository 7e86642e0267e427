"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the package's bitmask Pauli algebra
and Jordan-Wigner pipeline: matrices are built from explicit Kronecker
products and occupation-basis ladder actions so that agreement between
the two routes is meaningful evidence.
"""

import numpy as np

PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_pauli(paulis: dict, n_qubits: int) -> np.ndarray:
    """Dense matrix of a Pauli string via Kronecker products.

    Qubit 0 is the least significant bit, so it sits rightmost in the
    Kronecker chain.
    """
    m = np.eye(1, dtype=complex)
    for q in reversed(range(n_qubits)):
        m = np.kron(m, PAULI_2X2[paulis.get(q, "I")])
    return m


def random_density(n_qubits: int, seed: int) -> np.ndarray:
    """A random full-rank density matrix: A A+ normalized to unit trace."""
    rng = np.random.default_rng(seed)
    dim = 1 << n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def qubit_operator_matrix(op) -> np.ndarray:
    """Dense matrix of a QubitOperator, term by term via kron_pauli."""
    dim = 1 << op.n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for ps, coeff in op.terms.items():
        m += coeff * kron_pauli(ps.paulis, op.n_qubits)
    return m


def ladder_matrix(orbital: int, dagger: bool, n_spin_orbitals: int) -> np.ndarray:
    """Dense occupation-basis matrix of a_i or a_i^dag.

    The fermionic sign is (-1) to the number of occupied spin-orbitals
    below ``orbital``, matching a Jordan-Wigner chain over r < i.
    """
    dim = 1 << n_spin_orbitals
    m = np.zeros((dim, dim))
    bit = 1 << orbital
    low = bit - 1
    for j in range(dim):
        occupied = bool(j & bit)
        if dagger == occupied:
            continue
        sign = -1.0 if bin(j & low).count("1") % 2 else 1.0
        m[j ^ bit, j] = sign
    return m


def apply_ladder_product(product, j: int) -> tuple[float, int] | None:
    """Apply a ladder product (leftmost factor last) to basis state j.

    Returns ``(sign, j')`` or None when the product annihilates |j>.
    """
    sign = 1.0
    for orbital, dagger in reversed(product):
        bit = 1 << orbital
        occupied = bool(j & bit)
        if dagger == occupied:
            return None
        if bin(j & (bit - 1)).count("1") % 2:
            sign = -sign
        j ^= bit
    return sign, j


def fermion_operator_matrix(op, n_spin_orbitals: int) -> np.ndarray:
    """Dense occupation-basis matrix of a FermionOperator."""
    dim = 1 << n_spin_orbitals
    m = np.zeros((dim, dim), dtype=complex)
    for coeff, product in op.terms:
        for j in range(dim):
            hit = apply_ladder_product(product, j)
            if hit is not None:
                sign, j2 = hit
                m[j2, j] += coeff * sign
    return m


def molecular_hamiltonian_matrix(ints) -> np.ndarray:
    """Occupation-basis Hamiltonian matrix straight from the integrals.

    Uses the spin-summed excitation generators E_pq = sum_s a+_ps a_qs and
    H = sum h_pq E_pq + 1/2 sum (pq|rs) (E_pq E_rs - delta_qr E_ps), a
    different assembly route from the package's explicit four-ladder
    expansion. Interleaved spin layout: spatial p -> spin-orbitals 2p, 2p+1.
    The core energy is NOT included.
    """
    n = ints.n_spatial_orbitals
    n_so = 2 * n
    dim = 1 << n_so
    e_pq = np.empty((n, n, dim, dim))
    for p in range(n):
        for q in range(n):
            e_pq[p, q] = sum(
                ladder_matrix(2 * p + sp, True, n_so)
                @ ladder_matrix(2 * q + sp, False, n_so)
                for sp in (0, 1)
            )
    h = np.zeros((dim, dim))
    for p in range(n):
        for q in range(n):
            if abs(ints.one_body[p, q]) > 1e-14:
                h += ints.one_body[p, q] * e_pq[p, q]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    v = ints.two_body[p, q, r, s]
                    if abs(v) < 1e-14:
                        continue
                    h += 0.5 * v * (e_pq[p, q] @ e_pq[r, s])
                    if q == r:
                        h -= 0.5 * v * e_pq[p, s]
    return h


def _oracle_1q_matrix(gate) -> np.ndarray:
    """2x2 gate matrices written out independently of the package."""
    import math

    if gate.kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if gate.kind in ("v", "vdg"):
        sign = 1.0 if gate.kind == "v" else -1.0
        a = sign * math.pi / 2
        return np.array(
            [[math.cos(a / 2), -1j * math.sin(a / 2)],
             [-1j * math.sin(a / 2), math.cos(a / 2)]]
        )
    c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
    if gate.axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if gate.axis == "Y":
        return np.array([[c, -s], [s, c]])
    if gate.axis == "Z":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
    raise ValueError(f"unknown gate {gate}")


def gate_unitary(gate, n_qubits: int) -> np.ndarray:
    """Dense unitary of one gate via explicit basis bookkeeping."""
    dim = 1 << n_qubits
    if gate.kind == "cnot":
        control, target = gate.qubits
        u = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            k = j ^ (1 << target) if (j >> control) & 1 else j
            u[k, j] = 1.0
        return u
    m = _oracle_1q_matrix(gate)
    q = gate.qubits[0]
    u = np.eye(1, dtype=complex)
    for pos in reversed(range(n_qubits)):
        u = np.kron(u, m if pos == q else np.eye(2, dtype=complex))
    return u


def circuit_unitary(gates, n_qubits: int) -> np.ndarray:
    """Unitary of a gate list (first gate applied first)."""
    u = np.eye(1 << n_qubits, dtype=complex)
    for g in gates:
        u = gate_unitary(g, n_qubits) @ u
    return u


def element_unitary_expm(element, theta: float) -> np.ndarray:
    """exp(theta T) by dense scipy matrix exponential."""
    import scipy.linalg

    return scipy.linalg.expm(theta * qubit_operator_matrix(element.generator))


def depolarizing_oracle(
    rho: np.ndarray, qubit: int, p: float, n_qubits: int
) -> np.ndarray:
    """One-qubit depolarizing channel as an explicit Kraus sum."""
    out = (1.0 - p) * rho
    for axis in "XYZ":
        m = kron_pauli({qubit: axis}, n_qubits)
        out = out + (p / 3.0) * (m @ rho @ m)
    return out


def occupation_basis_ci(ints) -> float:
    """Ground-state total energy by occupation-basis diagonalization.

    Never touches Pauli algebra or the package's Hamiltonian assembly;
    diagonalizes with scipy for solver independence from the package's
    numpy route.
    """
    import scipy.linalg

    h = molecular_hamiltonian_matrix(ints)
    evals = scipy.linalg.eigh(h, eigvals_only=True)
    return float(evals[0]) + ints.core_energy


def occupation_basis_extremes(ints) -> tuple[float, float]:
    """Lowest and highest total energies of the full Fock-space matrix."""
    import scipy.linalg

    h = molecular_hamiltonian_matrix(ints)
    evals = scipy.linalg.eigh(h, eigvals_only=True)
    return float(evals[0]) + ints.core_energy, float(evals[-1]) + ints.core_energy


def susceptibility_oracle(gates, slots, n_qubits, h_matrix, reference):
    """Single-Pauli energy shifts replayed with dense matrices.

    ``slots`` lists (gate index, qubit, count): sigma acts on ``qubit``
    right after ``gates[index]`` and the rest of the circuit follows; the
    three shifts of a slot repeat for ``count`` positions. Returns
    (position, qubit, sigma, shift) tuples in slot order.
    """
    units = [circuit_unitary([gate], n_qubits) for gate in gates]
    # heads[i]: the state right after gates[i]; tails[i]: every later gate
    heads, tails = [], [None] * len(gates)
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[reference] = 1.0
    for u in units:
        psi = u @ psi
        heads.append(psi)
    tail = np.eye(1 << n_qubits, dtype=complex)
    for i in reversed(range(len(gates))):
        tails[i] = tail
        tail = tail @ units[i]
    e_clean = np.vdot(psi, h_matrix @ psi).real
    out = []
    for index, qubit, count in slots:
        shifts = []
        for sigma in "XYZ":
            phi = tails[index] @ (
                kron_pauli({qubit: sigma}, n_qubits) @ heads[index]
            )
            shifts.append(np.vdot(phi, h_matrix @ phi).real - e_clean)
        for _ in range(count):
            position = len(out) // 3
            out.extend(
                (position, qubit, sigma, shift)
                for sigma, shift in zip("XYZ", shifts)
            )
    return out
