"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the package's bitmask Pauli algebra
and Jordan-Wigner pipeline: matrices are built from explicit Kronecker
products and occupation-basis ladder actions so that agreement between
the two routes is meaningful evidence. The exceptions are bit-level
references, slower routes through the package's own algebra that a fast
path must match exactly (``jordan_wigner_by_sums``).
"""

import math

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


def string_product(a, b):
    """``(phase, product)`` of two ``PauliString`` objects, from their
    Y counts: the string-level rule that ``operators._mask_product``
    reproduces on bare masks."""
    from vqenoise.operators import PauliString

    x3 = a.x_mask ^ b.x_mask
    z3 = a.z_mask ^ b.z_mask
    phase = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[
        (a.y_count + b.y_count - (x3 & z3).bit_count()) % 4]
    if (a.z_mask & b.x_mask).bit_count() & 1:
        phase = -phase
    return phase, PauliString.from_masks(x3, z3, a.n_qubits)


def product_by_strings(a, b):
    """``a * b`` for QubitOperators, one ``string_product`` per pair of
    terms, summed into a dict keyed on the product string: how the package
    multiplied before it worked on masks. The mask product must give the
    same terms, in the same order, with the same bits."""
    from vqenoise.operators import QubitOperator

    out = {}
    for pa, ca in a.terms.items():
        for pb, cb in b.terms.items():
            phase, prod = string_product(pa, pb)
            out[prod] = out.get(prod, 0.0) + ca * cb * phase
    return QubitOperator(a.n_qubits, out)


def jordan_wigner_by_sums(op, n_spin_orbitals: int):
    """``jordan_wigner`` as a sum of operators: each product's image is
    multiplied out ladder by ladder with ``product_by_strings`` and added
    with ``QubitOperator.__add__``, which rebuilds the sum. The package's
    in-place accumulation on masks must give the same terms, in the same
    order, with the same bits."""
    from vqenoise.operators import PauliString, QubitOperator

    def ladder(orbital, dagger):
        chain = (1 << orbital) - 1
        return QubitOperator(n_spin_orbitals, {
            PauliString.from_masks(1 << orbital, chain, n_spin_orbitals): 0.5,
            PauliString.from_masks(1 << orbital, chain | 1 << orbital,
                                   n_spin_orbitals): -0.5j if dagger else 0.5j,
        })

    total = QubitOperator.zero(n_spin_orbitals)
    for coeff, product in op.terms:
        term = QubitOperator.identity(n_spin_orbitals, coeff)
        for orbital, dagger in product:
            term = product_by_strings(term, ladder(orbital, dagger))
        total = total + term
    return total


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


def batched_susceptibility_oracle(ansatz, params, h, reference, scheme):
    """``noise_susceptibility`` by the batched state-vector engine that
    produced the chi goldens, kept with its arithmetic unchanged.

    The circuit walks as steps (rotations, before, after): rotations from
    ``pauli_rotations`` and channel slots whose three strings P act on
    the clean state before or after them, each shift repeated count
    times. Every P psi is a row of a (k, 2^n) block of at most max(2^n,
    one step's rows) that crosses later rotations; before a step that
    would overflow it, the block is carried to the end, scored with the
    dense matrix of H and dropped.
    """
    from vqenoise.analysis import SIGMAS, SusceptibilityReport
    from vqenoise.exceptions import DimensionError, NumericIntegrityError
    from vqenoise.operators import (
        IMAG_TOL, PauliString, expectation, pauli_action,
    )
    from vqenoise.pauli_transfer import channel_slot, term_slots
    from vqenoise.simulator import (
        QuantumState, apply_rotations_to_rows, check_circuit, pauli_rotations,
    )

    params, n_qubits = check_circuit(ansatz, params)
    pairs = list(zip(ansatz.elements, params.tolist()))
    if scheme == "gate_by_gate":
        steps = [(pauli_rotations([term], theta), *term_slots(term[0]))
                 for element, theta in pairs for term in element.terms]
    else:
        steps = [(pauli_rotations(element.terms, theta), [],
                  [channel_slot(q, count) for q, count in element.cnot_schedule])
                 for element, theta in pairs]
    if h.n_qubits != n_qubits:
        raise DimensionError(
            f"hamiltonian on {h.n_qubits} qubits, circuit on {n_qubits}"
        )
    dim = 1 << n_qubits
    state = QuantumState.from_basis_index(reference, n_qubits)
    sizes = [3 * (len(before) + len(after)) for _, before, after in steps]
    cap = min(max([dim] + sizes), sum(sizes))
    chunk = max(1, (1 << 13) // dim)  # rows per gather: 128 KiB stays in cache
    block = np.empty((cap, dim), dtype=complex)
    gathered = np.empty((chunk, dim), dtype=complex)  # the gathers' scratch
    # one (qubit, index of its X row among all rows) per CNOT position
    positions, energies, used = [], [], 0

    def perturb(qubit, count, masks):
        nonlocal used
        positions.extend([(qubit, len(energies) + used)] * count)
        for x, z in masks:
            ps = PauliString.from_masks(x, z, n_qubits)
            targets, phases = pauli_action(ps)
            np.multiply(phases[targets], state.data[targets], out=block[used])
            used += 1

    def carry(rows, rotations, score=False):
        """Evolve rows through rotations, a chunk at a time; score them."""
        for low in range(0, len(rows), chunk):
            part = rows[low:low + chunk]
            apply_rotations_to_rows(part, rotations, gathered[:len(part)])
            if score:
                # <H r|r> is the conjugate of <r|H|r>: conjugate H r in place
                h_part = h.matrix() @ part.T
                values = np.einsum(
                    "ik,ki->k", np.conjugate(h_part, out=h_part), part
                )
                if np.abs(values.imag).max() > IMAG_TOL:
                    raise NumericIntegrityError(
                        "perturbed energy has imaginary residue"
                    )
                energies.extend(values.real.tolist())

    for index, (rotations, before, after) in enumerate(steps):
        if used + sizes[index] > cap:
            later = [rotation for step in steps[index:] for rotation in step[0]]
            carry(block[:used], later, score=True)
            used = 0
        for slot in before:
            perturb(*slot)
        carry(block[:used], rotations)
        carry(state.data[None], rotations)
        for slot in after:
            perturb(*slot)
    carry(block[:used], [], score=True)
    e_unperturbed = expectation(h, state)

    fluctuations = [
        (position, qubit, sigma, energies[row + j] - e_unperturbed)
        for position, (qubit, row) in enumerate(positions)
        for j, sigma in enumerate(SIGMAS)
    ]
    n_ii = len(positions)
    delta_e = float(np.mean([f[3] for f in fluctuations])) if n_ii else 0.0
    return SusceptibilityReport(
        chi=delta_e * n_ii, delta_e=delta_e, n_ii=n_ii,
        e_unperturbed=e_unperturbed, fluctuations=tuple(fluctuations),
        delta_e_defined=n_ii > 0,
    )


# The allocating gate, channel and element kernels that ``simulator``'s
# in-place ones replaced, kept verbatim: the in-place kernels must equal
# them bit for bit (np.array_equal), not just to a tolerance.


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


def apply_gate_kernel_oracle(state, gate):
    """Apply one gate in place: |psi> <- G|psi> or rho <- G rho G+."""
    n = state.n_qubits
    if not state.is_density:
        apply_gate_to_rows_kernel_oracle(state.data[None], gate)
    elif gate.is_cnot:
        perm = _cnot_permutation(n, *gate.qubits)
        state.data = np.ascontiguousarray(state.data[np.ix_(perm, perm)])
    else:
        m = gate.matrix_1q()
        _apply_1q_left(state.data, m, gate.qubits[0])
        # the low n bits of rho's flat index are the bra (column) index
        _apply_1q_left(state.data.reshape(-1), m.conj(), gate.qubits[0])
    return state


def apply_gate_to_rows_kernel_oracle(rows: np.ndarray, gate):
    """Apply one gate in place to each row of a C-contiguous (k, 2^n) block
    of state vectors."""
    if gate.is_cnot:
        n = rows.shape[1].bit_length() - 1
        rows[...] = rows[:, _cnot_permutation(n, *gate.qubits)]
    else:  # a row's qubit bits are the low bits of its flat indices
        _apply_1q_left(rows.reshape(-1), gate.matrix_1q(), gate.qubits[0])


def depolarize_kernel_oracle(data: np.ndarray, n_qubits: int, qubit: int, p: float):
    """Twirl-identity channel update without validation."""
    low = 1 << qubit
    high = 1 << (n_qubits - qubit - 1)
    r = data.reshape(high, 2, low, high, 2, low)
    reduced = r[:, 0, :, :, 0, :] + r[:, 1, :, :, 1, :]
    r *= 1.0 - 4.0 * p / 3.0
    r[:, 0, :, :, 0, :] += (2.0 * p / 3.0) * reduced
    r[:, 1, :, :, 1, :] += (2.0 * p / 3.0) * reduced


def apply_element_kernel_oracle(state, element, theta: float):
    """Exact evolution under U = exp(theta T): U on every column (the rows
    of rho.T), then U* on every row."""
    from vqenoise.simulator import apply_rotations_to_rows, pauli_rotations

    rotations = pauli_rotations(element.terms, theta)
    scratch = np.empty_like(state.data)
    if state.is_density:
        apply_rotations_to_rows(state.data.T, rotations, scratch.T)
        rotations = [(t, c, phased.conj()) for t, c, phased in rotations]
    apply_rotations_to_rows(state.data, rotations, scratch)
    return state


def _three_array_codes(x_mask, z_mask, n_qubits, staircase):
    """A term's codes over the codes of R's masks on P's support, as the
    grid kernel first kept them: e, and for a staircase with channel slots
    the slot counts s_a and s_b as separate uint8 arrays."""
    from vqenoise.pauli_transfer import (
        _pack, _scaled, _slot_bits, _term_slots,
    )

    support = x_mask | z_mask
    masks = np.arange(support + 1)
    masks = masks[(masks & ~support) == 0]
    count = np.bitwise_count
    e = count(masks[:, None] & masks)
    e -= count((masks[:, None] ^ z_mask) & (masks ^ x_mask))
    y_p = (x_mask & z_mask).bit_count()
    e += (1 + y_p + 2 * count(masks & x_mask))[:, None]
    e &= 3
    if not staircase or support.bit_count() < 2:
        return e[None]
    pre, post = _term_slots(x_mask, z_mask, n_qubits)
    (pre_cols, pre_rows), (post_cols, post_rows) = (
        _slot_bits(masks, slots) for slots in (pre, post))
    post_cols, post_rows = (v << 2 * len(pre) for v in (post_cols, post_rows))
    index = np.arange(len(masks))
    partner_cols = pre_cols[index ^ _pack(x_mask, support)]
    partner_rows = pre_rows[index ^ _pack(z_mask, support)]
    return np.stack([
        e, _scaled(pre_cols | post_cols, pre_rows | post_rows),
        _scaled(partner_cols | post_cols, partner_rows | post_rows),
    ])


def grid_charge(n_qubits, strings, peak_bytes, code_limit):
    """The bytes that a Pauli-grid run over ``strings`` states to the
    memory guard, from its sizes alone, with d the dimension of the span
    of the x masks (found by enumerating the span): ``peak_bytes`` per
    entry of the 2^n x 2^d grid and per support code of the heaviest
    string, 8 B per grid entry for the flat positions, 8 (2^n + 2^d) for
    the grid and per distinct support, and 2 * 4^w per distinct string,
    in all at most ``code_limit``, the bytes the code cache keeps."""
    span = {0}
    for ps in strings:
        if ps.x_mask not in span:
            span |= {x ^ ps.x_mask for x in span}
    masks = {(ps.x_mask, ps.z_mask) for ps in strings}
    supports = {x | z for x, z in masks}
    entries = len(span) << n_qubits
    weight = max(support.bit_count() for support in supports)
    return (peak_bytes * (entries + 4**weight) + 8 * entries
            + 8 * (2**n_qubits + len(span)) * (1 + len(supports))
            + min(sum(2 * 4 ** (x | z).bit_count() for x, z in masks),
                  code_limit))


def apply_term_oracle(r, grid, ps, phi, lam, staircase):
    """diag(f_post) R_P(phi) diag(f_pre) r on one Pauli grid, returned as a
    new array, as the grid kernel first computed it: gather keys broadcast
    from the register and the column range, three code arrays, and factors
    taken from the rotation and then multiplied by the powers of lam. The
    kernel must equal it bit for bit."""
    e, *scaled = _three_array_codes(ps.x_mask, ps.z_mask, ps.n_qubits,
                                    staircase)
    cos, sin = math.cos(2.0 * phi), math.sin(2.0 * phi)
    a = np.array([cos, 1.0, cos, 1.0]).take(e)
    b = np.array([sin, 0.0, -sin, 0.0]).take(e)
    if scaled:
        powers = lam ** np.arange(2 * ps.weight - 1)
        a *= powers.take(scaled[0])
        b *= powers.take(scaled[1])
    rows, cols = grid.codes(ps.x_mask | ps.z_mask)
    columns = np.arange(len(grid.table))
    index = ((grid.register ^ ps.z_mask)[:, None] * len(grid.table)
             | columns ^ grid.coordinate[ps.x_mask])
    partner = r.take(index) * b.take(cols, axis=1).take(rows, axis=0)
    return r * a.take(cols, axis=1).take(rows, axis=0) + partner


def pauli_coefficients(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """r_k = Tr(P_k rho) for k = x | z << n, with P_k the Kronecker product
    of X (x bit), Z (z bit) or Y (both) on each qubit."""
    dim = 1 << n_qubits
    axes = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    out = np.empty(dim * dim)
    for k in range(dim * dim):
        x, z = k % dim, k // dim
        paulis = {q: axes[(x >> q) & 1, (z >> q) & 1] for q in range(n_qubits)}
        value = np.einsum("ij,ji->", kron_pauli(paulis, n_qubits), rho)
        assert abs(value.imag) < 1e-12
        out[k] = value.real
    return out


def dense_noisy_energy(reference, ansatz, params, h, noise, n_qubits=None):
    """The noisy circuit energy on the dense density matrix:
    ``expectation`` of ``run_circuit`` with noise, the objective noisy
    optimization and screening used before they ran on Pauli-transfer
    coefficients."""
    from vqenoise.operators import expectation
    from vqenoise.simulator import run_circuit

    return expectation(h, run_circuit(reference, ansatz, params, noise=noise,
                                      n_qubits=n_qubits))


def dense_noisy_adapt_oracle(problem, config):
    """Noisy ADAPT growth with every energy on the dense density matrix:
    finite-difference pool gradients, trial circuits screened and the
    whole circuit re-optimized on ``dense_noisy_energy``. Returns the
    accepted labels and energies; a stall or the halting rule ends it."""
    from vqenoise.adapt import (
        STALL_TOL, bfgs_minimize, finite_difference_pool_gradients,
        nelder_mead,
    )
    from vqenoise.ansatz import Ansatz, build_pool, hartree_fock_index
    from vqenoise.simulator import run_circuit

    minimize = {"bfgs": bfgs_minimize, "nelder_mead": nelder_mead}[
        config.optimizer]
    pool = build_pool(config.pool_kind, problem.n_qubits, problem.n_electrons)
    reference = hartree_fock_index(problem.n_electrons)
    h, n, noise = problem.hamiltonian, problem.n_qubits, config.noise

    def energy(ansatz, params):
        return dense_noisy_energy(reference, ansatz, params, h, noise, n)

    ansatz, params = Ansatz(), np.zeros(0)
    current = energy(ansatz, params)
    labels, energies = [], []
    for _ in range(config.max_iterations):
        state = run_circuit(reference, ansatz, params, noise=noise, n_qubits=n)
        grads = np.abs(finite_difference_pool_gradients(state, h, pool, noise))
        if grads.max() < STALL_TOL \
                or np.linalg.norm(grads) <= config.eps_opt:
            break
        if config.rule == "gradient":
            chosen = int(np.argmax(grads))
        else:
            best = np.inf
            for index in np.argsort(-grads, kind="stable")[
                    :config.subpool_size].tolist():
                trial = ansatz.append(pool.elements[index])
                screened = minimize(
                    lambda theta, trial=trial: energy(
                        trial, np.append(params, theta)),
                    np.zeros(1), grad_tol=config.eps_opt).energy
                if screened < best:
                    best, chosen = screened, index
        trial = ansatz.append(pool.elements[chosen])
        result = minimize(lambda x, trial=trial: energy(trial, x),
                          np.append(params, 0.0), grad_tol=config.eps_opt)
        if current - result.energy <= config.eps_halt:
            break
        ansatz, params, current = trial, result.x, result.energy
        labels.append(pool.elements[chosen].label)
        energies.append(float(current))
    return labels, energies
