"""Operator pools and fixed ansaetze.

Three pools feed the adaptive growth loop: fermionic excitations (with
Jordan-Wigner Z-chains), qubit excitations (the same index structure
without Z-chains), and single Pauli-string generators over {X, Y} with
odd Y-parity. Fixed ansaetze (UCCSD, k-UpCCGSD) reuse the same element
type with a predetermined element order.

Every generator T is anti-Hermitian, so ansatz elements e^{theta T} are
unitary. In the Pauli basis T = sum_k i b_k P_k with real b_k; elements
store that term sequence in a deterministic order shared by the exact
evolution fast path and the staircase gate compiler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .exceptions import ConfigError, DimensionError
from .operators import (
    COEFF_TOL,
    FermionOperator,
    PauliString,
    QubitOperator,
    jordan_wigner,
)


def hartree_fock_index(n_electrons: int) -> int:
    """Basis index of the reference determinant: the lowest n_electrons
    spin-orbitals occupied (interleaved spin layout, qubit 0 = LSB)."""
    if n_electrons < 0:
        raise ConfigError(f"negative electron count {n_electrons}")
    return (1 << n_electrons) - 1


def _term_sequence(
    generator: QubitOperator,
) -> tuple[tuple[PauliString, float], ...]:
    """Split T = sum_k i b_k P_k into a deterministically ordered list of
    (P_k, b_k) with real b_k; rejects non-anti-Hermitian input."""
    seq = []
    for ps, coeff in generator.terms.items():
        if abs(coeff.real) > 1e-10:
            raise ConfigError(
                f"generator term {ps.label} has real coefficient part "
                f"{coeff.real:.3e}; generators must be anti-Hermitian"
            )
        seq.append((ps, float(coeff.imag)))
    seq.sort(key=lambda t: (t[0].x_mask | t[0].z_mask, t[0].x_mask, t[0].z_mask))
    return tuple(seq)


def _staircase_schedule(
    seq: tuple[tuple[PauliString, float], ...]
) -> tuple[tuple[int, int], ...]:
    """CNOT-target counts of the staircase decomposition.

    Each weight-w term contributes a ladder and its inverse: every support
    qubit except the lowest is a CNOT target exactly twice.
    """
    counts: dict[int, int] = {}
    for ps, _ in seq:
        support = sorted(ps.paulis)
        for q in support[1:]:
            counts[q] = counts.get(q, 0) + 2
    return tuple(sorted(counts.items()))


@dataclass(frozen=True, eq=False)
class AnsatzElement:
    """One pool operator with its term sequence and CNOT accounting, both
    derived from the generator.

    ``cnot_schedule`` lists (qubit, count) pairs: how often each qubit is
    a CNOT target in the staircase decomposition of this element. The
    element-by-element noise scheme applies one depolarizing channel per
    scheduled count.
    """

    generator: QubitOperator
    label: str
    cnot_schedule: tuple[tuple[int, int], ...] = field(init=False)
    terms: tuple[tuple[PauliString, float], ...] = field(init=False, repr=False)

    def __post_init__(self):
        seq = _term_sequence(self.generator)
        if not seq:
            raise ConfigError(f"element {self.label!r} has a zero generator")
        object.__setattr__(self, "terms", seq)
        object.__setattr__(self, "cnot_schedule", _staircase_schedule(seq))

    @property
    def n_qubits(self) -> int:
        return self.generator.n_qubits

    @property
    def cnot_count(self) -> int:
        return sum(c for _, c in self.cnot_schedule)


@dataclass(frozen=True, eq=False)
class Pool:
    """A finite set of candidate generators for adaptive growth."""

    kind: str
    elements: tuple[AnsatzElement, ...]
    n_qubits: int
    n_electrons: int

    def __post_init__(self):
        if not self.elements:
            raise ConfigError(f"{self.kind} pool is empty")
        for e in self.elements:
            if e.n_qubits != self.n_qubits:
                raise DimensionError(
                    f"element {e.label!r} on {e.n_qubits} qubits in a "
                    f"{self.n_qubits}-qubit pool"
                )

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class Ansatz:
    """An ordered circuit of ansatz elements; one parameter each."""

    elements: tuple[AnsatzElement, ...] = ()

    @property
    def n_params(self) -> int:
        return len(self.elements)

    @property
    def n_qubits(self) -> int:
        if not self.elements:
            raise ConfigError("empty ansatz has no register size")
        return self.elements[0].n_qubits

    def append(self, element: AnsatzElement) -> "Ansatz":
        return Ansatz(self.elements + (element,))

    def prefix(self, n: int) -> "Ansatz":
        if not 0 <= n <= len(self.elements):
            raise ConfigError(
                f"prefix length {n} outside 0..{len(self.elements)}"
            )
        return Ansatz(self.elements[:n])

    @classmethod
    def from_elements(cls, elements) -> "Ansatz":
        return cls(tuple(elements))


def _check_counts(n_spin_orbitals: int, n_electrons: int):
    if not 0 < n_electrons < n_spin_orbitals:
        raise ConfigError(
            f"need 0 < n_electrons < n_spin_orbitals, got "
            f"{n_electrons}/{n_spin_orbitals}"
        )


def _excitation_indices(n_spin_orbitals: int, n_electrons: int):
    """Spin-conserving occupied->virtual index tuples for singles and
    doubles, lexicographically ordered (fixes downstream tie-breaking)."""
    occ = range(n_electrons)
    virt = range(n_electrons, n_spin_orbitals)
    singles = [
        (k, i) for k in occ for i in virt if k % 2 == i % 2
    ]
    doubles = []
    for k, l in itertools.combinations(occ, 2):
        for i, j in itertools.combinations(virt, 2):
            if sorted((k % 2, l % 2)) == sorted((i % 2, j % 2)):
                doubles.append((k, l, i, j))
    return singles, doubles


def build_fermionic_pool(n_spin_orbitals: int, n_electrons: int) -> Pool:
    """Anti-Hermitian fermionic excitations, Jordan-Wigner mapped.

    Singles T = a+_i a_k - a+_k a_i for occupied k to virtual i of equal
    spin; doubles T = a+_i a+_j a_k a_l - h.c. over spin-conserving
    occupied pairs (k, l) to virtual pairs (i, j).
    """
    _check_counts(n_spin_orbitals, n_electrons)
    singles, doubles = _excitation_indices(n_spin_orbitals, n_electrons)
    elements = []
    for k, i in singles:
        fop = FermionOperator([
            (1.0, ((i, True), (k, False))),
            (-1.0, ((k, True), (i, False))),
        ])
        elements.append(AnsatzElement(
            generator=jordan_wigner(fop, n_spin_orbitals),
            label=f"fermionic single {k}->{i}",
        ))
    for k, l, i, j in doubles:
        fop = FermionOperator([
            (1.0, ((i, True), (j, True), (k, False), (l, False))),
            (-1.0, ((l, True), (k, True), (j, False), (i, False))),
        ])
        elements.append(AnsatzElement(
            generator=jordan_wigner(fop, n_spin_orbitals),
            label=f"fermionic double ({k},{l})->({i},{j})",
        ))
    return Pool("fermionic", tuple(elements), n_spin_orbitals, n_electrons)


def _q_dagger(i: int, n: int) -> QubitOperator:
    """Qubit creation operator Q+_i = (X_i - iY_i)/2, no Z-chain."""
    return QubitOperator(n, {
        PauliString({i: "X"}, n): 0.5,
        PauliString({i: "Y"}, n): -0.5j,
    })


def _q(i: int, n: int) -> QubitOperator:
    return _q_dagger(i, n).dagger()


def build_qeb_pool(n_spin_orbitals: int, n_electrons: int) -> Pool:
    """Qubit-excitation pool: fermionic index structure, no Z-chains."""
    _check_counts(n_spin_orbitals, n_electrons)
    n = n_spin_orbitals
    singles, doubles = _excitation_indices(n_spin_orbitals, n_electrons)
    elements = []
    for k, i in singles:
        gen = _q_dagger(i, n) * _q(k, n) - _q_dagger(k, n) * _q(i, n)
        elements.append(AnsatzElement(
            generator=gen, label=f"qeb single {k}->{i}",
        ))
    for k, l, i, j in doubles:
        forward = _q_dagger(i, n) * _q_dagger(j, n) * _q(k, n) * _q(l, n)
        backward = _q_dagger(l, n) * _q_dagger(k, n) * _q(j, n) * _q(i, n)
        elements.append(AnsatzElement(
            generator=forward - backward,
            label=f"qeb double ({k},{l})->({i},{j})",
        ))
    return Pool("qeb", tuple(elements), n_spin_orbitals, n_electrons)


def build_qubit_pool(n_qubits: int, n_electrons: int = 0) -> Pool:
    """Single Pauli-string generators i*P with P over {X, Y}, weight 2 or
    4, odd Y-count (so each generator is anti-Hermitian and real-flipping).
    """
    if n_qubits < 2:
        raise ConfigError(f"qubit pool needs at least 2 qubits, got {n_qubits}")
    elements = []
    for weight in (2, 4):
        if weight > n_qubits:
            continue
        for support in itertools.combinations(range(n_qubits), weight):
            for axes in itertools.product("XY", repeat=weight):
                if axes.count("Y") % 2 == 0:
                    continue
                ps = PauliString(dict(zip(support, axes)), n_qubits)
                elements.append(AnsatzElement(
                    generator=QubitOperator.from_term(ps, 1j),
                    label=f"pauli {ps.label}",
                ))
    return Pool("qubit_pauli", tuple(elements), n_qubits, n_electrons)


POOL_BUILDERS = {
    "fermionic": build_fermionic_pool,
    "qeb": build_qeb_pool,
    "qubit_pauli": lambda n_so, n_e: build_qubit_pool(n_so, n_e),
}


def build_pool(kind: str, n_spin_orbitals: int, n_electrons: int) -> Pool:
    try:
        builder = POOL_BUILDERS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown pool kind {kind!r}; choose from {sorted(POOL_BUILDERS)}"
        ) from None
    return builder(n_spin_orbitals, n_electrons)


def build_uccsd(
    n_spin_orbitals: int, n_electrons: int, pool_kind: str = "fermionic"
) -> Ansatz:
    """Fixed ansatz with one element per excitation, singles before
    doubles in lexicographic index order, Trotter depth 1."""
    if pool_kind not in ("fermionic", "qeb"):
        raise ConfigError(
            f"UCCSD uses the fermionic or qeb pool, not {pool_kind!r}"
        )
    pool = build_pool(pool_kind, n_spin_orbitals, n_electrons)
    return Ansatz.from_elements(pool.elements)


def build_kupccgsd(n_spin_orbitals: int, n_electrons: int, k: int) -> Ansatz:
    """k repeated blocks of spin-adapted generalized singles plus paired
    doubles over spatial orbitals, independent parameters per block.

    A generalized single rotates both spin channels between spatial
    orbitals p and q; a paired double moves an opposite-spin pair between
    spatial orbitals.
    """
    if k < 1:
        raise ConfigError(f"repetition count k must be >= 1, got {k}")
    _check_counts(n_spin_orbitals, n_electrons)
    if n_spin_orbitals % 2:
        raise ConfigError(
            f"paired ansatz needs an even spin-orbital count, got {n_spin_orbitals}"
        )
    n_spatial = n_spin_orbitals // 2
    elements = []
    for block in range(k):
        for p, q in itertools.combinations(range(n_spatial), 2):
            fop = FermionOperator([])
            for sp in (0, 1):
                fop = fop + FermionOperator([
                    (1.0, ((2 * q + sp, True), (2 * p + sp, False))),
                    (-1.0, ((2 * p + sp, True), (2 * q + sp, False))),
                ])
            elements.append(AnsatzElement(
                generator=jordan_wigner(fop, n_spin_orbitals),
                label=f"upccgsd single {p}<->{q} block {block}",
            ))
        for p, q in itertools.combinations(range(n_spatial), 2):
            fop = FermionOperator([
                (1.0, ((2 * q, True), (2 * q + 1, True),
                       (2 * p + 1, False), (2 * p, False))),
                (-1.0, ((2 * p, True), (2 * p + 1, True),
                        (2 * q + 1, False), (2 * q, False))),
            ])
            elements.append(AnsatzElement(
                generator=jordan_wigner(fop, n_spin_orbitals),
                label=f"upccgsd pair {p}<->{q} block {block}",
            ))
    return Ansatz.from_elements(elements)
