"""Pauli-string algebra, fermionic operators, Jordan-Wigner transform, exact
diagonalization, and the memory guard that charges every dense allocation.

A Pauli string is stored as a pair of bitmasks ``(x_mask, z_mask)``: bit q
of ``x_mask`` means an X factor on qubit q, bit q of ``z_mask`` a Z factor,
and both bits together a Y factor. The operator represented is

    i**y * X^x_mask * Z^z_mask,   y = popcount(x_mask & z_mask),

which makes every :class:`PauliString` self-adjoint. Qubit 0 is the least
significant bit of basis-state indices, and spin-orbital i maps to qubit i.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .exceptions import DimensionError, NumericIntegrityError, ResourceLimitError

# Terms with |coefficient| below this are dropped during simplification.
COEFF_TOL = 1e-12
# Largest imaginary residue tolerated when a real expectation is extracted.
IMAG_TOL = 1e-10
# Peak bytes per 4^n entry of ``exact_spectrum``: real branch 48 (matrix 16,
# eigh's copy 8, eigenvectors 8, dsyevd workspace 16), complex 80 (zheevd).
# Peak RSS above baseline at n = 10, 11, 12: 52.3, 49.9, 48.8 and 85.0, 82.1,
# 80.8; 7% and 13% margin. A real 14-qubit operator is charged 14 GiB.
SPECTRUM_REAL_BYTES = 56
SPECTRUM_COMPLEX_BYTES = 96
# Dense operator matrices are cached on the operator up to this register size.
MATRIX_CACHE_QUBITS = 10

_AXIS_TO_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_AXIS = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class PauliString:
    """Tensor product of single-qubit Pauli factors on a fixed register.

    Args:
        paulis: mapping from qubit index to one of ``"X"``, ``"Y"``, ``"Z"``.
            Qubits absent from the map carry the identity.
        n_qubits: register size; every index must be smaller than this.
    """

    # ``_action`` holds the (targets, phases) pair that ``pauli_action``
    # stores on first use; it is never pickled.
    __slots__ = ("n_qubits", "x_mask", "z_mask", "_action")

    def __init__(self, paulis: Mapping[int, str] | None, n_qubits: int):
        if n_qubits <= 0:
            raise DimensionError(f"register size must be positive, got {n_qubits}")
        x = z = 0
        for qubit, axis in (paulis or {}).items():
            if not 0 <= qubit < n_qubits:
                raise DimensionError(
                    f"qubit index {qubit} outside register of {n_qubits} qubits"
                )
            try:
                bx, bz = _AXIS_TO_BITS[axis]
            except KeyError:
                raise ValueError(f"unknown Pauli axis {axis!r}") from None
            x |= bx << qubit
            z |= bz << qubit
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "x_mask", x)
        object.__setattr__(self, "z_mask", z)
        object.__setattr__(self, "_action", None)

    @classmethod
    def from_masks(cls, x_mask: int, z_mask: int, n_qubits: int) -> "PauliString":
        if (x_mask | z_mask) >> n_qubits:
            raise DimensionError(
                f"mask touches qubits outside register of {n_qubits} qubits"
            )
        if n_qubits <= 0:
            raise DimensionError(f"register size must be positive, got {n_qubits}")
        ps = object.__new__(cls)
        object.__setattr__(ps, "n_qubits", n_qubits)
        object.__setattr__(ps, "x_mask", x_mask)
        object.__setattr__(ps, "z_mask", z_mask)
        object.__setattr__(ps, "_action", None)
        return ps

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(None, n_qubits)

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    def __getstate__(self):
        return (self.n_qubits, self.x_mask, self.z_mask)

    def __setstate__(self, state):
        # slots plus the immutability guard block pickle's default setattr
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_action", None)

    @property
    def paulis(self) -> dict[int, str]:
        """Qubit-to-axis map; identity factors are not stored."""
        out = {}
        support = self.x_mask | self.z_mask
        q = 0
        while support >> q:
            if (support >> q) & 1:
                bits = ((self.x_mask >> q) & 1, (self.z_mask >> q) & 1)
                out[q] = _BITS_TO_AXIS[bits]
            q += 1
        return out

    @property
    def weight(self) -> int:
        """Number of non-identity factors."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def is_identity(self) -> bool:
        return not (self.x_mask | self.z_mask)

    @property
    def label(self) -> str:
        if self.is_identity:
            return "I"
        return " ".join(f"{axis}{q}" for q, axis in sorted(self.paulis.items()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.n_qubits == other.n_qubits
            and self.x_mask == other.x_mask
            and self.z_mask == other.z_mask
        )

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.x_mask, self.z_mask))

    def __repr__(self) -> str:
        return f"PauliString({self.label!r}, n_qubits={self.n_qubits})"

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix of this string."""
        dim = 1 << self.n_qubits
        targets, phases = pauli_action(self)
        m = np.zeros((dim, dim), dtype=complex)
        m[targets, np.arange(dim)] = phases
        return m


def pauli_action(ps: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Describe the permutation-with-phase action of a Pauli string.

    Returns ``(targets, phases)`` such that ``P |k> = phases[k] |targets[k]>``
    for every basis index k. ``targets`` is the involution ``k ^ x_mask``.
    On registers of at most ``MATRIX_CACHE_QUBITS`` qubits the pair is
    built once, stored on the string and returned read-only after that.
    """
    if ps._action is not None:
        return ps._action
    action = _build_action(ps)
    if ps.n_qubits <= MATRIX_CACHE_QUBITS:
        for arr in action:
            arr.flags.writeable = False
        object.__setattr__(ps, "_action", action)
    return action


def _build_action(ps: PauliString) -> tuple[np.ndarray, np.ndarray]:
    dim = 1 << ps.n_qubits
    k = np.arange(dim, dtype=np.uint64)
    parity = np.bitwise_count(k & np.uint64(ps.z_mask)) & np.uint64(1)
    phases = np.where(parity == 1, -1.0 + 0.0j, 1.0 + 0.0j)
    phases *= _I_POWERS[ps.y_count % 4]
    return (k ^ np.uint64(ps.x_mask)).astype(np.intp), phases


def _mask_product(xa: int, za: int, xb: int, zb: int):
    """``(phase, x, z)`` with (masks xa, za) @ (masks xb, zb) equal to
    ``phase`` times the string with masks (x, z), phase in {+1, -1, +i, -i}."""
    x = xa ^ xb
    z = za ^ zb
    phase = _I_POWERS[((xa & za).bit_count() + (xb & zb).bit_count()
                       - (x & z).bit_count()) % 4]
    # moving Z factors of a past X factors of b contributes a sign
    if (za & xb).bit_count() & 1:
        phase = -phase
    return phase, x, z


def _multiply_sums(terms_a, terms_b) -> dict[tuple[int, int], complex]:
    """The product of two sums of ``((x, z), c)`` terms as ``{(x, z): c}``,
    keyed in order of first appearance and not simplified."""
    out: dict[tuple[int, int], complex] = {}
    for (xa, za), ca in terms_a:
        for (xb, zb), cb in terms_b:
            phase, x, z = _mask_product(xa, za, xb, zb)
            out[x, z] = out.get((x, z), 0.0) + ca * cb * phase
    return out


class QubitOperator:
    """Complex-weighted sum of Pauli strings on a common register.

    Simplification merges equal strings and drops coefficients below
    ``COEFF_TOL``. Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("n_qubits", "_terms", "_matrix")

    def __init__(
        self,
        n_qubits: int,
        terms: Mapping[PauliString, complex] | None = None,
    ):
        if n_qubits <= 0:
            raise DimensionError(f"register size must be positive, got {n_qubits}")
        clean: dict[PauliString, complex] = {}
        for ps, coeff in (terms or {}).items():
            if ps.n_qubits != n_qubits:
                raise DimensionError(
                    f"term on {ps.n_qubits} qubits in operator on {n_qubits}"
                )
            c = complex(coeff)
            if abs(c) >= COEFF_TOL:
                clean[ps] = c
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_matrix", None)

    def __setattr__(self, name, value):
        raise AttributeError("QubitOperator is immutable")

    def __getstate__(self):
        # the dense-matrix cache is rebuilt on demand, so skip it
        return (self.n_qubits, self._terms)

    def __setstate__(self, state):
        object.__setattr__(self, "n_qubits", state[0])
        object.__setattr__(self, "_terms", state[1])
        object.__setattr__(self, "_matrix", None)

    @classmethod
    def from_term(cls, ps: PauliString, coeff: complex = 1.0) -> "QubitOperator":
        return cls(ps.n_qubits, {ps: coeff})

    @classmethod
    def zero(cls, n_qubits: int) -> "QubitOperator":
        return cls(n_qubits, {})

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "QubitOperator":
        return cls(n_qubits, {PauliString.identity(n_qubits): coeff})

    @property
    def terms(self) -> Mapping[PauliString, complex]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_hermitian(self) -> bool:
        """Pauli strings are self-adjoint, so Hermitian means real weights."""
        return all(abs(c.imag) < COEFF_TOL for c in self._terms.values())

    def dagger(self) -> "QubitOperator":
        return QubitOperator(
            self.n_qubits, {ps: c.conjugate() for ps, c in self._terms.items()}
        )

    def _check_same_register(self, other: "QubitOperator"):
        if self.n_qubits != other.n_qubits:
            raise DimensionError(
                f"operators on {self.n_qubits} and {other.n_qubits} qubits"
            )

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        if not isinstance(other, QubitOperator):
            return NotImplemented
        self._check_same_register(other)
        merged = dict(self._terms)
        for ps, c in other._terms.items():
            merged[ps] = merged.get(ps, 0.0) + c
        return QubitOperator(self.n_qubits, merged)

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        if not isinstance(other, QubitOperator):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self) -> "QubitOperator":
        return (-1.0) * self

    def __mul__(self, other):
        """The operator product, summed on the terms' (x, z) masks with one
        ``PauliString`` built per distinct product, or a scaled copy."""
        if isinstance(other, QubitOperator):
            self._check_same_register(other)
            n = self.n_qubits
            out = _multiply_sums(*(
                [((ps.x_mask, ps.z_mask), c) for ps, c in op._terms.items()]
                for op in (self, other)))
            return QubitOperator(n, {PauliString.from_masks(x, z, n): c
                                     for (x, z), c in out.items()})
        if isinstance(other, (int, float, complex)):
            return QubitOperator(
                self.n_qubits, {ps: c * other for ps, c in self._terms.items()}
            )
        return NotImplemented

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return self * scalar
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitOperator) or self.n_qubits != other.n_qubits:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) < 1e-10
            for k in keys
        )

    def __repr__(self) -> str:
        if not self._terms:
            return f"QubitOperator(0 on {self.n_qubits} qubits)"
        parts = [
            f"({c:.6g}) {ps.label}"
            for ps, c in sorted(
                self._terms.items(), key=lambda t: (t[0].x_mask, t[0].z_mask)
            )
        ]
        return " + ".join(parts)

    def matrix(self) -> np.ndarray:
        """Dense matrix representation; cached on small registers."""
        if self._matrix is not None:
            return self._matrix
        dim = 1 << self.n_qubits
        m = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim)
        # each term is used once here, so its action is not stored
        for ps, coeff in self._terms.items():
            targets, phases = _build_action(ps)
            m[targets, cols] += coeff * phases
        if self.n_qubits <= MATRIX_CACHE_QUBITS:
            object.__setattr__(self, "_matrix", m)
        return m


def commutator(a: QubitOperator, b: QubitOperator) -> QubitOperator:
    """Simplified ``a b - b a``."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError(
            f"operators on {a.n_qubits} and {b.n_qubits} qubits"
        )
    return a * b - b * a


class FermionOperator:
    """Sum of weighted products of fermionic ladder operators.

    Each term is ``(coefficient, product)`` where ``product`` is a tuple of
    ``(orbital, dagger)`` pairs written in operator order (leftmost factor
    first). Terms with identical products are merged on construction;
    normal ordering is available but never forced.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Iterable[tuple[complex, Iterable[tuple[int, bool]]]] | None = None,
    ):
        merged: dict[tuple, complex] = {}
        for coeff, product in terms or ():
            key = tuple((int(orb), bool(dag)) for orb, dag in product)
            for orb, _ in key:
                if orb < 0:
                    raise DimensionError(f"negative orbital index {orb}")
            c = merged.get(key, 0.0) + complex(coeff)
            merged[key] = c
        object.__setattr__(
            self,
            "_terms",
            tuple(
                (c, key) for key, c in merged.items() if abs(c) >= COEFF_TOL
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError("FermionOperator is immutable")

    def __getstate__(self):
        return self._terms

    def __setstate__(self, state):
        object.__setattr__(self, "_terms", state)

    @classmethod
    def ladder(cls, orbital: int, dagger: bool) -> "FermionOperator":
        return cls([(1.0, ((orbital, dagger),))])

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "FermionOperator":
        return cls([(coeff, ())])

    @property
    def terms(self) -> tuple[tuple[complex, tuple[tuple[int, bool], ...]], ...]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def max_orbital(self) -> int:
        """Largest orbital index appearing, or -1 for scalar operators."""
        orbs = [orb for _, product in self._terms for orb, _ in product]
        return max(orbs) if orbs else -1

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if not isinstance(other, FermionOperator):
            return NotImplemented
        return FermionOperator(list(self._terms) + list(other._terms))

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        if not isinstance(other, FermionOperator):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self) -> "FermionOperator":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, FermionOperator):
            out = []
            for ca, pa in self._terms:
                for cb, pb in other._terms:
                    out.append((ca * cb, pa + pb))
            return FermionOperator(out)
        if isinstance(other, (int, float, complex)):
            return FermionOperator([(c * other, p) for c, p in self._terms])
        return NotImplemented

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return self * scalar
        return NotImplemented

    def dagger(self) -> "FermionOperator":
        out = []
        for coeff, product in self._terms:
            flipped = tuple((orb, not dag) for orb, dag in reversed(product))
            out.append((coeff.conjugate(), flipped))
        return FermionOperator(out)

    def normal_ordered(self) -> "FermionOperator":
        """Rewrite with creations left of annihilations via anticommutators.

        Creations are sorted by descending orbital, annihilations ascending,
        so equal operators land in a unique canonical form.
        """
        acc: dict[tuple, complex] = {}
        stack = [(coeff, list(product)) for coeff, product in self._terms]
        while stack:
            coeff, prod = stack.pop()
            i = 0
            while i + 1 < len(prod):
                (o1, d1), (o2, d2) = prod[i], prod[i + 1]
                if (not d1) and d2:
                    # a_o1 a_o2^dag = delta_{o1 o2} - a_o2^dag a_o1
                    if o1 == o2:
                        stack.append((coeff, prod[:i] + prod[i + 2:]))
                    prod = prod[:i] + [(o2, d2), (o1, d1)] + prod[i + 2:]
                    coeff = -coeff
                    i = max(i - 1, 0)
                elif d1 == d2 and o1 == o2:
                    coeff = 0.0
                    break
                elif d1 == d2 and ((d1 and o1 < o2) or (not d1 and o1 > o2)):
                    prod = prod[:i] + [(o2, d2), (o1, d1)] + prod[i + 2:]
                    coeff = -coeff
                    i = max(i - 1, 0)
                else:
                    i += 1
            if coeff != 0.0:
                key = tuple(prod)
                acc[key] = acc.get(key, 0.0) + coeff
        return FermionOperator([(c, p) for p, c in acc.items()])

    @property
    def is_hermitian(self) -> bool:
        diff = (self - self.dagger()).normal_ordered()
        return all(abs(c) < 1e-10 for c, _ in diff.terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "FermionOperator(0)"

        def fmt(product):
            if not product:
                return "1"
            return " ".join(
                f"a{orb}^" if dag else f"a{orb}" for orb, dag in product
            )

        return " + ".join(f"({c:.6g}) {fmt(p)}" for c, p in self._terms)


def jordan_wigner(op: FermionOperator, n_spin_orbitals: int) -> QubitOperator:
    """Map a fermionic operator to qubits, one spin-orbital per qubit:
    a_i^dag -> (X_i - iY_i)/2 Z_{i-1}...Z_0, a_i its conjugate. Each product
    is multiplied out ladder by ladder on (x, z) masks, dropping |c| <
    ``COEFF_TOL`` after each factor as a ``QubitOperator`` product does, and
    summed in place; each distinct string becomes one ``PauliString``."""
    if op.max_orbital >= n_spin_orbitals:
        raise DimensionError(
            f"orbital {op.max_orbital} does not fit in {n_spin_orbitals} spin-orbitals"
        )
    total: dict[tuple[int, int], complex] = {}
    for coeff, product in op.terms:
        term = {(0, 0): coeff} if abs(coeff) >= COEFF_TOL else {}
        for orbital, dagger in product:
            bit = 1 << orbital
            ladder = (((bit, bit - 1), 0.5 + 0.0j),
                      ((bit, (bit << 1) - 1), -0.5j if dagger else 0.5j))
            term = {key: c for key, c in _multiply_sums(term.items(), ladder)
                    .items() if abs(c) >= COEFF_TOL}
        for key, c in term.items():  # as ``+`` merges, in place
            total[key] = total.get(key, 0.0) + c
            if abs(total[key]) < COEFF_TOL:
                del total[key]
    n = n_spin_orbitals
    return QubitOperator(n, {PauliString.from_masks(x, z, n): c
                             for (x, z), c in total.items()})


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Extremal eigenpairs of a Hermitian qubit operator."""

    ground_energy: float
    ground_state: np.ndarray = field(repr=False)
    max_energy: float

    def __post_init__(self):
        if self.ground_energy > self.max_energy + 1e-12:
            raise NumericIntegrityError("ground energy above maximal energy")
        norm = float(np.linalg.norm(self.ground_state))
        if abs(norm - 1.0) > 1e-12:
            raise NumericIntegrityError(f"ground state norm {norm} is not 1")


def check_memory(n_qubits: int, need: int):
    """Refuse, before allocating, an n-qubit run whose stated peak of
    ``need`` bytes would outgrow physical memory. Every dense allocator
    states its own bytes; where ``os.sysconf`` cannot be read, every run
    is admitted."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf reading
        return
    if need > have:
        raise ResourceLimitError(
            f"{n_qubits}-qubit run needs about {need / 2**30:.1f} GiB "
            f"of {have / 2**30:.1f} GiB memory"
        )


def exact_spectrum(h: QubitOperator) -> SpectrumResult:
    """Extremal eigenvalues and the ground state by dense diagonalization.

    Uses the real-symmetric eigensolver when the dense image is real, as
    it is when every weight is real and every string has an even number of
    Y factors (molecular Hamiltonians); that case is charged to
    ``check_memory`` at SPECTRUM_REAL_BYTES per 4^n entry before the image
    is built, any other at SPECTRUM_COMPLEX_BYTES.
    """
    if not h.is_hermitian:
        raise NumericIntegrityError("exact_spectrum requires a Hermitian operator")
    real = all(c.imag == 0.0 and not ps.y_count & 1
               for ps, c in h.terms.items())
    per_entry = SPECTRUM_REAL_BYTES if real else SPECTRUM_COMPLEX_BYTES
    check_memory(h.n_qubits, per_entry * 4 ** h.n_qubits)
    m = h.matrix()
    if np.abs(m.imag).max(initial=0.0) < 1e-14:
        evals, evecs = np.linalg.eigh(m.real)
        ground = evecs[:, 0].astype(complex)
    else:
        evals, evecs = np.linalg.eigh(m)
        ground = evecs[:, 0]
    return SpectrumResult(
        ground_energy=float(evals[0]),
        ground_state=ground,
        max_energy=float(evals[-1]),
    )


def _state_array(state) -> np.ndarray:
    """Accept a QuantumState, a state vector, or a density matrix."""
    data = getattr(state, "data", state)
    arr = np.asarray(data)
    if arr.ndim not in (1, 2):
        raise DimensionError(f"state must be a vector or a matrix, got ndim={arr.ndim}")
    if arr.ndim == 2 and arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"density matrix must be square, got {arr.shape}")
    return arr


def apply_operator(h: QubitOperator, vec: np.ndarray) -> np.ndarray:
    """H |psi> for a state vector: one dense product when the matrix is
    cached, else term by term."""
    if h.n_qubits <= MATRIX_CACHE_QUBITS:
        return h.matrix() @ vec
    out = np.zeros(vec.shape, dtype=complex)
    for ps, coeff in h.terms.items():
        targets, phases = pauli_action(ps)
        out += coeff * (phases[targets] * vec[targets])
    return out


def expectation(h: QubitOperator, state) -> float:
    """<psi|H|psi> for a state vector, Tr[H rho] for a density matrix.

    The imaginary residue must stay below ``IMAG_TOL`` and the value must
    be finite; anything else signals corrupted state and raises
    :class:`NumericIntegrityError`.
    """
    arr = _state_array(state)
    dim = 1 << h.n_qubits
    if arr.shape[0] != dim:
        raise DimensionError(
            f"state dimension {arr.shape[0]} does not match {h.n_qubits} qubits"
        )
    if arr.ndim == 1:
        value = complex(np.vdot(arr, apply_operator(h, arr)))
    elif h.n_qubits <= MATRIX_CACHE_QUBITS:
        value = complex(np.einsum("jk,kj->", h.matrix(), arr))
    else:
        value = 0.0 + 0.0j
        cols = np.arange(dim)
        for ps, coeff in h.terms.items():
            targets, phases = pauli_action(ps)
            value += coeff * complex(np.sum(phases * arr[cols, targets]))
    if not (abs(value.imag) <= IMAG_TOL and np.isfinite(value.real)):
        raise NumericIntegrityError(
            f"expectation {value:.3e} is not finite or has an imaginary residue"
        )
    return float(value.real)
