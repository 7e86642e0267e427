"""FCIDUMP ingestion and second-quantized Hamiltonian assembly.

The file format is plain text: a Fortran-style namelist header naming at
least NORB and NELEC, then rows ``value p q r s`` with 1-based indices.
A row with all four indices zero carries the core energy, ``(p, q, 0, 0)``
carries h_pq, and four nonzero indices carry the two-electron integral
(pq|rs) in chemist notation. Unlisted index permutations are completed
from the 8-fold symmetry of real integrals.

Spin-orbitals are interleaved: spatial orbital p maps to spin-orbitals
2p (spin up) and 2p+1 (spin down), which under the Jordan-Wigner
convention of :mod:`.operators` are qubits 2p and 2p+1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable

import numpy as np

from .exceptions import ConfigError, FcidumpError
from .operators import (
    FermionOperator,
    QubitOperator,
    SpectrumResult,
    exact_spectrum,
    jordan_wigner,
)

#: Names of the FCIDUMP files shipped with the package.
BUNDLED_MOLECULES = ("h2_0.7414", "h2_1.0", "h4_1.0", "h4_3.0")

_HEADER_END = re.compile(r"&END|/\s*$", re.IGNORECASE)


@dataclass(frozen=True, eq=False)
class MolecularIntegrals:
    """Molecular integral tensors in the spatial-orbital MO basis.

    ``one_body[p, q]`` is h_pq and ``two_body[p, q, r, s]`` is (pq|rs) in
    chemist notation. ``metadata`` keeps parsed-but-unused header entries
    such as point-group labels.
    """

    n_spatial_orbitals: int
    n_electrons: int
    ms2: int
    core_energy: float
    one_body: np.ndarray = field(repr=False)
    two_body: np.ndarray = field(repr=False)
    metadata: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = self.n_spatial_orbitals
        h, g = self.one_body, self.two_body
        if h.shape != (n, n) or g.shape != (n, n, n, n):
            raise ConfigError(
                f"integral tensor shapes {h.shape}, {g.shape} do not match "
                f"{n} spatial orbitals"
            )
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(g))):
            raise ConfigError("integral tensors contain non-finite entries")
        if not np.allclose(h, h.T, atol=1e-10):
            raise ConfigError("one-body tensor is not symmetric")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if not np.allclose(g, np.transpose(g, perm), atol=1e-10):
                raise ConfigError(
                    "two-body tensor breaks 8-fold permutational symmetry"
                )


@dataclass(frozen=True)
class FrozenCoreSpec:
    """Spatial orbitals removed from the active space.

    ``frozen_occupied`` orbitals stay doubly occupied and fold into the
    core energy and effective one-body terms; ``frozen_virtual`` orbitals
    are simply deleted.
    """

    frozen_occupied: tuple[int, ...] = ()
    frozen_virtual: tuple[int, ...] = ()

    def __post_init__(self):
        occ = tuple(sorted(set(self.frozen_occupied)))
        virt = tuple(sorted(set(self.frozen_virtual)))
        if set(occ) & set(virt):
            raise ConfigError(
                "an orbital cannot be frozen as both occupied and virtual"
            )
        object.__setattr__(self, "frozen_occupied", occ)
        object.__setattr__(self, "frozen_virtual", virt)


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    return str(source)


def parse_fcidump(source) -> MolecularIntegrals:
    """Parse FCIDUMP text (a string or a file-like object).

    Raises:
        FcidumpError: malformed header, out-of-range index, non-numeric
            value, or inconsistent duplicate entries; the message names
            the offending 1-based line number.
    """
    lines = _read_text(source).splitlines()

    header_parts: list[str] = []
    data_start = None
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not header_parts:
            if not stripped:
                continue
            if not stripped.lstrip("&").upper().startswith("FCI"):
                raise FcidumpError(
                    f"line {ln}: expected an &FCI namelist header, got {raw!r}"
                )
            header_parts.append(stripped)
            if _HEADER_END.search(stripped):
                data_start = ln + 1
                break
            continue
        header_parts.append(stripped)
        if _HEADER_END.search(stripped):
            data_start = ln + 1
            break
    if data_start is None:
        raise FcidumpError("header never terminated with &END or /")

    header = " ".join(header_parts)
    header = _HEADER_END.sub(" ", header)

    def header_int(key: str, required: bool, default: int = 0) -> int:
        m = re.search(rf"\b{key}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        if m is None:
            if required:
                raise FcidumpError(f"header does not define {key}")
            return default
        return int(m.group(1))

    norb = header_int("NORB", required=True)
    nelec = header_int("NELEC", required=True)
    ms2 = header_int("MS2", required=False)
    if norb <= 0:
        raise FcidumpError(f"NORB={norb} must be positive")
    if nelec < 0 or nelec > 2 * norb:
        raise FcidumpError(f"NELEC={nelec} does not fit in NORB={norb}")

    metadata: dict = {}
    m = re.search(r"\bORBSYM\s*=\s*([\d,\s]+)", header, re.IGNORECASE)
    if m:
        metadata["orbsym"] = [
            int(tok) for tok in m.group(1).replace(",", " ").split()
        ]
    m = re.search(r"\bISYM\s*=\s*(-?\d+)", header, re.IGNORECASE)
    if m:
        metadata["isym"] = int(m.group(1))

    h = np.zeros((norb, norb))
    g = np.zeros((norb, norb, norb, norb))
    core = 0.0
    seen_h: dict[tuple, tuple[float, int]] = {}
    seen_g: dict[tuple, tuple[float, int]] = {}
    orbital_energies: dict[int, float] = {}

    for ln in range(data_start, len(lines) + 1):
        raw = lines[ln - 1]
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 5:
            raise FcidumpError(
                f"line {ln}: expected 'value p q r s', got {raw!r}"
            )
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
        except ValueError:
            raise FcidumpError(
                f"line {ln}: non-numeric value {tokens[0]!r}"
            ) from None
        try:
            p, q, r, s = (int(t) for t in tokens[1:])
        except ValueError:
            raise FcidumpError(f"line {ln}: non-integer index in {raw!r}") from None
        for idx in (p, q, r, s):
            if idx < 0 or idx > norb:
                raise FcidumpError(
                    f"line {ln}: orbital index {idx} outside 1..{norb}"
                )

        if p == q == r == s == 0:
            core = value
        elif p > 0 and q == r == s == 0:
            # some emitters append orbital energies; kept as metadata
            orbital_energies[p - 1] = value
        elif p > 0 and q > 0 and r == s == 0:
            key = (min(p, q) - 1, max(p, q) - 1)
            if key in seen_h and abs(seen_h[key][0] - value) > 1e-10:
                raise FcidumpError(
                    f"line {ln}: h({p},{q}) = {value} conflicts with value "
                    f"{seen_h[key][0]} from line {seen_h[key][1]}"
                )
            seen_h[key] = (value, ln)
            h[p - 1, q - 1] = h[q - 1, p - 1] = value
        elif p > 0 and q > 0 and r > 0 and s > 0:
            a, b, c, d = p - 1, q - 1, r - 1, s - 1
            images = {
                (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
            }
            key = min(images)
            if key in seen_g and abs(seen_g[key][0] - value) > 1e-10:
                raise FcidumpError(
                    f"line {ln}: ({p}{q}|{r}{s}) = {value} conflicts with "
                    f"value {seen_g[key][0]} from line {seen_g[key][1]}"
                )
            seen_g[key] = (value, ln)
            for img in images:
                g[img] = value
        else:
            raise FcidumpError(
                f"line {ln}: index pattern ({p},{q},{r},{s}) is not a core, "
                "one-body, or two-body entry"
            )

    if orbital_energies:
        metadata["orbital_energies"] = orbital_energies
    return MolecularIntegrals(
        n_spatial_orbitals=norb,
        n_electrons=nelec,
        ms2=ms2,
        core_energy=core,
        one_body=h,
        two_body=g,
        metadata=metadata,
    )


def load_fcidump(path) -> MolecularIntegrals:
    with open(path, "r", encoding="ascii") as f:
        return parse_fcidump(f)


def build_hamiltonian(
    ints: MolecularIntegrals, frozen: FrozenCoreSpec | None = None
) -> tuple[FermionOperator, int, int, float]:
    """Assemble the active-space second-quantized Hamiltonian.

    Returns ``(H, n_spin_orbitals, n_active_electrons, shifted_core)``
    where H contains no constant term; the frozen-occupied energy is
    folded into ``shifted_core`` and into effective one-body integrals.
    The two-body part follows H = sum h_pq a+_ps a_qs
    + 1/2 sum (pq|rs) a+_ps a+_rt a_st a_qs, which maps the chemist
    integral (pq|rs) onto the physicist operator order (p, r, s, q).
    """
    frozen = frozen or FrozenCoreSpec()
    n = ints.n_spatial_orbitals
    occ = frozen.frozen_occupied
    virt = frozen.frozen_virtual
    for f in (*occ, *virt):
        if not 0 <= f < n:
            raise ConfigError(f"frozen orbital {f} outside 0..{n - 1}")
    n_active_electrons = ints.n_electrons - 2 * len(occ)
    if n_active_electrons < 0:
        raise ConfigError(
            f"freezing {len(occ)} occupied orbitals leaves "
            f"{n_active_electrons} electrons"
        )
    active = [p for p in range(n) if p not in occ and p not in virt]
    if n_active_electrons > 2 * len(active):
        raise ConfigError(
            f"{n_active_electrons} active electrons do not fit in "
            f"{len(active)} active orbitals"
        )

    h1, g2 = ints.one_body, ints.two_body

    shift = ints.core_energy
    for f in occ:
        shift += 2.0 * h1[f, f]
        for f2 in occ:
            shift += 2.0 * g2[f, f, f2, f2] - g2[f, f2, f2, f]

    n_act = len(active)
    heff = np.zeros((n_act, n_act))
    for a, p in enumerate(active):
        for b, q in enumerate(active):
            v = h1[p, q]
            for f in occ:
                v += 2.0 * g2[p, q, f, f] - g2[p, f, f, q]
            heff[a, b] = v

    terms: list[tuple[complex, tuple]] = []
    for a in range(n_act):
        for b in range(n_act):
            v = heff[a, b]
            if abs(v) < 1e-12:
                continue
            for sp in (0, 1):
                terms.append((v, ((2 * a + sp, True), (2 * b + sp, False))))
    for a, p in enumerate(active):
        for b, q in enumerate(active):
            for c, r in enumerate(active):
                for d, s in enumerate(active):
                    v = g2[p, q, r, s]
                    if abs(v) < 1e-12:
                        continue
                    for sp in (0, 1):
                        for tp in (0, 1):
                            i1, i2 = 2 * a + sp, 2 * c + tp
                            j1, j2 = 2 * d + tp, 2 * b + sp
                            if i1 == i2 or j1 == j2:
                                continue
                            terms.append((
                                0.5 * v,
                                ((i1, True), (i2, True), (j1, False), (j2, False)),
                            ))
    return FermionOperator(terms), 2 * n_act, n_active_electrons, float(shift)


@dataclass(frozen=True, eq=False)
class Problem:
    """A molecular ground-state problem ready for simulation.

    ``hamiltonian`` is the Jordan-Wigner qubit operator with the shifted
    core energy folded into its identity term, so expectation values are
    total energies directly. ``spectrum`` holds the exact extremal
    eigenpairs of that operator; ``fci_energy`` is its ground energy.
    """

    integrals: MolecularIntegrals
    frozen: FrozenCoreSpec
    fermionic: FermionOperator
    hamiltonian: QubitOperator
    n_qubits: int
    n_electrons: int
    core_energy: float
    spectrum: SpectrumResult = field(repr=False)

    @property
    def fci_energy(self) -> float:
        return self.spectrum.ground_energy

    @property
    def max_energy(self) -> float:
        return self.spectrum.max_energy

    @property
    def spectral_range(self) -> float:
        return self.spectrum.max_energy - self.spectrum.ground_energy

    @classmethod
    def from_integrals(
        cls,
        ints: MolecularIntegrals,
        frozen: FrozenCoreSpec | None = None,
    ) -> "Problem":
        frozen = frozen or FrozenCoreSpec()
        built = build_hamiltonian(ints, frozen)
        return cls.from_hamiltonian(ints, frozen, built)

    @classmethod
    def from_hamiltonian(
        cls,
        ints: MolecularIntegrals,
        frozen: FrozenCoreSpec,
        built: tuple[FermionOperator, int, int, float],
    ) -> "Problem":
        """The problem whose ``build_hamiltonian(ints, frozen)`` output is
        ``built``; nothing is rebuilt."""
        fermionic, n_so, n_el, shift = built
        if n_so == 0:
            raise ConfigError(
                "no active orbitals remain; the energy is the core shift "
                f"{shift:.12f} and there is nothing to simulate"
            )
        qubit_h = jordan_wigner(fermionic, n_so)
        qubit_h = qubit_h + QubitOperator.identity(n_so, shift)
        spectrum = exact_spectrum(qubit_h)
        return cls(
            integrals=ints,
            frozen=frozen,
            fermionic=fermionic,
            hamiltonian=qubit_h,
            n_qubits=n_so,
            n_electrons=n_el,
            core_energy=shift,
            spectrum=spectrum,
        )


def data_path(name: str):
    """Filesystem path of a bundled FCIDUMP (one of BUNDLED_MOLECULES)."""
    if name not in BUNDLED_MOLECULES:
        raise ConfigError(
            f"unknown bundled molecule {name!r}; choose from {BUNDLED_MOLECULES}"
        )
    return resources.files("vqenoise").joinpath("data", f"{name}.fcidump")


def load_bundled(name: str, frozen: FrozenCoreSpec | None = None) -> Problem:
    with resources.as_file(data_path(name)) as path:
        return Problem.from_integrals(load_fcidump(path), frozen)
