"""Noisy energies and noise susceptibilities on Pauli-transfer
coefficients, and the Clifford frame of staircase terms that they share.

A register state rho has 4^n real coefficients
r_k = Tr(P_k rho) on the Hermitian Pauli strings P_k = i^y X^x Z^z
(y = |x & z|, ``PauliString``'s convention), at k = x | z << n
(Greenbaum, arXiv:1509.02921; Rall et al., arXiv:1901.09070). There a
depolarizing channel on qubit q is diagonal: it scales every r_R whose R
is not the identity on q by lam = 1 - 4p/3. A term exp(i phi P) mixes
each r_R whose R anticommutes with P with r_{R xor P}, through one
gather. gate_by_gate puts a channel after every CNOT of a staircase term;
moved through the term's Clifford gates to its boundary
(``conjugate_masks``), each is a Pauli channel, still diagonal, so the
whole term is diag(f_post) R_P(phi) diag(f_pre) with f = lam^e.

Most of the 4^n coefficients stay zero. The determinant is nonzero only
at x = 0, a term moves r from x mask x to x ^ x_P, and every channel is
diagonal, so r lives in the columns x of the GF(2) span of the ansatz
terms' x masks, of dimension d (5 for the frozen H4 qeb circuit on 8
qubits). A run keeps a 2^n x 2^d grid: rows z mask, column c the span
mask ``table[c]``, with coordinates as linear as masks (``span_table``).
Entry (z, c) sits at flat position z 2^d + c, so a term's gather keys
are one XOR of the flat positions, which a run builds once. Each
string's theta- and p-independent codes are kept between runs, up to
``CODE_CACHE_BYTES``, as one uint8 array per factor that indexes a
product table of rotation factors and channel powers; so is each span's
grid with its packed support codes, up to ``GRID_CACHE_BYTES``.

Only ``circuit_steps`` lays a noise scheme's channels on a circuit, and
both entry points walk its steps forward on one grid charged to
``check_memory``, the walk compiled once (``_Walk``). ``NoisyCircuit``
runs noisy ADAPT's optimizer and energy-rule screening, one per circuit,
and noisy Delta E grids, one per energy (``noisy_energy``); it is tested
against ``simulator``'s dense kernels, which still serve noisy pool
gradients and direct ``run_circuit`` calls. ``slot_shifts`` scores chi's
slots on one backward pass after the walk, which maps r and the
Heisenberg-evolved H as one stacked array, one term map per term:
O(terms x 2^(n+d)), plus one matrix product per slot boundary.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ansatz import Ansatz
from .exceptions import ConfigError, DimensionError, NumericIntegrityError
from .operators import IMAG_TOL, PauliString, QubitOperator, check_memory
from .simulator import DRIFT_TOL, check_circuit, compile_term


def conjugate_masks(gates, x: int, z: int) -> tuple[int, int]:
    """Masks of G P G+, up to sign, for P with masks (x, z) and G the
    Clifford ``gates`` in order: H swaps the x and z bits, v and vdg do
    x ^= z, CNOT(c, t) does x_t ^= x_c and z_c ^= z_t. Each map is an
    involution, so the reversed gates give the masks of G+ P G."""
    for gate in gates:
        if gate.is_cnot:
            control, target = gate.qubits
            x ^= ((x >> control) & 1) << target
            z ^= ((z >> target) & 1) << control
        elif gate.kind == "h":
            flip = (x ^ z) & (1 << gate.qubits[0])
            x, z = x ^ flip, z ^ flip
        elif gate.kind in ("v", "vdg"):
            x ^= z & (1 << gate.qubits[0])
        else:
            raise ConfigError(f"{gate} is not a Clifford gate")
    return x, z


def channel_slot(qubit: int, count: int, gates=()):
    """(qubit, count, masks of X, Y and Z on ``qubit`` moved through
    ``gates`` by ``conjugate_masks``): ``count`` depolarizing channels on
    ``qubit``, seen from the far side of ``gates``."""
    bit = 1 << qubit
    return qubit, count, tuple(conjugate_masks(gates, x, z)
                               for x, z in ((bit, 0), (bit, bit), (0, bit)))


def term_slots(ps: PauliString):
    """The channel slots of a staircase term's CNOTs: those before its Rz
    moved back onto the state before the term, and those after it moved
    on to the state after."""
    return _term_slots(ps.x_mask, ps.z_mask, ps.n_qubits)


@functools.lru_cache(maxsize=1024)
def _term_slots(x_mask: int, z_mask: int, n_qubits: int):
    """``term_slots``, kept per string's masks for the next call (the Rz
    angle plays no part)."""
    gates = compile_term(PauliString.from_masks(x_mask, z_mask, n_qubits),
                         1.0, 0.0)
    middle = len(gates) // 2  # compile_term puts the Rz in the middle
    slots = [channel_slot(gate.qubits[1], 1,
                          gates[i::-1] if i < middle else gates[i + 1:])
             for i, gate in enumerate(gates) if gate.is_cnot]
    return slots[:len(slots) // 2], slots[len(slots) // 2:]


def _span_basis(x_masks) -> list[int]:
    """A basis of the GF(2) span of ``x_masks``, found by XOR elimination;
    its length is the span's dimension d."""
    basis: list[int] = []
    for x in x_masks:
        for b in basis:  # clears each earlier basis mask's leading bit
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return basis


def span_table(x_masks) -> np.ndarray:
    """The 2^d masks of the GF(2) span of ``x_masks``: table[c] is the XOR
    of basis[i] (``_span_basis``) over the set bits i of c, so the XOR of
    two coordinates is the coordinate of the XOR of their masks."""
    table = np.zeros(1, dtype=np.intp)
    for b in _span_basis(x_masks):
        table = np.concatenate([table, table ^ b])
    return table


class _Grid:
    """The kernels' (rows z, columns c) grid: row z holds the register's
    z mask z, column c the x mask ``table[c]`` of the span, and
    ``coordinate`` maps each span mask to its column. The codes of both on
    a support are kept per support. Every array is read-only, so runs
    share the grid; ``nbytes`` counts them."""

    def __init__(self, n_qubits: int, x_masks):
        self.register = _read_only(np.arange(1 << n_qubits))
        self.table = _read_only(span_table(x_masks))
        self.coordinate = {x: c for c, x in enumerate(self.table.tolist())}
        self._codes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.nbytes = self.table.nbytes + self.register.nbytes

    def codes(self, support: int):
        """The row and the column codes on ``support``."""
        if support not in self._codes:
            codes = self._codes[support] = (
                _read_only(_pack(self.register, support)),
                _read_only(_pack(self.table, support)))
            self.nbytes += codes[0].nbytes + codes[1].nbytes
        return self._codes[support]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _pack(values, support: int):
    """The bits of ``values`` (an int or an int array) on the ``support``
    qubits, packed in qubit order into the low bits: their code there."""
    qubits = [q for q in range(support.bit_length()) if support >> q & 1]
    code = 0
    for i, q in enumerate(qubits):
        code = code | (values >> q & 1) << i
    return code


def _parity(masks: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """(len(masks), len(moved)) uint8: 1 where a mask shares an odd number
    of bits with a moved mask. The masks are narrowed to the least unsigned
    type that holds them first, which shrinks the broadcast AND and its
    buffers (``_score`` runs it over the register at every boundary)."""
    kind = np.min_scalar_type(max(masks.max(initial=0),
                                  moved.max(initial=0)))
    return np.bitwise_count(masks.astype(kind)[:, None]
                            & moved.astype(kind)) & 1


def _slot_bits(masks: np.ndarray, slots):
    """Two bits per slot, split between a string's x and z masks: bit pair
    j of ``cols[x] ^ rows[z]`` is nonzero when the string with masks (x, z)
    fails to commute with slot j's moved X or moved Z, that is when the
    slot's channel scales it. ``masks`` lists the candidate masks."""
    moved = np.array([m for _, _, (mx, _, mz) in slots for m in (mx, mz)])
    shifts = np.arange(len(moved))
    cols, rows = (
        (_parity(masks, moved[:, side]).astype(np.intp) << shifts).sum(axis=1)
        for side in (1, 0)  # x meets the moved z mask, z the moved x mask
    )
    return cols, rows


def _scaled(cols, rows):
    """The number of slots that scale each string (rows z, columns x)."""
    d = rows[:, None] ^ cols
    d |= d >> 1
    d &= 0x5555555555555555
    return np.bitwise_count(d)


class _CappedCache:
    """``build(*key)``'s read-only value, kept per key while those kept
    total at most ``limit`` bytes: the least recently used go first, and
    a value larger than ``limit`` is returned but never kept. Each kept
    value's ``nbytes`` is read again when one is built, since a kept
    ``_Grid`` grows as supports are packed on it."""

    def __init__(self, build, limit: int):
        self.build, self.limit = build, limit
        self.held: dict = {}  # least recently used first

    def __call__(self, *key):
        value = self.held.pop(key, None)
        if value is None:
            value = self.build(*key)
            if value.nbytes > self.limit:
                return value
            held = value.nbytes + sum(v.nbytes for v in self.held.values())
            while held > self.limit:
                held -= self.held.pop(next(iter(self.held))).nbytes
        self.held[key] = value
        return value


# Bytes of span grids kept between runs: 8 (2^n + 2^d) per grid and
# 8 (2^n + 2^d) per support packed on it, 2.3 kB per support on H4.
GRID_CACHE_BYTES = 32 << 20
_grids = _CappedCache(_Grid, GRID_CACHE_BYTES)  # keyed (n, span basis)


def _build_codes(x_mask: int, z_mask: int, n_qubits: int, staircase: bool):
    """A term's theta- and p-independent codes over the codes of R's masks
    on P's support (rows z, columns x), as uint8: e (below), and for a
    staircase with channel slots e + 4 s_a and e + 4 s_b, with s the number
    of slots that scale a_R and b_R (``term_slots``). Read-only, as
    ``_term_codes`` shares it between runs."""
    support = x_mask | z_mask
    masks = np.arange(support + 1)
    masks = masks[(masks & ~support) == 0]  # by code on the support
    count = np.bitwise_count
    # i R P = i^e (R xor P) with e = 1 + y_R + y_P - y_(R xor P)
    # + 2|z_R & x_P| mod 4 for strings i^y X^x Z^z (y = |x & z|); e is even
    # exactly where R anticommutes with P. The uint8 counts wrap mod 256,
    # which leaves e mod 4 alone.
    e = count(masks[:, None] & masks)
    e -= count((masks[:, None] ^ z_mask) & (masks ^ x_mask))
    y_p = (x_mask & z_mask).bit_count()
    e += (1 + y_p + 2 * count(masks & x_mask))[:, None]
    e &= 3
    if not staircase or support.bit_count() < 2:  # no CNOT, no slot
        return _read_only(e[None])
    pre, post = _term_slots(x_mask, z_mask, n_qubits)
    (pre_cols, pre_rows), (post_cols, post_rows) = (
        _slot_bits(masks, slots) for slots in (pre, post))
    post_cols, post_rows = (v << 2 * len(pre) for v in (post_cols, post_rows))
    # b_R takes f_pre at R xor P: the pre slots read the partner's codes
    index = np.arange(len(masks))
    partner_cols = pre_cols[index ^ _pack(x_mask, support)]
    partner_rows = pre_rows[index ^ _pack(z_mask, support)]
    return _read_only(np.stack([
        e + 4 * _scaled(pre_cols | post_cols, pre_rows | post_rows),
        e + 4 * _scaled(partner_cols | post_cols, partner_rows | post_rows),
    ]))


# Worst-case bytes of the codes kept by ``_term_codes``: 2 * 4^w per string
# of weight w, so 64 strings of weight 8 (the whole H4 register); the 176
# strings of the deepest fermionic ADAPT circuit on H4 take 1.7 MB.
CODE_CACHE_BYTES = 8 << 20
_term_codes = _CappedCache(_build_codes, CODE_CACHE_BYTES)


def _compile_term(grid, ps, staircase, powers):
    """``ps``'s term on ``grid`` for ``_apply_term``: its gather offset
    z_P 2^d | c_P, its support codes (rows, columns), its kept codes' key
    and, for a staircase, ``powers[w]``: lam^s for its 2w - 1 slot counts."""
    return (ps.z_mask * len(grid.table) | grid.coordinate[ps.x_mask],
            *grid.codes(ps.x_mask | ps.z_mask),
            (ps.x_mask, ps.z_mask, ps.n_qubits, staircase),
            powers[ps.weight] if staircase else None)


def _term_factors(key, phi, powers):
    """The term diag(f_post) R_P(phi) diag(f_pre) on Pauli coefficients:
    r_R <- a_R r_R + b_R r_{R xor P}. a and b depend only on R's masks on
    P's support, so they are built over those codes (rows z, columns x)
    from the string's kept codes. For a staircase, each channel slot of
    ``term_slots`` scales by lam: f = lam^(slots s that scale R), read
    with the rotation's factor at code e + 4 s of one product table."""
    codes = _term_codes(*key)
    cos, sin = math.cos(2.0 * phi), math.sin(2.0 * phi)
    table = np.array([[cos, 1.0, cos, 1.0], [sin, 0.0, -sin, 0.0]])
    if len(codes) > 1:  # 2(w - 1) slots
        table = table[:, None] * powers
    return table[0].take(codes[0]), table[1].take(codes[-1])


def _apply_term(r, partner, index, positions, term, phi):
    """r <- diag(f_post) R_P(phi) diag(f_pre) r in place on the grid, or on
    each grid of a stack r[..., z, c], for ``_compile_term``'s ``term``:
    R xor P sits at flat position (z 2^d + c) xor (z_P 2^d + c_P), with
    ``positions`` the run's flat positions of one grid. ``partner`` (r's
    shape) and ``index`` (one grid's) are scratch: index holds the gather's
    keys, then its bytes hold the factors spread over the grid."""
    offset, rows, cols, key, powers = term
    a, b = _term_factors(key, phi, powers)
    np.bitwise_xor(positions, offset, out=index)
    # method calls and "clip" (the indices are in range) keep calls short
    r.reshape(*r.shape[:-2], -1).take(index, -1, partner, "clip")
    for factors, target in ((b, partner), (a, r)):
        target *= factors.take(cols, 1).take(rows, 0, index.view(np.float64),
                                             "clip")
    r += partner


def _channel_factors(grid, slots, lam):
    """lam^e over supports x | z, with e the channels of ``slots`` on the
    support: gathered at R's support, what r_R scales by."""
    e = np.zeros(len(grid.register), dtype=np.intp)
    for qubit, count, _ in slots:
        e += count * (grid.register >> qubit & 1)
    return lam ** e


def circuit_steps(ansatz: Ansatz, params: np.ndarray, scheme: str):
    """The circuit as steps (terms, before, after): (P, phi) pairs run as
    exp(i phi P), with ``channel_slot``s before and after them. gate_by_gate
    takes a step per term, slots by ``term_slots``; element_by_element a
    step per element, its scheduled channels after it."""
    pairs = zip(ansatz.elements, params.tolist())
    if scheme == "gate_by_gate":
        return [([(ps, coeff * theta)], *term_slots(ps))
                for element, theta in pairs for ps, coeff in element.terms]
    if scheme == "element_by_element":
        return [([(ps, coeff * theta) for ps, coeff in element.terms], [],
                 [channel_slot(q, count) for q, count in element.cnot_schedule])
                for element, theta in pairs]
    raise ConfigError(f"unknown noise scheme {scheme!r}")


# Peak bytes per entry of a Pauli-coefficient run's 2^n x 2^d grid and of
# its heaviest term's 4^w support codes; the run's flat positions and what
# it may add to the kept arrays are charged on top. Traced peaks per grid
# entry on the frozen H4 qeb circuit (gate_by_gate, element_by_element):
# 36.0 and 45.9 for noisy_energy, 68.1 and 56.1 when every cache starts
# empty; 59.5 and 53.2 for chi's slot_shifts, 67.9 and 63.3 cold; every
# run is charged 83.0. Per code: 18.0 to 28.4 (weights 11 to 6).
PAULI_PEAK_BYTES = 64


def _charged_grid(n_qubits: int, steps):
    """The span grid of the steps' terms, once memory holds PAULI_PEAK_BYTES
    per grid entry and per support code of the heaviest term, the run's
    flat positions (8 B per grid entry), 8 (2^n + 2^d) for the grid and
    per support packed on it, and 2 * 4^w per string's codes up to what
    ``_term_codes`` keeps (others live only inside the heaviest term's
    charge): the run's charge as if no cache held any of them, so it reads
    no cache. The grid is built after the charge, d found on the masks."""
    strings = [ps for terms, _, _ in steps for ps, _ in terms]
    basis = _span_basis(dict.fromkeys(ps.x_mask for ps in strings))
    masks = {(ps.x_mask, ps.z_mask) for ps in strings}
    supports = {x | z for x, z in masks}
    weight = max(map(int.bit_count, supports), default=0)
    entries = 1 << (n_qubits + len(basis))
    check_memory(n_qubits, PAULI_PEAK_BYTES * (entries + 4 ** weight)
                 + 8 * entries
                 + 8 * ((1 << n_qubits) + (1 << len(basis)))
                 * (1 + len(supports))
                 + min(sum(2 * 4 ** (x | z).bit_count() for x, z in masks),
                       _term_codes.limit))
    return _grids(n_qubits, tuple(basis))


class _Walk:
    """The forward walk of ``steps``' strings and slots on ``grid`` with
    channels of lam = 1 - 4p/3, compiled once with its scratch: the term
    maps, a zeroed stack of leading shape ``stack`` (r its first grid),
    its partner, the index scratch and the flat positions arange(2^(n+d))
    as (2^n, 2^d). A staircase's channels sit in its term factors; else
    each step's after-slots scale r, gathered at index = register | table."""

    def __init__(self, grid, initial, steps, lam, staircase, stack=()):
        shape = (*stack, len(grid.register), len(grid.table))
        self.stack, self.partner = np.zeros(shape), np.empty(shape)
        self.r, self.scratch = (a[(0,) * len(stack)]
                                for a in (self.stack, self.partner))
        self.index = np.empty(shape[-2:], dtype=np.intp)
        self.positions = np.arange(self.index.size).reshape(self.index.shape)
        self.start = 1.0 - 2.0 * (np.bitwise_count(grid.register & initial) & 1)
        channels = not staircase and lam != 1.0
        self.register, self.table = grid.register[:, None], grid.table
        weights = {ps.weight for terms, _, _ in steps for ps, _ in terms
                   if staircase}
        powers = {w: (lam ** np.arange(2 * w - 1))[:, None] for w in weights}
        self.program = [
            ([_compile_term(grid, ps, staircase, powers) for ps, _ in terms],
             _channel_factors(grid, after, lam) if channels else None)
            for terms, _, after in steps]

    def __call__(self, phis):
        """(stack, partner), r walked from the determinant at ``phis``."""
        r, partner = self.r, self.scratch
        r.fill(0.0)
        r[:, 0] = self.start
        phis = iter(phis)
        for terms, factors in self.program:
            for term in terms:
                _apply_term(r, partner, self.index, self.positions, term,
                            next(phis))
            if factors is not None:
                # a copy broadcasts the table unbuffered; a ufunc would
                # buffer each broadcast operand (up to 64 KiB each)
                self.index[...] = self.table
                self.index |= self.register
                r *= np.take(factors, self.index, out=partner, mode="clip")
        return self.stack, self.partner


def _check_coefficients(r: np.ndarray, n_qubits: int, physical: bool):
    """Corruption checks on Pauli coefficients, which hold r_I = 1 by
    construction, so trace drift cannot show: every r is finite and, for a
    physical run, |r| <= 1 and the purity sum r^2 / 2^n <= 1, each within
    DRIFT_TOL."""
    largest = float(max(r.max(), -r.min()))  # NaN propagates through both
    if not math.isfinite(largest):
        raise NumericIntegrityError("a Pauli coefficient is not finite")
    if not physical:
        return
    if not largest <= 1.0 + DRIFT_TOL:
        raise NumericIntegrityError(
            f"Pauli coefficient of magnitude {largest!r} exceeds 1"
        )
    purity = float(r @ r) / (1 << n_qubits)
    if not purity <= 1.0 + DRIFT_TOL:
        raise NumericIntegrityError(f"purity {purity!r} exceeds 1")


def _check_register(initial: int, h: QubitOperator, n_qubits: int):
    if h.n_qubits != n_qubits:
        raise DimensionError(
            f"hamiltonian on {h.n_qubits} qubits, circuit on {n_qubits}"
        )
    if not 0 <= initial < 1 << n_qubits:
        raise DimensionError(
            f"basis index {initial} outside register of {n_qubits} qubits"
        )


class NoisyCircuit:
    """Tr(H rho) after the reference determinant runs through the ansatz
    under per-CNOT depolarizing probability ``p``, on Pauli coefficients,
    as a function of the parameters: ``NoisyCircuit(...)(params)``.

    The determinant sets r = +-1 on the Z strings and the energy is
    sum_P h_P r_P, read after a forward walk of ``circuit_steps``: a
    gate_by_gate term runs as diag(f_post) R_P diag(f_pre), its slots in
    f; element_by_element runs the terms exactly, then scales each r_R by
    lam to the after-slots on R's support. Equals ``expectation`` of the
    ``run_circuit`` density matrix up to rounding, but builds none: only
    ``check_memory``, on the grid's charge, limits the register.

    What no parameter changes is built once: the checks of p, register and
    scheme, the charged grid, the walk (``_Walk``) and H's read-out; a
    call checks the parameters, walks and checks r. Any finite p runs:
    outside [0, 1] (the derivative probes of
    ``analysis.chi_from_density_derivative``) the map is not physical and
    only finiteness is checked.
    """

    def __init__(self, initial: int, ansatz: Ansatz, h: QubitOperator,
                 p: float, scheme: str = "gate_by_gate",
                 n_qubits: int | None = None):
        if not math.isfinite(p):
            raise ConfigError(f"gate-error probability {p} is not finite")
        self.ansatz, self.physical = ansatz, 0.0 <= p <= 1.0
        self.n = check_circuit(ansatz, np.zeros(ansatz.n_params), n_qubits)[1]
        _check_register(initial, h, self.n)
        steps = circuit_steps(ansatz, np.zeros(ansatz.n_params), scheme)
        # phi = coeff * theta_j, term by term in both schemes' step order
        self.angles = [(j, coeff) for j, element in enumerate(ansatz.elements)
                       for _, coeff in element.terms]
        grid = _charged_grid(self.n, steps)
        self.walk = _Walk(grid, initial, steps, 1.0 - 4.0 * p / 3.0,
                          scheme == "gate_by_gate")
        # r_P = 0 for each P whose x mask lies outside the span
        coordinate, d = grid.coordinate, len(grid.table)
        self.flat = np.array([ps.z_mask * d + coordinate[ps.x_mask] if ps.x_mask
                              in coordinate else -1 for ps in h.terms], np.intp)
        self.inside = self.flat >= 0
        self.coeffs = np.fromiter(h.terms.values(), complex, len(h.terms))

    def __call__(self, params) -> float:
        thetas = check_circuit(self.ansatz, params, self.n)[0].tolist()
        r = self.walk([coeff * thetas[j] for j, coeff in self.angles])[0]
        _check_coefficients(r.reshape(-1), self.n, self.physical)
        seen = np.where(self.inside, r.take(self.flat, mode="clip"), 0.0)
        value = complex(self.coeffs @ seen)
        if not abs(value.imag) <= IMAG_TOL:
            raise NumericIntegrityError(
                f"energy {value:.3e} has an imaginary residue"
            )
        return value.real


def noisy_energy(initial: int, ansatz: Ansatz, params, h: QubitOperator,
                 p: float, scheme: str = "gate_by_gate",
                 n_qubits: int | None = None) -> float:
    """``NoisyCircuit(initial, ansatz, h, p, scheme, n_qubits)(params)``."""
    return NoisyCircuit(initial, ansatz, h, p, scheme, n_qubits)(params)


def slot_shifts(initial: int, steps, h: QubitOperator, n_qubits: int):
    """E_U and, per channel slot in circuit order, the (X, Y, Z) energy
    shifts of its strings on a noiseless circuit, from one forward pass of
    r and one backward (adjoint) pass (Jones & Gacon, arXiv:2009.02823).

    ``steps`` walk the circuit as ``circuit_steps`` lays it out. A string
    sigma flips the sign of every r_P whose P anticommutes with it, so it
    shifts the energy by -2 sum h_P r_P over those P, with h the
    Heisenberg-evolved H there. Term maps are orthogonal: the backward
    pass un-rotates the stack (r, h) by R_P(-phi), one term map for both,
    with no checkpoint, and scores a step's after-slots with the next
    step's before-slots, one ``_score`` per boundary.
    """
    _check_register(initial, h, n_qubits)
    coeffs = np.fromiter(h.terms.values(), complex, len(h.terms))
    if np.abs(coeffs.imag).max(initial=0.0) > IMAG_TOL:
        raise NumericIntegrityError("hamiltonian has a complex coefficient")
    grid = _charged_grid(n_qubits, steps)
    walk = _Walk(grid, initial, steps, 1.0, False, (2,))
    stack, partner = walk([phi for terms, _, _ in steps for _, phi in terms])
    r, hw = stack  # strings outside the span meet r = 0
    _check_coefficients(r.reshape(-1), n_qubits, physical=True)
    for ps, coeff in zip(h.terms, coeffs.real.tolist()):
        if ps.x_mask in grid.coordinate:
            hw[ps.z_mask, grid.coordinate[ps.x_mask]] = coeff
    e_unperturbed = float(np.multiply(hw, r, out=partner[0]).sum())
    shifts = np.empty((sum(len(before) + len(after)
                           for _, before, after in steps), 3))
    stop, following = len(shifts), []  # last boundary first
    for (terms, before, after), (maps, _) in zip(reversed(steps),
                                                reversed(walk.program)):
        slots = [*after, *following]
        shifts[stop - len(slots):stop] = _score(grid, stack, partner, slots)
        stop -= len(slots)
        for (_, phi), term in zip(reversed(terms), reversed(maps)):
            _apply_term(stack, partner, walk.index, walk.positions, term,
                        -phi)
        following = before
    shifts[:stop] = _score(grid, stack, partner, following)
    return e_unperturbed, shifts


def _score(grid, stack, scratch, slots):
    """-2 sum of h o r over the strings that anticommute with each slot
    string, one (X, Y, Z) row per slot, with (r, h) = ``stack`` and h o r
    written to ``scratch``: with R and C the parities of z & sx (rows) and
    table[c] & sz (columns), those are R + C - 2 R C."""
    if not slots:
        return np.empty((0, 3))
    hr = np.multiply(stack[1], stack[0], out=scratch[0])
    moved = np.array([m for _, _, strings in slots for masks in strings
                      for m in masks]).reshape(-1, 2)
    rows = _parity(grid.register, moved[:, 0]).astype(float)
    cols = _parity(grid.table, moved[:, 1]).astype(float)
    both = np.einsum("jc,cj->j", rows.T @ hr, cols)
    anticommuting = hr.sum(axis=1) @ rows + hr.sum(axis=0) @ cols - 2.0 * both
    return -2.0 * anticommuting.reshape(-1, 3)
