"""Noisy energies on Pauli-transfer coefficients against the dense
density-matrix oracle: each exact rotation, each channel, whole circuits."""

import functools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vqenoise.pauli_transfer as pauli_transfer
from vqenoise.adapt import AdaptConfig, adapt_run, truncation_prefixes
from vqenoise.analysis import (
    DERIVATIVE_STEP, noise_susceptibility, sweep_noise,
)
from vqenoise.ansatz import (
    Ansatz, AnsatzElement, build_pool, build_uccsd, hartree_fock_index,
)
from vqenoise.cli import EXIT_NUMERIC, main
from vqenoise.exceptions import (
    ConfigError,
    DimensionError,
    NumericIntegrityError,
    ResourceLimitError,
)
from vqenoise.operators import PauliString, QubitOperator, expectation
from vqenoise.pauli_transfer import (
    CODE_CACHE_BYTES,
    PAULI_PEAK_BYTES,
    _apply_channels,
    _apply_term,
    _check_coefficients,
    _energy,
    _evolve,
    _Grid,
    circuit_steps,
    noisy_energy,
    slot_shifts,
    span_table,
)
from vqenoise.simulator import NoiseModel, compile_term, run_circuit

from oracles import (
    apply_term_oracle,
    batched_susceptibility_oracle,
    depolarizing_oracle,
    gate_unitary,
    grid_charge,
    kron_pauli,
    pauli_coefficients,
    random_density,
)

N = 3
DIM = 1 << N
FULL = _Grid(N, range(DIM))  # columns are x masks
# A proper sub-span, {0, 3, 5, 6}: coordinates 1, 2, 3 hold masks 3, 5, 6
SUB = _Grid(N, [0b011, 0b110])
STRINGS = [PauliString.from_masks(k % DIM, k // DIM, N)
           for k in range(1, DIM * DIM)]
CIRCUITS_FILE = (Path(__file__).resolve().parent.parent
                 / "bench" / "data" / "circuits.json")
SCHEMES = ("gate_by_gate", "element_by_element")


def grid(rho, on=FULL):
    """Pauli coefficients on the kernels' (rows z, columns c) grid ``on``."""
    return pauli_coefficients(rho, N).reshape(DIM, DIM)[:, on.table]


def scratch(on=FULL):
    shape = (DIM, len(on.table))
    return np.empty(shape), np.empty(shape, dtype=np.intp)


def term_scratch(on=FULL):
    """``scratch`` and the grid's flat positions, as a term map takes them."""
    return (*scratch(on), np.arange(DIM * len(on.table)).reshape(DIM, -1))


def empty_caches(monkeypatch):
    """Install empty caches of grids, string codes and slots."""
    monkeypatch.setattr(pauli_transfer, "_grids", pauli_transfer._CappedCache(
        _Grid, pauli_transfer.GRID_CACHE_BYTES))
    monkeypatch.setattr(pauli_transfer, "_term_codes",
                        pauli_transfer._CappedCache(
                            pauli_transfer._build_codes,
                            pauli_transfer.CODE_CACHE_BYTES))
    monkeypatch.setattr(pauli_transfer, "_term_slots", functools.lru_cache(
        maxsize=1024)(pauli_transfer._term_slots.__wrapped__))


def rotation_oracle(rho, ps, phi):
    """exp(i phi P) rho exp(-i phi P), densely."""
    u = np.cos(phi) * np.eye(DIM) + 1j * np.sin(phi) * kron_pauli(ps.paulis, N)
    return u @ rho @ u.conj().T


def staircase_oracle(rho, ps, phi, p):
    """exp(i phi P) as its staircase, a channel after every CNOT."""
    for gate in compile_term(ps, 1.0, phi):
        u = gate_unitary(gate, N)
        rho = u @ rho @ u.conj().T
        if gate.is_cnot:
            rho = depolarizing_oracle(rho, gate.qubits[1], p, N)
    return rho


def channels_oracle(rho, schedule, p):
    for qubit, count in schedule:
        for _ in range(count):
            rho = depolarizing_oracle(rho, qubit, p, N)
    return rho


@pytest.mark.parametrize("ps", STRINGS, ids=lambda ps: ps.label)
def test_exact_rotation_matches_dense(ps):
    rho = random_density(N, seed=ps.x_mask + DIM * ps.z_mask)
    r = grid(rho)
    _apply_term(r, *term_scratch(), FULL, ps, 0.37, 0.5, False)
    np.testing.assert_allclose(r, grid(rotation_oracle(rho, ps, 0.37)),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [0.3, 1.0, -1e-3])
@pytest.mark.parametrize("ps", [ps for ps in STRINGS if ps.weight > 1],
                         ids=lambda ps: ps.label)
def test_staircase_term_with_channels_matches_dense(ps, p):
    """A channel after every CNOT of the staircase, negative p included:
    the term is diag(f_post) R_P diag(f_pre) on Pauli coefficients."""
    rho = random_density(N, seed=ps.x_mask + DIM * ps.z_mask)
    r = grid(rho)
    _apply_term(r, *term_scratch(), FULL, ps, -0.61, 1.0 - 4.0 * p / 3.0,
                True)
    np.testing.assert_allclose(r, grid(staircase_oracle(rho, ps, -0.61, p)),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [0.2, 0.75, -1e-3])
@pytest.mark.parametrize("schedule", [((0, 1),), ((1, 2),), ((0, 2), (2, 3))])
def test_element_channels_match_dense(schedule, p):
    rho = random_density(N, seed=7)
    r = grid(rho)
    _apply_channels(r, *scratch(), FULL, schedule, 1.0 - 4.0 * p / 3.0)
    np.testing.assert_allclose(r, grid(channels_oracle(rho, schedule, p)),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [0.3, 1.0, -1e-3])
@pytest.mark.parametrize("staircase", [False, True])
@pytest.mark.parametrize("on", [FULL, SUB], ids=["full", "sub"])
def test_term_map_bit_identical_to_oracle(on, staircase, p):
    """Keys by one XOR on the run's flat positions and factors read from
    one product table give the bits of the broadcast keys, three code
    arrays and take-then-multiply factors, for every string the grid
    holds."""
    rng = np.random.default_rng(5)
    lam = 1.0 - 4.0 * p / 3.0
    for ps in STRINGS:
        if ps.x_mask not in on.coordinate:
            continue
        r = rng.standard_normal((DIM, len(on.table)))
        want = apply_term_oracle(r, on, ps, -0.61, lam, staircase)
        _apply_term(r, *term_scratch(on), on, ps, -0.61, lam, staircase)
        assert np.array_equal(r, want), ps.label


@pytest.mark.parametrize("staircase", [False, True])
@pytest.mark.parametrize("on", [FULL, SUB], ids=["full", "sub"])
def test_stacked_term_map_equals_single_calls(on, staircase):
    """A (2, R, D) stack takes one term map with the bits of two calls on
    its grids."""
    rng = np.random.default_rng(6)
    for ps in STRINGS:
        if ps.x_mask not in on.coordinate:
            continue
        stack = rng.standard_normal((2, DIM, len(on.table)))
        singles = stack.copy()
        for v in singles:
            _apply_term(v, *term_scratch(on), on, ps, 0.37, 0.6, staircase)
        _, index, positions = term_scratch(on)
        _apply_term(stack, np.empty_like(stack), index, positions, on, ps,
                    0.37, 0.6, staircase)
        assert np.array_equal(stack, singles), ps.label


def test_span_table_is_linear():
    assert SUB.table.tolist() == [0, 3, 5, 6]
    assert FULL.table.tolist() == list(range(DIM))
    masks = [0b1011000001, 0b0110, 0b1101, 0b0110 ^ 0b1101, 0, 1 << 9]
    table = span_table(masks)
    assert len(table) == 1 << 4  # the fourth mask is the XOR of two others
    assert set(masks) <= set(table.tolist())
    columns = np.arange(len(table))
    np.testing.assert_array_equal(table[columns[:, None] ^ columns],
                                  table[:, None] ^ table)
    assert span_table([5, 3, 6, 5]).tolist() == [0, 5, 3, 6]


@pytest.mark.parametrize("p", [0.3, -1e-3])
@pytest.mark.parametrize("ps", [ps for ps in STRINGS
                                if ps.x_mask in SUB.coordinate],
                         ids=lambda ps: ps.label)
def test_sub_span_term_matches_dense(ps, p):
    """The span's columns are closed under every term whose x mask lies in
    the span, so the sub-span kernels give them alone; with and without
    the staircase's channels."""
    rho = random_density(N, seed=ps.x_mask + DIM * ps.z_mask)
    for staircase, want in ((False, rotation_oracle(rho, ps, -0.61)),
                            (True, staircase_oracle(rho, ps, -0.61, p))):
        r = grid(rho, SUB)
        _apply_term(r, *term_scratch(SUB), SUB, ps, -0.61,
                    1.0 - 4.0 * p / 3.0, staircase)
        np.testing.assert_allclose(r, grid(want, SUB), rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [0.2, -1e-3])
def test_sub_span_channels_match_dense(p):
    rho = random_density(N, seed=11)
    schedule = ((0, 2), (2, 3))
    r = grid(rho, SUB)
    _apply_channels(r, *scratch(SUB), SUB, schedule, 1.0 - 4.0 * p / 3.0)
    np.testing.assert_allclose(r, grid(channels_oracle(rho, schedule, p), SUB),
                               rtol=0, atol=1e-12)


def frozen_qeb_h4(h4):
    """The frozen H4 qeb circuit of the benchmark's data: 492 CNOTs."""
    spec = json.loads(CIRCUITS_FILE.read_text())["h4"]["qeb"]
    pool = build_pool("qeb", h4.n_qubits, h4.n_electrons)
    by_label = {e.label: e for e in pool.elements}
    ansatz = Ansatz.from_elements(by_label[label] for label in spec["labels"])
    return ansatz, np.array(spec["params"][-1])


def fermionic_h4(h4):
    """The deepest prefix of noiseless fermionic ADAPT on H4."""
    _, ansatz, params = truncation_prefixes(
        adapt_run(h4, AdaptConfig(pool_kind="fermionic")))[-1]
    return ansatz, params


@pytest.fixture(scope="module")
def circuits(h2, h4):
    """(problem, ansatz, params) of whole circuits on H2 and H4."""
    ansatz = build_uccsd(h2.n_qubits, h2.n_electrons, pool_kind="qeb")
    return {
        "h2_qeb": (h2, ansatz, np.array([0.11, -0.07, 0.23])),
        "h4_qeb_frozen": (h4, *frozen_qeb_h4(h4)),
        "h4_fermionic": (h4, *fermionic_h4(h4)),
    }


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["h2_qeb", "h4_qeb_frozen", "h4_fermionic"])
def test_whole_circuit_matches_dense(circuits, name, scheme):
    problem, ansatz, params = circuits[name]
    reference = hartree_fock_index(problem.n_electrons)
    p = 1e-3
    dense = expectation(problem.hamiltonian, run_circuit(
        reference, ansatz, params, noise=NoiseModel(p, scheme)))
    fast = noisy_energy(reference, ansatz, params, problem.hamiltonian, p, scheme)
    assert abs(fast - dense) <= 1e-12


@pytest.mark.parametrize("p", [1e-3, -DERIVATIVE_STEP])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["h4_qeb_frozen", "h4_fermionic"])
def test_span_run_is_bit_identical_to_full_register(circuits, name, scheme,
                                                    p):
    """The span's columns carry the same bits as on the whole register,
    which holds exact zeros everywhere else; so do the energies."""
    problem, ansatz, params = circuits[name]
    h, n = problem.hamiltonian, problem.n_qubits
    reference = hartree_fock_index(problem.n_electrons)
    span = _Grid(n, [ps.x_mask for element in ansatz.elements
                     for ps, _ in element.terms])
    full = _Grid(n, range(1 << n))
    steps = circuit_steps(ansatz, params, scheme)
    r_span, r_full = (
        _evolve(on, reference, steps, 1.0 - 4.0 * p / 3.0,
                scheme == "gate_by_gate")[0]
        for on in (span, full))
    assert len(span.table) < len(full.table)
    assert r_span.tobytes() == r_full[:, span.table].tobytes()
    outside = np.setdiff1d(full.table, span.table)
    assert not r_full[:, outside].any()
    energy = _energy(r_span, span, h)
    assert energy == _energy(r_full, full, h)
    assert noisy_energy(reference, ansatz, params, h, p, scheme) == energy


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["h4_qeb_frozen", "h4_fermionic"])
def test_adjoint_chi_matches_batched_engine(circuits, name, scheme):
    """The forward and backward grid pass scores every slot as the batched
    state-vector engine, which replays each perturbed state, does."""
    problem, ansatz, params = circuits[name]
    h = problem.hamiltonian
    reference = hartree_fock_index(problem.n_electrons)
    report = noise_susceptibility(ansatz, params, h, reference, scheme)
    engine = batched_susceptibility_oracle(ansatz, params, h, reference,
                                           scheme)
    assert [f[:3] for f in report.fluctuations] \
        == [f[:3] for f in engine.fluctuations]
    assert report.n_ii == engine.n_ii > 0
    worst = max(abs(got[3] - want[3]) for got, want
                in zip(report.fluctuations, engine.fluctuations))
    assert worst <= 1e-12
    pure = expectation(h, run_circuit(reference, ansatz, params))
    assert abs(report.e_unperturbed - pure) <= 1e-12


@pytest.mark.parametrize("scheme", SCHEMES)
def test_each_slot_boundary_scored_once(circuits, scheme, monkeypatch):
    """K steps have K + 1 slot boundaries, each scored by one ``_score``."""
    problem, ansatz, params = circuits["h4_qeb_frozen"]
    score, calls = pauli_transfer._score, []

    def counted(*args):
        calls.append(args)
        return score(*args)

    monkeypatch.setattr(pauli_transfer, "_score", counted)
    noise_susceptibility(ansatz, params, problem.hamiltonian,
                         hartree_fock_index(problem.n_electrons), scheme)
    assert len(calls) == len(circuit_steps(ansatz, params, scheme)) + 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_grids_are_kept_between_runs(circuits, scheme, monkeypatch):
    """A second run on the same span builds no grid and packs no code,
    shares the first run's read-only arrays, and reads the bits that a
    freshly built grid gives."""
    problem, ansatz, params = circuits["h4_qeb_frozen"]
    h, n = problem.hamiltonian, problem.n_qubits
    reference = hartree_fock_index(problem.n_electrons)
    masks = [ps.x_mask for element in ansatz.elements
             for ps, _ in element.terms]

    def run():
        return noisy_energy(reference, ansatz, params, h, 1e-3, scheme)

    first = run()
    kept = pauli_transfer._grids.held
    grid = kept[n, tuple(pauli_transfer._span_basis(masks))]
    assert pauli_transfer._grids(
        n, tuple(pauli_transfer._span_basis(masks + masks[::-1]))) is grid
    arrays = [grid.register, grid.table,
              *(a for codes in grid._codes.values() for a in codes)]
    assert len(arrays) > 2 and not any(a.flags.writeable for a in arrays)
    fresh = _Grid(n, masks)
    assert fresh.table.tobytes() == grid.table.tobytes()
    steps = circuit_steps(ansatz, params, scheme)
    r = _evolve(fresh, reference, steps, 1.0 - 4.0 * 1e-3 / 3.0,
                scheme == "gate_by_gate")[0]
    assert _energy(r, fresh, h) == first

    def untouched(*args):
        raise AssertionError("a kept grid was built or packed again")

    monkeypatch.setattr(pauli_transfer, "_Grid", untouched)
    monkeypatch.setattr(pauli_transfer, "_pack", untouched)
    assert run() == first


def test_grid_cache_keeps_at_most_its_bytes(monkeypatch):
    """Past its limit the grid cache lets the least recently used grids
    go, counting the supports packed on them since they were kept, and
    keeps no grid larger than the limit."""
    assert pauli_transfer._grids.build is _Grid
    assert pauli_transfer._grids.limit == pauli_transfer.GRID_CACHE_BYTES
    size = _Grid(4, [0b0011]).nbytes
    grids = pauli_transfer._CappedCache(_Grid, size)
    monkeypatch.setattr(pauli_transfer, "_grids", grids)
    kept = grids.held
    first = pauli_transfer._grids(4, (0b0011,))
    assert pauli_transfer._grids(4, (0b0011,)) is first
    second = pauli_transfer._grids(4, (0b0110,))
    assert list(kept.values()) == [second]
    grids.limit = 2 * size
    again = pauli_transfer._grids(4, (0b0011,))
    assert again is not first
    assert list(kept.values()) == [second, again]
    again.codes(0b0011)  # grows a kept grid past the limit's share
    third = pauli_transfer._grids(4, (0b0101,))
    assert list(kept.values()) == [third]
    grids.limit = size - 1
    assert pauli_transfer._grids(4, (0b1001,)).nbytes == size
    assert list(kept.values()) == [third]


def test_run_allocates_no_full_register_array(circuits):
    """One run peaks below PAULI_PEAK_BYTES per entry of its 2^n x 2^d
    grid: a 4^n float array alone would reach that bound."""
    problem, ansatz, params = circuits["h4_qeb_frozen"]
    reference = hartree_fock_index(problem.n_electrons)
    n = problem.n_qubits
    d = len(span_table(ps.x_mask for element in ansatz.elements
                       for ps, _ in element.terms)).bit_length() - 1
    assert d == 5

    def run():
        return noisy_energy(reference, ansatz, params, problem.hamiltonian,
                            1e-3)

    run()  # fills the per-string caches, which outlive the call
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PAULI_PEAK_BYTES * 2 ** (n + d)


@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_chi_allocates_no_full_register_array(circuits, scheme, cold,
                                              monkeypatch):
    """Chi's forward and stacked backward pass peak below PAULI_PEAK_BYTES
    per grid entry, also when the run builds its grid and the grid's
    support codes."""
    problem, ansatz, params = circuits["h4_qeb_frozen"]
    reference = hartree_fock_index(problem.n_electrons)
    n = problem.n_qubits
    steps = circuit_steps(ansatz, params, scheme)
    d = len(span_table(ps.x_mask for terms, _, _ in steps
                       for ps, _ in terms)).bit_length() - 1

    def run():
        return slot_shifts(reference, steps, problem.hamiltonian, n)

    run()  # fills the per-string caches, which outlive the call
    if cold:
        monkeypatch.setattr(pauli_transfer, "_grids",
                            pauli_transfer._CappedCache(
                                _Grid, pauli_transfer.GRID_CACHE_BYTES))
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PAULI_PEAK_BYTES * 2 ** (n + d)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("entry", ["noisy_energy", "slot_shifts"])
def test_cold_run_peaks_within_its_charge(circuits, entry, scheme,
                                          monkeypatch):
    """A run that starts with every cache empty (grids, string codes and
    slots) peaks within the bytes it asks ``check_memory`` for: what it
    adds to the kept arrays is charged."""
    problem, ansatz, params = circuits["h4_qeb_frozen"]
    reference = hartree_fock_index(problem.n_electrons)
    h, n = problem.hamiltonian, problem.n_qubits
    steps = circuit_steps(ansatz, params, scheme)
    run = {
        "noisy_energy": lambda: noisy_energy(reference, ansatz, params, h,
                                             1e-3, scheme),
        "slot_shifts": lambda: slot_shifts(reference, steps, h, n),
    }[entry]
    check_memory, needs = pauli_transfer.check_memory, []

    def recorded(n_qubits, need):
        needs.append(need)
        return check_memory(n_qubits, need)

    monkeypatch.setattr(pauli_transfer, "check_memory", recorded)
    empty_caches(monkeypatch)
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(needs) == 1
    assert peak <= needs[0]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_codes_are_charged_at_most_the_cache_limit(circuits, scheme,
                                                   monkeypatch):
    """A cold run whose code cache keeps less than its strings' codes
    (2 * 4^w each) is charged only the cache's limit for them, and still
    peaks within that charge: codes the cache cannot keep live only while
    their term's factors are built."""
    problem, ansatz, params = circuits["h4_fermionic"]
    reference = hartree_fock_index(problem.n_electrons)
    h, n = problem.hamiltonian, problem.n_qubits
    strings = [ps for terms, _, _ in circuit_steps(ansatz, params, scheme)
               for ps, _ in terms]
    codes = sum(2 * 4**ps.weight for ps in set(strings))
    check_memory, needs = pauli_transfer.check_memory, []

    def recorded(n_qubits, need):
        needs.append(need)
        return check_memory(n_qubits, need)

    monkeypatch.setattr(pauli_transfer, "check_memory", recorded)
    empty_caches(monkeypatch)
    limit = codes // 4
    kept = pauli_transfer._CappedCache(pauli_transfer._build_codes, limit)
    monkeypatch.setattr(pauli_transfer, "_term_codes", kept)
    tracemalloc.start()
    try:
        noisy_energy(reference, ansatz, params, h, 1e-3, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(value.nbytes for value in kept.held.values()) <= limit
    assert needs == [grid_charge(n, strings, PAULI_PEAK_BYTES, limit)]
    assert needs[0] == (grid_charge(n, strings, PAULI_PEAK_BYTES, codes)
                        - (codes - limit))
    assert peak <= needs[0]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("entry", ["noisy_energy", "slot_shifts"])
def test_unkept_flat_positions_built_once_per_run(circuits, entry, scheme,
                                                 monkeypatch):
    """A run's flat positions are not kept: the run builds them once for
    all its term maps, not once per term, and its outputs keep their
    bits."""
    problem, ansatz, params = circuits["h4_qeb_frozen"]
    reference = hartree_fock_index(problem.n_electrons)
    h, n = problem.hamiltonian, problem.n_qubits
    steps = circuit_steps(ansatz, params, scheme)

    def run():
        if entry == "noisy_energy":
            return [noisy_energy(reference, ansatz, params, h, 1e-3, scheme)]
        energy, shifts = slot_shifts(reference, steps, h, n)
        return [energy, shifts.tobytes()]

    want = run()
    entries = len(span_table(ps.x_mask for terms, _, _ in steps
                             for ps, _ in terms)) << n
    arange, sizes = np.arange, []

    def counted(*args, **kwargs):
        out = arange(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "arange", counted)
    assert run() == want
    assert sizes.count(entries) == 1


def test_new_grid_is_charged_before_it_is_built(physical_memory,
                                                monkeypatch):
    """A cold 16-qubit run has allocated less than its grid's 8 2^n B
    register when it calls ``check_memory``, and a warm run is charged as
    much: the flat positions, the grid and its one packed support
    (8 (2^n + 2^d) each) and the term's codes on top of the peak."""
    n = 16
    h = QubitOperator.from_term(PauliString({0: "Z"}, n))
    gen = QubitOperator.from_term(PauliString({0: "X", 1: "Y"}, n), 1j)
    ansatz = Ansatz.from_elements([AnsatzElement(generator=gen, label="xy")])
    check_memory, calls = pauli_transfer.check_memory, []

    def recorded(n_qubits, need):
        calls.append((tracemalloc.get_traced_memory()[0], need))
        return check_memory(n_qubits, need)

    monkeypatch.setattr(pauli_transfer, "check_memory", recorded)
    empty_caches(monkeypatch)
    physical_memory(8 * 10**9)
    tracemalloc.start()
    try:
        cold = noisy_energy(0, ansatz, [0.3], h, 1e-3)
    finally:
        tracemalloc.stop()
    assert noisy_energy(0, ansatz, [0.3], h, 1e-3) == cold
    (current, cold_need), (_, warm_need) = calls
    assert current < 8 * 2**n
    entries = 2 ** (n + 1)
    assert cold_need == warm_need == (
        PAULI_PEAK_BYTES * (entries + 4**2) + 8 * entries
        + 2 * 8 * (2**n + 2) + 2 * 4**2)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_backward_pass_maps_each_term_once(circuits, scheme, monkeypatch):
    """K terms take K term maps forward on r and K backward on the stack
    (r, h), not one each for r and h."""
    problem, ansatz, params = circuits["h4_qeb_frozen"]
    steps = circuit_steps(ansatz, params, scheme)
    apply_term, shapes = pauli_transfer._apply_term, []

    def counted(r, *args):
        shapes.append(r.shape[:-2])
        return apply_term(r, *args)

    monkeypatch.setattr(pauli_transfer, "_apply_term", counted)
    slot_shifts(hartree_fock_index(problem.n_electrons), steps,
                problem.hamiltonian, problem.n_qubits)
    k = sum(len(terms) for terms, _, _ in steps)
    assert shapes == [()] * k + [(2,)] * k


def test_noiseless_and_empty_circuits(circuits, h2):
    _, ansatz, params = circuits["h2_qeb"]
    hf = hartree_fock_index(h2.n_electrons)
    pure = expectation(h2.hamiltonian, run_circuit(hf, ansatz, params))
    for scheme in SCHEMES:
        assert abs(noisy_energy(hf, ansatz, params, h2.hamiltonian, 0.0, scheme)
                   - pure) <= 1e-12
    empty = expectation(h2.hamiltonian,
                        run_circuit(hf, Ansatz(), [], n_qubits=4))
    assert abs(noisy_energy(hf, Ansatz(), [], h2.hamiltonian, 1e-3, n_qubits=4)
               - empty) <= 1e-12


class TestIntegrityChecks:
    def test_healthy_coefficients_pass(self):
        _check_coefficients(pauli_coefficients(random_density(N, 3), N), N, True)

    def test_nan_caught_even_when_unphysical(self):
        r = pauli_coefficients(random_density(N, 3), N)
        r[5] = np.nan
        for physical in (True, False):
            with pytest.raises(NumericIntegrityError, match="not finite"):
                _check_coefficients(r, N, physical)

    def test_out_of_range_coefficient_caught(self):
        r = pauli_coefficients(random_density(N, 3), N)
        r[5] = 1.5
        with pytest.raises(NumericIntegrityError, match="exceeds 1"):
            _check_coefficients(r, N, True)
        _check_coefficients(r, N, False)  # a derivative probe's map

    def test_purity_above_one_caught(self):
        with pytest.raises(NumericIntegrityError, match="purity"):
            _check_coefficients(np.ones(DIM * DIM), N, True)

    @pytest.mark.parametrize("corrupt", [
        lambda a: a * 2.0, lambda a: a * np.nan,
    ], ids=["out_of_range", "nan"])
    def test_corrupted_run_raises(self, circuits, h2, monkeypatch, corrupt):
        _, ansatz, params = circuits["h2_qeb"]
        factors = pauli_transfer._term_factors

        def corrupted(*args):
            a, b = factors(*args)
            return corrupt(a), b

        monkeypatch.setattr(pauli_transfer, "_term_factors", corrupted)
        with pytest.raises(NumericIntegrityError):
            noisy_energy(3, ansatz, params, h2.hamiltonian, 1e-3)

    def test_sweep_exits_numeric(self, tmp_path, monkeypatch):
        factors = pauli_transfer._term_factors

        def corrupted(*args):
            a, b = factors(*args)
            return a * np.nan, b

        monkeypatch.setattr(pauli_transfer, "_term_factors", corrupted)
        code = main(["sweep", "--set", "pool=qeb", "--set", "p_grid=0.001",
                     "--workers", "1", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC


class TestInputs:
    def test_memory_refused_before_allocating(self, circuits, h2,
                                              physical_memory):
        _, ansatz, params = circuits["h2_qeb"]
        strings = [ps for element in ansatz.elements
                   for ps, _ in element.terms]
        estimate = grid_charge(h2.n_qubits, strings, PAULI_PEAK_BYTES,
                               CODE_CACHE_BYTES)
        physical_memory(estimate - 4096)
        with pytest.raises(ResourceLimitError):
            noisy_energy(3, ansatz, params, h2.hamiltonian, 1e-3)
        physical_memory(estimate)
        noisy_energy(3, ansatz, params, h2.hamiltonian, 1e-3)

    @pytest.mark.parametrize("n", [14, 16])
    def test_grid_runs_on_eight_gigabytes(self, physical_memory, n):
        """A grid run is charged its 2^n x 2^d grid and its heaviest term's
        4^w codes, not 4^n, and no density-matrix limit applies: with d = 1
        and w = 2, 14 and 16 qubits run where 64 B per 4^n entries would
        not fit, and are refused 4096 B below their charge."""
        h = QubitOperator.from_term(PauliString({0: "Z"}, n))
        gen = QubitOperator.from_term(PauliString({0: "X", 1: "Y"}, n), 1j)
        ansatz = Ansatz.from_elements([AnsatzElement(generator=gen,
                                                     label="xy")])
        runs = (
            lambda: noisy_energy(0, ansatz, [0.3], h, 1e-3),
            lambda: noise_susceptibility(ansatz, [0.3], h, 0),
        )
        physical_memory(8 * 10**9)
        for run in runs:
            run()
        assert 8 * 10**9 < PAULI_PEAK_BYTES * 4**n
        charge = grid_charge(n, [*gen.terms], PAULI_PEAK_BYTES,
                             CODE_CACHE_BYTES)
        physical_memory(charge - 4096)
        for run in runs:
            with pytest.raises(ResourceLimitError):
                run()
        physical_memory(charge)
        for run in runs:
            run()

    def test_bad_inputs(self, circuits, h2, h4):
        _, ansatz, params = circuits["h2_qeb"]
        with pytest.raises(ConfigError, match="finite"):
            noisy_energy(3, ansatz, params, h2.hamiltonian, float("nan"))
        with pytest.raises(ConfigError):
            noisy_energy(3, ansatz, params, h2.hamiltonian, 1e-3, "per_shot")
        with pytest.raises(DimensionError):
            noisy_energy(16, ansatz, params, h2.hamiltonian, 1e-3)
        with pytest.raises(DimensionError):
            noisy_energy(3, ansatz, params, h4.hamiltonian, 1e-3)
        with pytest.raises(DimensionError):
            noisy_energy(3, ansatz, params[:-1], h2.hamiltonian, 1e-3)

    def test_sweep_refuses_nan_before_any_cell(self, circuits, h2,
                                               monkeypatch):
        import vqenoise.analysis as analysis

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(analysis, "run_circuit", no_cell)
        monkeypatch.setattr(analysis, "noisy_energy", no_cell)
        _, ansatz, params = circuits["h2_qeb"]
        for grid_values in ([0.0, float("nan")], [float("nan")]):
            with pytest.raises(ConfigError, match=r"\[0, 1\]"):
                sweep_noise([(3, ansatz, params)], h2.hamiltonian,
                            grid_values, 3, h2.fci_energy)
