"""Adaptive ansatz growth with in-repo parameter optimizers.

The growth loop repeatedly scores every pool element on the current state,
appends the winner with a zero initial angle, and re-optimizes all
parameters from the warm start. Two decision rules are available: the
gradient rule takes the largest commutator expectation |Tr([H, T] rho)|;
the energy rule screens the highest-gradient subpool by optimizing each
candidate's single new angle and keeps the lowest energy.

Both optimizers are local implementations: Nelder-Mead with
reflection/expansion/contraction/shrink coefficients (1, 2, 0.5, 0.5) and
shrunk-simplex restarts, and BFGS with a backtracking Armijo line search.
A noiseless objective hands them its exact adjoint gradient: one forward
pass, then one backward sweep that un-applies each element from the
state and from H|psi> (Jones and Gacon, arXiv:2009.02823). Noisy
objectives and energy-rule screening use central finite differences of
one compiled ``pauli_transfer.NoisyCircuit`` per circuit, each energy a
walk over its grid. The dense density matrix of ``run_circuit`` serves
only the noisy pool gradients (``finite_difference_pool_gradients``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ansatz import Ansatz, Pool, build_pool, hartree_fock_index
from .exceptions import (
    ConfigError,
    DimensionError,
    NumericIntegrityError,
    StalledError,
    VqeNoiseError,
)
from .operators import QubitOperator, apply_operator, expectation
from .pauli_transfer import NoisyCircuit
from .simulator import (
    NOISELESS,
    NoiseModel,
    QuantumState,
    apply_noisy_element,
    apply_rotations_to_rows,
    cnot_count,
    givens_rotations,
    run_circuit,
)

# Optimizer gradient-norm cutoff (Hartree per radian).
GRAD_NORM_CUTOFF = 1e-6
# Growth halts when one iteration improves the energy by less than this.
ENERGY_HALT = 1e-12
# Noiseless growth stops once the accuracy target is met.
TRUNCATION_TARGET = 1e-4
# Central finite-difference step for all numerical gradients.
FD_STEP = 1e-4
# Nelder-Mead: the first simplex edge (shrunk 4x per restart), restarts
# after the first descent, and a descent's stop: value and point spreads
# within SIMPLEX_FTOL and SIMPLEX_XTOL, or SIMPLEX_STEPS_PER_PARAM x n steps.
SIMPLEX_OFFSET = 0.05
SIMPLEX_RESTARTS = 8
SIMPLEX_FTOL = 1e-13
SIMPLEX_XTOL = 1e-11
SIMPLEX_STEPS_PER_PARAM = 400
# BFGS: the iteration cap, the Armijo sufficient-decrease factor, and the
# smallest curvature y.s that updates the inverse Hessian.
BFGS_MAX_ITERATIONS = 500
ARMIJO = 1e-4
CURVATURE_TOL = 1e-12
# Largest pool gradient below this magnitude means the pool is exhausted.
STALL_TOL = 1e-9

RULES = ("gradient", "energy")
OPTIMIZERS = ("nelder_mead", "bfgs")
STATUSES = (
    "converged", "halted_by_epsilon", "reached_epsilon_t",
    "max_iterations", "stalled",
)


@dataclass(frozen=True)
class AdaptConfig:
    """Growth-loop settings.

    ``eps_opt`` is the optimizer gradient-norm cutoff, ``eps_halt`` the
    minimal energy improvement per accepted element, and
    ``eps_truncation`` the accuracy at which noiseless growth stops.
    Noisy growth's density matrix answers to its memory charge alone.
    """

    pool_kind: str = "fermionic"
    rule: str = "gradient"
    subpool_size: int = 10
    optimizer: str = "bfgs"
    eps_opt: float = GRAD_NORM_CUTOFF
    eps_halt: float = ENERGY_HALT
    eps_truncation: float = TRUNCATION_TARGET
    max_iterations: int = 30
    noise: NoiseModel = NOISELESS

    def __post_init__(self):
        if self.rule not in RULES:
            raise ConfigError(f"unknown decision rule {self.rule!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        for name in ("eps_opt", "eps_halt", "eps_truncation"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.subpool_size < 1:
            raise ConfigError(f"subpool size {self.subpool_size} < 1")
        # zero is allowed: it reports the bare reference-state energy
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations {self.max_iterations} < 0")


@dataclass(frozen=True, eq=False)
class AdaptIteration:
    """One accepted growth step: chosen element, re-optimized parameters,
    energy, the full pool-gradient vector, the running CNOT count, the
    re-optimization's convergence flag, energy-evaluation and
    gradient-evaluation counts, and the energy rule's (pool index,
    screened energy) pairs in screening order (empty under the gradient
    rule)."""

    label: str
    params: tuple[float, ...]
    energy: float
    gradients: tuple[float, ...] = field(repr=False)
    cumulative_cnots: int
    converged: bool
    n_evaluations: int
    n_gradients: int
    screened_energies: tuple[tuple[int, float], ...] = field(
        default=(), repr=False)


@dataclass(frozen=True, eq=False)
class AdaptRecord:
    """Full history of one growth run."""

    config: AdaptConfig
    n_qubits: int
    reference_index: int
    initial_energy: float
    ansatz: Ansatz
    iterations: tuple[AdaptIteration, ...]
    status: str

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ConfigError(f"unknown final status {self.status!r}")

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def energies(self) -> tuple[float, ...]:
        """E_0 (reference) followed by E_n per accepted element."""
        return (self.initial_energy,) + tuple(
            it.energy for it in self.iterations
        )

    @property
    def final_energy(self) -> float:
        return self.energies[-1]


@dataclass(frozen=True)
class OptimizeResult:
    """Terminal point of one minimization. ``n_evaluations`` counts
    objective calls, those inside finite-difference gradients included;
    ``n_gradients`` counts gradient calls."""

    x: np.ndarray
    energy: float
    converged: bool
    n_evaluations: int
    n_gradients: int


def central_gradient(fun, x) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros(x.size)
    for j in range(x.size):
        shift = np.zeros(x.size)
        shift[j] = FD_STEP
        grad[j] = (fun(x + shift) - fun(x - shift)) / (2.0 * FD_STEP)
    return grad


class _Counted:
    """``fun`` rejecting non-finite values; ``evaluations`` counts calls.
    An object, not a function that counts on itself: that would be a
    reference cycle keeping ``fun`` and what it holds alive until the
    cyclic collector runs."""

    def __init__(self, fun, what="objective"):
        self.fun, self.what, self.evaluations = fun, what, 0

    def __call__(self, point):
        self.evaluations += 1
        value = self.fun(point)
        if not (math.isfinite(value) if isinstance(value, float)
                else np.all(np.isfinite(value))):
            raise NumericIntegrityError(
                f"{self.what} returned non-finite value {value}"
            )
        return value


def _counted_pair(fun, gradient):
    """Counted objective and gradient; without ``gradient``, central
    differences of the counted objective."""
    f = _Counted(fun)
    if gradient is None:
        def gradient(point):
            return central_gradient(f, point)
    return f, _Counted(gradient, "gradient")


def _result(x, energy, converged, f, grad) -> OptimizeResult:
    return OptimizeResult(x, energy, converged, f.evaluations, grad.evaluations)


def _nelder_mead_core(f, x0, offset):
    """One simplex descent; returns (best point, best value)."""
    n = x0.size
    points = [x0.copy()]
    for j in range(n):
        p = x0.copy()
        p[j] += offset
        points.append(p)
    values = [f(p) for p in points]

    for _ in range(SIMPLEX_STEPS_PER_PARAM * n):
        order = np.argsort(values, kind="stable")
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        spread_f = values[-1] - values[0]
        spread_x = max(
            np.abs(p - points[0]).max() for p in points[1:]
        )
        if spread_f <= SIMPLEX_FTOL and spread_x <= SIMPLEX_XTOL:
            break
        centroid = np.mean(points[:-1], axis=0)
        reflected = centroid + (centroid - points[-1])
        f_reflected = f(reflected)
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - points[-1])
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid - 0.5 * (centroid - points[-1])
            f_contracted = f(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                points[-1], values[-1] = contracted, f_contracted
            else:
                for j in range(1, n + 1):
                    points[j] = points[0] + 0.5 * (points[j] - points[0])
                    values[j] = f(points[j])
    order = np.argsort(values, kind="stable")
    return points[order[0]], values[order[0]]


def nelder_mead(
    fun,
    x0,
    grad_tol: float = GRAD_NORM_CUTOFF,
    gradient=None,
) -> OptimizeResult:
    """Derivative-free descent, restarted with a shrunk simplex until the
    gradient norm reaches ``grad_tol``. The gradient, used only for that
    check, is ``gradient(x)`` or else central differences."""
    x = np.asarray(x0, dtype=float).copy()
    f, grad_f = _counted_pair(fun, gradient)
    if x.size == 0:
        return _result(x, f(x), True, f, grad_f)

    offset = SIMPLEX_OFFSET
    best_value = f(x)
    converged = False
    for _ in range(SIMPLEX_RESTARTS + 1):
        x, best_value = _nelder_mead_core(f, x, offset)
        if float(np.linalg.norm(grad_f(x))) <= grad_tol:
            converged = True
            break
        offset *= 0.25
    return _result(x, best_value, converged, f, grad_f)


def bfgs_minimize(
    fun,
    x0,
    grad_tol: float = GRAD_NORM_CUTOFF,
    gradient=None,
) -> OptimizeResult:
    """Quasi-Newton descent with ``gradient(x)``, or else central
    finite-difference gradients.

    The inverse Hessian starts at the identity, is rescaled on the first
    curvature pair, and skips updates whenever y.s <= ``CURVATURE_TOL``.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, grad_f = _counted_pair(fun, gradient)
    n = x.size
    if n == 0:
        return _result(x, f(x), True, f, grad_f)

    fx = f(x)
    grad = grad_f(x)
    h_inv = np.eye(n)
    identity = np.eye(n)
    scaled = False
    converged = False
    for _ in range(BFGS_MAX_ITERATIONS):
        if float(np.linalg.norm(grad)) <= grad_tol:
            converged = True
            break
        direction = -h_inv @ grad
        slope = float(grad @ direction)
        if slope >= 0.0:
            # stale curvature: fall back to steepest descent
            h_inv = identity.copy()
            scaled = False
            direction = -grad
            slope = -float(grad @ grad)
        step = 1.0
        x_new, f_new = x, fx
        while step >= 1e-14:
            candidate = x + step * direction
            f_candidate = f(candidate)
            if f_candidate <= fx + ARMIJO * step * slope:
                x_new, f_new = candidate, f_candidate
                break
            step *= 0.5
        if step < 1e-14:
            # no descent even along -grad: the gradient's resolution is
            # exhausted
            break
        grad_new = grad_f(x_new)
        s = x_new - x
        y = grad_new - grad
        ys = float(y @ s)
        if ys > CURVATURE_TOL:
            if not scaled:
                h_inv = (ys / float(y @ y)) * identity
                scaled = True
            rho = 1.0 / ys
            left = identity - rho * np.outer(s, y)
            h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
        x, fx, grad = x_new, f_new, grad_new
    return _result(x, fx, converged, f, grad_f)


_OPTIMIZER_FUNCTIONS = {"nelder_mead": nelder_mead, "bfgs": bfgs_minimize}


def optimize_parameters(
    ansatz: Ansatz,
    params0,
    h: QubitOperator,
    reference: int,
    noise: NoiseModel = NOISELESS,
    optimizer: str = "bfgs",
    eps_opt: float = GRAD_NORM_CUTOFF,
    n_qubits: int | None = None,
) -> OptimizeResult:
    """Minimize the circuit energy over all ansatz parameters.

    Deterministic given identical inputs; ``converged`` reports whether
    the gradient norm reached ``eps_opt``. Without noise the energy is
    read from the state vector and the gradient is the exact adjoint one;
    with noise the energy is one compiled ``NoisyCircuit`` on the Pauli
    grid and the gradient central differences of it. Neither path builds a
    density matrix, so only the grid's memory charge limits the register.
    """
    params0 = np.asarray(params0, dtype=float)
    if not np.all(np.isfinite(params0)):
        raise ConfigError("initial parameters must be finite")
    if optimizer not in _OPTIMIZER_FUNCTIONS:
        raise ConfigError(f"unknown optimizer {optimizer!r}")

    if noise.is_noisy:
        gradient = None
        fun = NoisyCircuit(reference, ansatz, h, noise.p, noise.scheme,
                           n_qubits)
    else:
        def run(params):
            return run_circuit(reference, ansatz, params, n_qubits=n_qubits)

        run = _reuse_last(run)  # the gradient starts where fun just ran
        gradient = _adjoint_gradient(ansatz, h, run)

        def fun(params):
            return expectation(h, run(params))

    return _OPTIMIZER_FUNCTIONS[optimizer](
        fun, params0, grad_tol=eps_opt, gradient=gradient
    )


def _apply_generator(element, psi: np.ndarray) -> np.ndarray:
    """T psi on a vector or each row of a block, summed over the element's
    runs (take: psi[..., targets] without the ellipsis index's overhead)."""
    return sum(psi.take(targets, -1, mode="clip") * unit * modulus
               for targets, modulus, unit in element.runs())


def _reuse_last(run):
    """``run`` that returns its last state again when called at bit-equal
    params, instead of running the circuit twice at one point."""
    last = [None, None]  # params bytes, state

    def reused(params):
        key = np.asarray(params, dtype=float).tobytes()
        if key != last[0]:
            last[:] = key, run(params)
        return last[1]

    return reused


def _adjoint_gradient(ansatz: Ansatz, h: QubitOperator, run):
    """Exact dE/dtheta of the noiseless circuit energy; ``run(params)``
    gives the forward state.

    With psi_j the state after element j and lambda_j = U_{j+1}+ ... U_N+
    H psi_N, dE/dtheta_j = 2 Re <lambda_j|T_j psi_j>. One forward pass
    gives psi_N; the backward sweep steps both rows of (psi, lambda) back
    through U_j+ = exp(-theta_j T_j), one Givens rotation per run of T_j.
    """
    def gradient(params):
        state = run(params)
        rows = np.stack([state.data, apply_operator(h, state.data)])
        scratch = np.empty_like(rows)
        grad = np.zeros(ansatz.n_params)
        for j in reversed(range(ansatz.n_params)):
            element = ansatz.elements[j]
            t_psi = _apply_generator(element, rows[0])
            grad[j] = 2.0 * np.vdot(rows[1], t_psi).real
            apply_rotations_to_rows(
                rows, givens_rotations(element, -float(params[j])), scratch)
        return grad

    return gradient


def _check_registers(state: QuantumState, h: QubitOperator, pool: Pool):
    if state.n_qubits != h.n_qubits or state.n_qubits != pool.n_qubits:
        raise DimensionError(
            f"register mismatch: state {state.n_qubits}, hamiltonian "
            f"{h.n_qubits}, pool {pool.n_qubits}"
        )


def pool_gradients(
    state: QuantumState, h: QubitOperator, pool: Pool
) -> np.ndarray:
    """Commutator expectations Tr([H, T_alpha] rho) for every element.

    On the vector backend this is 2 Re <H psi | T psi>. On the density
    backend T acts on every column of rho; T is anti-Hermitian and rho
    Hermitian, so [T, rho] = T rho + (T rho)+, which is traced against H.
    """
    _check_registers(state, h, pool)
    state.check_weight()
    grads = np.zeros(len(pool))
    if not state.is_density:
        psi = state.data
        h_psi = apply_operator(h, psi)
        for alpha, element in enumerate(pool.elements):
            t_psi = _apply_generator(element, psi)
            grads[alpha] = 2.0 * np.vdot(h_psi, t_psi).real
        return grads
    for alpha, element in enumerate(pool.elements):
        comm = _apply_generator(element, state.data.T).T  # T rho
        comm += comm.conj().T  # [T, rho] = T rho + (T rho)+
        # Tr(H [T, rho]) = Tr([H, T] rho); [H, T] is Hermitian so the
        # expectation helper's imaginary-residue guard applies
        grads[alpha] = expectation(h, QuantumState(state.n_qubits, comm))
    return grads


def finite_difference_pool_gradients(
    state: QuantumState,
    h: QubitOperator,
    pool: Pool,
    noise: NoiseModel,
) -> np.ndarray:
    """dE/d(theta_new) at 0 per element, noise channels included.

    Central differences on the energy after appending each candidate to
    the already-evolved state; this is the growth criterion for noisy
    mode, where the commutator route would ignore the channels attached
    to the new element's own gates.
    """
    _check_registers(state, h, pool)
    energy = _appended_energy(state, h, noise)
    grads = np.zeros(len(pool))
    for alpha, element in enumerate(pool.elements):
        plus, minus = (energy(element, theta) for theta in (FD_STEP, -FD_STEP))
        grads[alpha] = (plus - minus) / (2.0 * FD_STEP)
    return grads


def select_gradient_rule(gradients) -> int:
    """Index of the largest-|gradient| element; ties -> lowest index."""
    grads = np.abs(np.asarray(gradients, dtype=float))
    if grads.size == 0:
        raise ConfigError("cannot select from an empty pool")
    if grads.max() < STALL_TOL:
        raise StalledError(
            f"largest pool gradient {grads.max():.3e} below {STALL_TOL}"
        )
    return int(np.argmax(grads))


def select_energy_rule(
    state: QuantumState,
    h: QubitOperator,
    pool: Pool,
    gradients,
    subpool_size: int,
    optimizer: str = "bfgs",
    noise: NoiseModel = NOISELESS,
    eps_opt: float = GRAD_NORM_CUTOFF,
) -> int:
    """Screen the largest-|gradient| subpool by single-angle optimization.

    Each candidate's new angle is optimized from zero with all prior
    parameters frozen (the state is already evolved, and each trial
    applies the candidate to a copy of it); the candidate with the lowest
    screened energy wins. Ties keep the earlier candidate in gradient
    order.
    """
    return _screen(_appended_energy(state, h, noise), pool, gradients,
                   subpool_size, optimizer, eps_opt)[0]


def _appended_energy(state: QuantumState, h: QubitOperator,
                     noise: NoiseModel):
    """energy(element, theta) after ``element`` at ``theta`` acts on a copy
    of ``state``."""
    def energy(element, theta):
        trial = state.copy()
        apply_noisy_element(trial, element, theta, noise)
        return expectation(h, trial)

    return energy


def _screen(energy, pool: Pool, gradients, subpool_size: int,
            optimizer: str, eps_opt: float):
    """The energy rule on ``energy(element, theta)``: the chosen pool index
    and the (pool index, screened energy) pair of every candidate whose
    optimization finished, in screening order."""
    grads = np.abs(np.asarray(gradients, dtype=float))
    if grads.size != len(pool):
        raise DimensionError(
            f"{grads.size} gradients for a pool of {len(pool)}"
        )
    select_gradient_rule(grads)  # the same empty-pool and stall checks
    candidates = np.argsort(-grads, kind="stable")[:subpool_size]
    best_index = -1
    best_energy = np.inf
    screened = []
    for index in candidates.tolist():
        element = pool.elements[index]

        def trial(theta_vec, element=element):
            return energy(element, float(theta_vec[0]))

        try:
            result = _OPTIMIZER_FUNCTIONS[optimizer](
                trial, np.zeros(1), grad_tol=eps_opt
            )
        except NumericIntegrityError:
            continue
        screened.append((index, float(result.energy)))
        if result.energy < best_energy:
            best_energy = result.energy
            best_index = index
    if best_index < 0:
        raise StalledError("every screening optimization failed")
    return best_index, screened


def adapt_run(problem, config: AdaptConfig) -> AdaptRecord:
    """Grow an ansatz for ``problem`` under ``config``.

    The loop scores the pool on the current state, appends the selected
    element with a zero angle, re-optimizes every parameter, and halts on
    whichever criterion fires first: pool gradient norm at or below
    ``eps_opt`` (converged), energy improvement at or below ``eps_halt``
    (the non-improving element is discarded), accuracy below
    ``eps_truncation`` in noiseless growth, the iteration cap, or a
    stalled pool.
    """
    pool = build_pool(config.pool_kind, problem.n_qubits, problem.n_electrons)
    reference = hartree_fock_index(problem.n_electrons)
    h = problem.hamiltonian
    ansatz = Ansatz()
    params = np.zeros(0)

    def run(ansatz, params):
        return run_circuit(reference, ansatz, params, noise=config.noise,
                           n_qubits=problem.n_qubits)

    # nothing below writes to a state, so the first iteration reuses it
    state = run(ansatz, params)
    energy = expectation(h, state)
    initial_energy = energy

    iterations: list[AdaptIteration] = []
    status = "max_iterations"
    for iteration in range(1, config.max_iterations + 1):
        try:
            if ansatz.elements:
                state = run(ansatz, params)
            if config.noise.is_noisy:
                gradients = finite_difference_pool_gradients(
                    state, h, pool, config.noise
                )
            else:
                gradients = pool_gradients(state, h, pool)

            if np.abs(gradients).max() < STALL_TOL:
                status = "stalled"
                break
            if float(np.linalg.norm(gradients)) <= config.eps_opt:
                status = "converged"
                break

            screened = []
            if config.rule == "gradient":
                chosen = select_gradient_rule(gradients)
            else:
                chosen, screened = _screen(
                    _grown_energy(problem, reference, ansatz, params, config)
                    if config.noise.is_noisy
                    else _appended_energy(state, h, config.noise),
                    pool, gradients, config.subpool_size, config.optimizer,
                    config.eps_opt,
                )

            trial_ansatz = ansatz.append(pool.elements[chosen])
            result = optimize_parameters(
                trial_ansatz, np.append(params, 0.0), h, reference,
                noise=config.noise, optimizer=config.optimizer,
                eps_opt=config.eps_opt,
            )
        except StalledError:
            status = "stalled"
            break
        except VqeNoiseError as err:
            raise type(err)(f"iteration {iteration}: {err}") from err

        if energy - result.energy <= config.eps_halt:
            status = "halted_by_epsilon"
            break
        ansatz = trial_ansatz
        params = result.x
        energy = result.energy
        iterations.append(AdaptIteration(
            label=pool.elements[chosen].label,
            params=tuple(float(v) for v in params),
            energy=float(energy),
            gradients=tuple(float(g) for g in gradients),
            cumulative_cnots=cnot_count(ansatz),
            converged=bool(result.converged),
            n_evaluations=int(result.n_evaluations),
            n_gradients=int(result.n_gradients),
            screened_energies=tuple(screened),
        ))
        if not config.noise.is_noisy and \
                energy - problem.fci_energy < config.eps_truncation:
            status = "reached_epsilon_t"
            break

    return AdaptRecord(
        config=config,
        n_qubits=problem.n_qubits,
        reference_index=reference,
        initial_energy=float(initial_energy),
        ansatz=ansatz,
        iterations=tuple(iterations),
        status=status,
    )


def _grown_energy(problem, reference: int, ansatz: Ansatz, params,
                  config: AdaptConfig):
    """energy(element, theta): the circuit's noisy energy with ``element``
    at ``theta`` appended, on one kept ``NoisyCircuit`` per element."""
    last = [None, None, np.append(params, 0.0)]  # element, circuit, params

    def energy(element, theta):
        if element is not last[0]:
            last[:2] = element, None  # one circuit's grid at a time
            last[1] = NoisyCircuit(
                reference, ansatz.append(element), problem.hamiltonian,
                config.noise.p, config.noise.scheme, problem.n_qubits)
        last[2][-1] = theta
        return last[1](last[2])

    return energy


def truncation_prefixes(
    record: AdaptRecord,
) -> list[tuple[int, Ansatz, np.ndarray]]:
    """Every circuit prefix with its parameters at that growth step.

    Entry n pairs the first n elements with the parameters optimized when
    the n-th element was accepted, giving the inputs for an accuracy grid
    over (p, n).
    """
    prefixes = [(0, record.ansatz.prefix(0), np.zeros(0))]
    for n, iteration in enumerate(record.iterations, start=1):
        if len(iteration.params) != n:
            raise NumericIntegrityError(
                f"iteration {n} stores {len(iteration.params)} parameters"
            )
        prefixes.append(
            (n, record.ansatz.prefix(n), np.array(iteration.params))
        )
    return prefixes
