"""The four benchmark workloads, their frozen inputs and golden checks.

Every workload calls only public ``vqenoise`` functions, looked up on the
package at call time so that the traced run's rebinding reaches them.
A pass returns ``{operation id: payload}``; a payload is plain JSON data,
so two passes can be compared bit for bit through their JSON text.

Workloads (H4, 8 qubits, unless stated):

- ``grow``: noiseless ADAPT-VQE with the fermionic pool, gradient rule and
  BFGS, then UCCSD optimized with BFGS from Hartree-Fock. State vectors,
  optimizer evaluations and pool gradients; no density matrix.
- ``chi``: ``noise_susceptibility`` under both schemes on the frozen qeb
  circuit and on every prefix of the frozen qubit_pauli circuit, then
  ``estimate_pc`` per report and ``pc_scaling_fit`` per scheme. The small
  prefixes are there so that per-call set-up of a batched engine shows.
- ``sweep``: ``sweep_noise`` over every prefix of the frozen qeb circuit,
  both schemes, p in {0, p1}, then ``optimal_truncation``. 256x256
  density-matrix kernels; no replay and no optimization.
- ``noisy_grow``: one accepted element of noisy ADAPT growth on both H2
  molecules x 3 pools x 2 schemes x 2 rules. 16x16 density matrices in
  many short calls, finite-difference pool gradients and energy-rule
  screening: the only workload on the noisy ``adapt`` path.

The ``h2`` size shrinks every workload to H2 circuits for smoke tests.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vqenoise as vq

DATA_DIR = Path(__file__).resolve().parent / "data"
CIRCUITS_FILE = DATA_DIR / "circuits.json"
SCHEMES = ("gate_by_gate", "element_by_element")
SIZES = ("h4", "h2")
DEFAULT_SEED = 0

# The seed selects one point of a log-uniform grid (index seed mod 9);
# golden outputs are stored for every grid point, so every seed is checked.
# Seed 0 gives p = 1e-4 on both grids.
SWEEP_P1 = tuple(1e-4 * 10.0 ** (k / 8) for k in range(9))
NOISY_P2 = tuple(1e-4 * 2.0 ** (j / 4) for j in (0, 1, 2, 3, 4, -4, -3, -2, -1))

# Golden tolerances, in Hartree.
SWEEP_TOL = 1e-12
FLUCTUATION_TOL = 1e-12
NOISY_ENERGY_TOL = 1e-8
# Derived quantities (p_c, fit coefficients) are checked relative.
DERIVED_RTOL = 1e-9
# Threshold checks for noiseless growth, whose trajectory a faster
# gradient may legitimately change.
GROW_MAX_ITERATIONS = 15
GROW_ADAPT_ERROR = 1e-4
GROW_UCCSD_ERROR = vq.CHEMICAL_ACCURACY

MOLECULE = {"h4": "h4_1.0", "h2": "h2_0.7414"}
NOISY_MOLECULES = {"h4": ("h2_0.7414", "h2_1.0"), "h2": ("h2_0.7414",)}
POOLS = ("fermionic", "qeb", "qubit_pauli")
RULES = ("gradient", "energy")


def seed_index(seed: int) -> int:
    return seed % 9


def golden_file(workload: str) -> Path:
    return DATA_DIR / f"golden_{workload}.json"


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def frozen_prefixes(problem, spec: dict) -> list[tuple[int, vq.Ansatz, np.ndarray]]:
    """Rebuild a frozen circuit from its element labels and parameters.

    Entry n pairs the first n elements with the parameters recorded when
    the n-th element was accepted, like ``truncation_prefixes``.
    """
    pool = vq.build_pool(spec["pool"], problem.n_qubits, problem.n_electrons)
    by_label = {e.label: e for e in pool.elements}
    ansatz = vq.Ansatz.from_elements(by_label[label] for label in spec["labels"])
    return [
        (n, ansatz.prefix(n), np.array(params, dtype=float))
        for n, params in enumerate(spec["params"])
    ]


@dataclass
class Context:
    """Everything a pass needs, built once per process by ``setup``."""

    workload: str
    size: str
    seed: int
    problems: dict
    variant: str = "-"
    p: float = 0.0
    circuits: list = field(default_factory=list)
    golden: dict | None = None


def _problem_info(problem):
    return problem.hamiltonian, vq.hartree_fock_index(problem.n_electrons)


def build_context(workload: str, size: str, seed: int) -> Context:
    """Load molecules, rebuild frozen circuits and warm caches."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    names = NOISY_MOLECULES[size] if workload == "noisy_grow" else (MOLECULE[size],)
    problems = {name: vq.load_bundled(name) for name in names}
    for problem in problems.values():
        # the dense Hamiltonian is cached on first use; build it here so
        # the first timed pass does not pay for it
        problem.hamiltonian.matrix()
    ctx = Context(workload, size, seed, problems)
    if workload in ("chi", "sweep"):
        problem = problems[MOLECULE[size]]
        specs = load_json(CIRCUITS_FILE)[size]
        qeb = frozen_prefixes(problem, specs["qeb"])
        if workload == "chi":
            pauli = frozen_prefixes(problem, specs["qubit_pauli"])
            ctx.circuits = [("qeb", *qeb[-1])] + [
                ("qubit_pauli", *prefix) for prefix in pauli[1:]
            ]
        else:
            ctx.circuits = qeb
            ctx.p = SWEEP_P1[seed_index(seed)]
            ctx.variant = str(seed_index(seed))
    if workload == "noisy_grow":
        ctx.p = NOISY_P2[seed_index(seed)]
        ctx.variant = str(seed_index(seed))
    return ctx


def setup(workload: str, size: str, seed: int) -> Context:
    """``build_context`` plus the golden outputs of the selected input."""
    ctx = build_context(workload, size, seed)
    if workload == "grow":
        return ctx
    variants = load_json(golden_file(workload))[size]
    if ctx.variant not in variants:
        raise ValueError(f"no golden for {workload}/{size}/{ctx.variant}")
    ctx.golden = variants[ctx.variant]
    if ctx.golden["p"] != ctx.p:
        raise ValueError(
            f"golden {workload}/{size}/{ctx.variant} was recorded at "
            f"p={ctx.golden['p']!r}, the grid now gives {ctx.p!r}"
        )
    return ctx


def _record(out: dict, op: str, compute):
    """Run one operation; a raised error becomes that operation's payload."""
    try:
        out[op] = compute()
    except Exception:
        out[op] = {"raised": traceback.format_exc(limit=3)}


def run_grow(ctx: Context) -> dict:
    problem = ctx.problems[MOLECULE[ctx.size]]
    h, reference = _problem_info(problem)
    out = {}

    def adapt():
        record = vq.adapt_run(problem, vq.AdaptConfig(
            pool_kind="fermionic", rule="gradient", optimizer="bfgs",
        ))
        return {
            "status": record.status,
            "n_iterations": record.n_iterations,
            "labels": [it.label for it in record.iterations],
            "cnots": vq.cnot_count(record.ansatz),
            "error": record.final_energy - problem.fci_energy,
        }

    def uccsd():
        ansatz = vq.build_uccsd(problem.n_qubits, problem.n_electrons)
        result = vq.optimize_parameters(
            ansatz, np.zeros(ansatz.n_params), h, reference, optimizer="bfgs",
        )
        return {
            "converged": bool(result.converged),
            "n_evaluations": result.n_evaluations,
            "error": result.energy - problem.fci_energy,
        }

    _record(out, "adapt", adapt)
    _record(out, "uccsd", uccsd)
    return out


def run_chi(ctx: Context) -> dict:
    problem = ctx.problems[MOLECULE[ctx.size]]
    h, reference = _problem_info(problem)
    out = {}
    for scheme in SCHEMES:
        fit_reports = []
        for circuit, n, ansatz, params in ctx.circuits:

            def report(ansatz=ansatz, params=params, circuit=circuit):
                rep = vq.noise_susceptibility(
                    ansatz, params, h, reference, scheme=scheme,
                )
                if circuit == "qubit_pauli":
                    fit_reports.append(rep)
                pc = vq.estimate_pc(rep, rep.e_unperturbed - problem.fci_energy)
                return {
                    "n_ii": rep.n_ii,
                    "chi": rep.chi,
                    "fluctuations": [list(f) for f in rep.fluctuations],
                    "p_c": pc.p_c,
                    "unreachable": pc.unreachable,
                    "chi_flagged": pc.chi_flagged,
                }

            _record(out, f"{circuit}/{n}/{scheme}", report)
        if ctx.size == "h4":
            # H2 circuits are too short for a decade of CNOT counts

            def fit():
                result = vq.pc_scaling_fit(fit_reports)
                return {"slope": result.slope, "intercept": result.intercept,
                        "n_points": result.n_points}

            _record(out, f"fit/{scheme}", fit)
    return out


def run_sweep(ctx: Context) -> dict:
    problem = ctx.problems[MOLECULE[ctx.size]]
    h, reference = _problem_info(problem)
    p_values = (0.0, ctx.p)
    out = {}
    for scheme in SCHEMES:
        cells = [f"{scheme}/p{row}/n{n}" for row in range(len(p_values))
                 for n, _, _ in ctx.circuits]
        try:
            table = vq.sweep_noise(
                ctx.circuits, h, p_values, reference, problem.fci_energy,
                scheme=scheme, n_qubits=problem.n_qubits,
            )
        except Exception:
            failure = {"raised": traceback.format_exc(limit=3)}
            out.update({cell: failure for cell in cells})
            out[f"optimal/{scheme}"] = failure
            continue
        for row in range(len(p_values)):
            for column, n in enumerate(table.lengths):
                out[f"{scheme}/p{row}/n{n}"] = float(table.delta_e[row, column])
        _record(out, f"optimal/{scheme}", lambda: [
            list(entry) for entry in vq.optimal_truncation(table)
        ])
    return out


def run_noisy_grow(ctx: Context) -> dict:
    out = {}
    for name, problem in ctx.problems.items():
        for pool in POOLS:
            for scheme in SCHEMES:
                for rule in RULES:
                    config = vq.AdaptConfig(
                        pool_kind=pool, rule=rule, optimizer="bfgs",
                        noise=vq.NoiseModel(ctx.p, scheme), max_iterations=1,
                    )

                    def grow(problem=problem, config=config):
                        record = vq.adapt_run(problem, config)
                        return {
                            "status": record.status,
                            "labels": [it.label for it in record.iterations],
                            "final_energy": record.final_energy,
                        }

                    _record(out, f"{name}/{pool}/{scheme}/{rule}", grow)
    return out


def _close(value, expected, atol=0.0, rtol=0.0) -> bool:
    return isinstance(value, (int, float)) and \
        abs(value - expected) <= atol + rtol * abs(expected)


def _check_chi_op(got, want) -> str | None:
    if "n_ii" not in want:
        if not all(_close(got[k], want[k], 1e-300, DERIVED_RTOL)
                   for k in ("slope", "intercept")) \
                or got["n_points"] != want["n_points"]:
            return f"fit {got} != golden {want}"
        return None
    if got["n_ii"] != want["n_ii"]:
        return f"n_ii {got['n_ii']} != golden {want['n_ii']}"
    if len(got["fluctuations"]) != len(want["fluctuations"]):
        return "fluctuation count differs from golden"
    for mine, ref in zip(got["fluctuations"], want["fluctuations"]):
        if mine[:3] != ref[:3] or not _close(mine[3], ref[3], FLUCTUATION_TOL):
            return f"fluctuation {mine} != golden {ref}"
    if not _close(got["chi"], want["chi"], FLUCTUATION_TOL * max(1, want["n_ii"])):
        return f"chi {got['chi']!r} != golden {want['chi']!r}"
    if not _close(got["p_c"], want["p_c"], 1e-300, DERIVED_RTOL):
        return f"p_c {got['p_c']!r} != golden {want['p_c']!r}"
    if (got["unreachable"], got["chi_flagged"]) != \
            (want["unreachable"], want["chi_flagged"]):
        return "p_c flags differ from golden"
    return None


def _check_sweep_op(got, want) -> str | None:
    if isinstance(want, list):
        for mine, ref in zip(got, want):
            if mine[:2] != ref[:2] or not _close(mine[2], ref[2], SWEEP_TOL):
                return f"optimal truncation {mine} != golden {ref}"
        return None if len(got) == len(want) else "truncation rows differ"
    if not _close(got, want, SWEEP_TOL):
        return f"Delta E {got!r} != golden {want!r}"
    return None


def _check_noisy_op(got, want) -> str | None:
    if got["status"] != want["status"] or got["labels"] != want["labels"]:
        return f"growth {got['status']} {got['labels']} != golden " \
               f"{want['status']} {want['labels']}"
    if not _close(got["final_energy"], want["final_energy"], NOISY_ENERGY_TOL):
        return f"energy {got['final_energy']!r} != golden {want['final_energy']!r}"
    return None


def _check_grow_op(op, got) -> str | None:
    if op == "adapt":
        if got["status"] != "reached_epsilon_t" \
                or got["n_iterations"] > GROW_MAX_ITERATIONS \
                or not got["error"] < GROW_ADAPT_ERROR:
            return f"ADAPT {got['status']} after {got['n_iterations']} " \
                   f"iterations, error {got['error']:.3e}"
        return None
    if not got["converged"] or not got["error"] < GROW_UCCSD_ERROR:
        return f"UCCSD converged={got['converged']}, error {got['error']:.3e}"
    return None


def check(ctx: Context, out: dict) -> tuple[int, list[str]]:
    """Compare one pass with the goldens: (operations attempted, failures).

    An operation fails when it raised, is missing, or misses its check.
    """
    if ctx.workload == "grow":
        expected = ["adapt", "uccsd"]
    else:
        expected = list(ctx.golden["outputs"])
    checker = {
        "chi": _check_chi_op, "sweep": _check_sweep_op,
        "noisy_grow": _check_noisy_op,
    }.get(ctx.workload)
    failures = []
    for op in expected:
        got = out.get(op)
        if got is None:
            failures.append(f"{op}: missing")
            continue
        if isinstance(got, dict) and "raised" in got:
            failures.append(f"{op}: raised {got['raised']}")
            continue
        if checker is None:
            problem = _check_grow_op(op, got)
        else:
            problem = checker(got, ctx.golden["outputs"][op])
        if problem:
            failures.append(f"{op}: {problem}")
    extra = sorted(set(out) - set(expected))
    failures.extend(f"{op}: not in golden" for op in extra)
    return len(expected) + len(extra), failures


WORKLOADS = {
    "grow": run_grow,
    "chi": run_chi,
    "sweep": run_sweep,
    "noisy_grow": run_noisy_grow,
}


def run_pass(ctx: Context) -> dict:
    return WORKLOADS[ctx.workload](ctx)
