"""Config-driven command line for VQE noise experiments.

Subcommands run full pipelines (FCI reference, ADAPT growth, noise
sweeps, susceptibility, extrapolation, truncation scans) from a single
declarative key-value config, persist CSV/JSON artifacts into an output
directory, and embed the resolved-config hash in every file so results
are traceable and reproducible byte for byte. sweep, zne and
truncate-scan share one grid runner and one worker pool, so none of
their CSVs depends on the worker count.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .adapt import (
    OPTIMIZERS,
    RULES,
    AdaptConfig,
    adapt_run,
    optimize_parameters,
    truncation_prefixes,
)
from .analysis import (
    SweepTable,
    estimate_pc,
    noise_susceptibility,
    optimal_truncation,
    sweep_noise,
    zne_linear,
)
from .ansatz import POOL_BUILDERS, Ansatz, build_kupccgsd, build_uccsd, \
    hartree_fock_index
from .chem import (
    BUNDLED_MOLECULES,
    FrozenCoreSpec,
    Problem,
    build_hamiltonian,
    load_fcidump,
    data_path,
)
from .exceptions import (
    ConfigError,
    DimensionError,
    NumericIntegrityError,
    ResourceLimitError,
    StalledError,
    VqeNoiseError,
)
from .simulator import NoiseModel, SCHEMES, cnot_count

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STALLED = 3
EXIT_RESOURCE = 4
EXIT_NUMERIC = 5

ANSATZ_KINDS = ("adapt", "uccsd", "kupccgsd")
# ``dense_limit``'s default and bound: noisy growth's largest register.
DENSITY_LIMIT_DEFAULT = 12
DENSITY_LIMIT_HARD = 14


def _list_of(kind):
    """Parser of comma-separated values; blank text is the empty tuple."""
    def parse(text):
        return tuple(kind(tok) for tok in text.split(",")) if text.strip() else ()
    return parse


# Growth defaults are read from the library so the two cannot drift apart.
_ADAPT_DEFAULTS = AdaptConfig()

# key -> (default, parser). Parsers raise ValueError on bad input; the
# offending key is attached by resolve_config.
SCHEMA = {
    "molecule": ("h2_0.7414", str),
    "fcidump": ("", str),
    "frozen_occupied": ((), _list_of(int)),
    "frozen_virtual": ((), _list_of(int)),
    "ansatz": ("adapt", str),
    "pool": (_ADAPT_DEFAULTS.pool_kind, str),
    "k": (1, int),
    "rule": (_ADAPT_DEFAULTS.rule, str),
    "subpool_size": (_ADAPT_DEFAULTS.subpool_size, int),
    "optimizer": (_ADAPT_DEFAULTS.optimizer, str),
    "eps_opt": (_ADAPT_DEFAULTS.eps_opt, float),
    "eps_halt": (_ADAPT_DEFAULTS.eps_halt, float),
    "eps_truncation": (_ADAPT_DEFAULTS.eps_truncation, float),
    "max_iterations": (_ADAPT_DEFAULTS.max_iterations, int),
    "growth_p": (0.0, float),
    "noise_scheme": ("gate_by_gate", str),
    "noise_multiplier": (1.0, float),
    "p_grid": ((0.0, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3), _list_of(float)),
    "zne_multiplier": (3.0, float),
    "workers": (0, int),
    "dense_limit": (DENSITY_LIMIT_DEFAULT, int),
    "out": ("results", str),
}


def _format_value(value):
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_file(path):
    """Read ``key = value`` lines; '#' starts a comment."""
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def resolve_config(raw):
    """Validate raw string settings against the schema.

    Every key gets an explicit value (default or override) so the
    resolved config alone reproduces the run.
    """
    config = {key: default for key, (default, _) in SCHEMA.items()}
    for key, text in raw.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        parser = SCHEMA[key][1]
        try:
            config[key] = parser(text) if isinstance(text, str) else text
        except ValueError as err:
            raise ConfigError(f"{key}: {err}") from None
    _validate(config)
    return config


def _require(condition, key, message):
    if not condition:
        raise ConfigError(f"{key}: {message}")


def _validate(config):
    if not config["fcidump"]:
        _require(config["molecule"] in BUNDLED_MOLECULES, "molecule",
                 f"unknown molecule; choose from {BUNDLED_MOLECULES} "
                 "or set fcidump")
    _require(config["ansatz"] in ANSATZ_KINDS, "ansatz",
             f"choose from {ANSATZ_KINDS}")
    _require(config["pool"] in POOL_BUILDERS, "pool",
             f"choose from {tuple(POOL_BUILDERS)}")
    _require(config["rule"] in RULES, "rule", f"choose from {RULES}")
    _require(config["optimizer"] in OPTIMIZERS, "optimizer",
             f"choose from {OPTIMIZERS}")
    _require(config["noise_scheme"] in SCHEMES, "noise_scheme",
             f"choose from {SCHEMES}")
    _require(config["k"] >= 1, "k", "need at least one product layer")
    _require(config["subpool_size"] >= 1, "subpool_size", "must be >= 1")
    for key in ("eps_opt", "eps_halt", "eps_truncation"):
        _require(config[key] > 0.0, key, "must be positive")
    _require(config["max_iterations"] >= 0, "max_iterations",
             "must be >= 0")
    _require(0.0 <= config["growth_p"] <= 1.0, "growth_p",
             "probability outside [0, 1]")
    _require(config["noise_multiplier"] > 0.0, "noise_multiplier",
             "must be positive")
    # the probabilities that run are these values times noise_multiplier
    _require(config["growth_p"] * config["noise_multiplier"] <= 1.0,
             "growth_p", "growth_p x noise_multiplier exceeds 1")
    grid = config["p_grid"]
    _require(len(grid) > 0, "p_grid", "empty grid")
    _require(all(0.0 <= p <= 1.0 for p in grid), "p_grid",
             "probabilities outside [0, 1]")
    _require(all(b > a for a, b in zip(grid, grid[1:])), "p_grid",
             "must be strictly increasing")
    _require(max(grid) * config["noise_multiplier"] <= 1.0, "p_grid",
             "max(p_grid) x noise_multiplier exceeds 1")
    _require(config["zne_multiplier"] > 1.0, "zne_multiplier",
             "must exceed 1")
    _require(config["workers"] >= 0, "workers", "must be >= 0")
    _require(1 <= config["dense_limit"] <= DENSITY_LIMIT_HARD, "dense_limit",
             f"must lie in [1, {DENSITY_LIMIT_HARD}]")
    if config["ansatz"] == "uccsd":
        _require(config["pool"] in ("fermionic", "qeb"), "pool",
                 "uccsd supports fermionic or qeb pools")


# Execution placement cannot change any numeric result, so these keys
# stay out of the hash; runs differing only in them emit identical files.
UNHASHED_KEYS = ("workers", "out")


def resolved_text(config):
    lines = [f"{key} = {_format_value(config[key])}"
             for key in sorted(config)]
    return "\n".join(lines) + "\n"


def config_hash(config):
    hashed = {k: v for k, v in config.items() if k not in UNHASHED_KEYS}
    return hashlib.sha256(resolved_text(hashed).encode()).hexdigest()


def _load_integrals(config):
    """Integrals of ``fcidump``, else of the bundled ``molecule``, and the
    frozen-orbital spec."""
    frozen = FrozenCoreSpec(config["frozen_occupied"],
                            config["frozen_virtual"])
    if config["fcidump"]:
        return load_fcidump(config["fcidump"]), frozen
    with resources.as_file(data_path(config["molecule"])) as path:
        return load_fcidump(path), frozen


def load_problem(config):
    return Problem.from_integrals(*_load_integrals(config))


def _adapt_config(config, n_qubits):
    """Growth settings; noisy growth above ``dense_limit`` qubits is refused."""
    noise = NoiseModel(config["growth_p"] * config["noise_multiplier"],
                       config["noise_scheme"])
    if noise.is_noisy and n_qubits > config["dense_limit"]:
        raise ResourceLimitError(f"{n_qubits} qubits exceeds the density-"
                                 f"matrix limit {config['dense_limit']}")
    return AdaptConfig(
        pool_kind=config["pool"],
        rule=config["rule"],
        subpool_size=config["subpool_size"],
        optimizer=config["optimizer"],
        eps_opt=config["eps_opt"],
        eps_halt=config["eps_halt"],
        eps_truncation=config["eps_truncation"],
        max_iterations=config["max_iterations"],
        noise=noise,
    )


def grow_circuits(config, problem):
    """Build the circuit family to analyze: one prefix per depth.

    ADAPT prefixes replay the recorded growth path; fixed ansatz kinds
    are optimized jointly and truncated from the tail. Returns the
    prefixes and whether every optimization behind them converged; a
    warning on stderr says when one did not.
    """
    if config["ansatz"] == "adapt":
        record = adapt_run(problem, _adapt_config(config, problem.n_qubits))
        prefixes = truncation_prefixes(record)
        converged = all(it.converged for it in record.iterations)
    else:
        if config["ansatz"] == "uccsd":
            full = build_uccsd(problem.n_qubits, problem.n_electrons,
                               pool_kind=config["pool"])
        else:
            full = build_kupccgsd(problem.n_qubits, problem.n_electrons,
                                  config["k"])
        reference = hartree_fock_index(problem.n_electrons)
        result = optimize_parameters(
            full, np.zeros(full.n_params), problem.hamiltonian, reference,
            optimizer=config["optimizer"], eps_opt=config["eps_opt"],
            n_qubits=problem.n_qubits,
        )
        prefixes = [(n, Ansatz.from_elements(full.elements[:n]), result.x[:n])
                    for n in range(len(full.elements) + 1)]
        converged = result.converged
    if not converged:
        print("warning: the circuit parameters come from an optimization "
              "that did not converge", file=sys.stderr)
    return prefixes, converged


def _ensure_out(config):
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _write_csv(path, header, rows, digest):
    """CSV with full double precision and an embedded config hash."""
    lines = [f"# config_hash={digest}", ",".join(header)]
    for row in rows:
        lines.append(",".join(
            format(v, ".17g") if isinstance(v, float) else str(v)
            for v in row
        ))
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def _emit_resolved(config, out):
    path = out / "resolved_config.txt"
    path.write_text(resolved_text(config))
    return config_hash(config)


def cmd_fci(config, out):
    """Reference energies from exact diagonalization."""
    ints, frozen = _load_integrals(config)
    built = build_hamiltonian(ints, frozen)
    _, n_so, _, shift = built
    digest = _emit_resolved(config, out)
    if n_so == 0:
        payload = {
            "config_hash": digest, "version": __version__,
            "n_qubits": 0, "n_electrons": 0,
            "core_energy": shift, "e_fci": shift, "e_max": shift,
        }
        print(f"E_FCI = {shift:.12f} (core energy only; no active space)")
    else:
        problem = Problem.from_hamiltonian(ints, frozen, built)
        payload = {
            "config_hash": digest, "version": __version__,
            "n_qubits": problem.n_qubits,
            "n_electrons": problem.n_electrons,
            "core_energy": problem.core_energy,
            "e_fci": problem.fci_energy, "e_max": problem.max_energy,
        }
        print(f"E_FCI = {problem.fci_energy:.12f}")
        print(f"E_max = {problem.max_energy:.12f}")
    _write_json(out / "fci.json", payload)
    return EXIT_OK


def cmd_adapt(config, out):
    """Grow and persist an adaptive ansatz."""
    problem = load_problem(config)
    record = adapt_run(problem, _adapt_config(config, problem.n_qubits))
    digest = _emit_resolved(config, out)
    payload = {
        "config_hash": digest, "version": __version__,
        "status": record.status,
        "n_iterations": record.n_iterations,
        "reference_index": record.reference_index,
        "initial_energy": record.initial_energy,
        "final_energy": record.final_energy,
        "e_fci": problem.fci_energy,
        "iterations": [
            {
                "label": it.label,
                "energy": it.energy,
                "params": list(it.params),
                "pool_gradients": list(it.gradients),
                "cumulative_cnots": it.cumulative_cnots,
                "converged": it.converged,
                "n_evaluations": it.n_evaluations,
                "n_gradients": it.n_gradients,
                "screened_energies": [list(pair)
                                      for pair in it.screened_energies],
            }
            for it in record.iterations
        ],
    }
    _write_json(out / "adapt_record.json", payload)
    error = record.final_energy - problem.fci_energy
    print(f"status={record.status} iterations={record.n_iterations} "
          f"E={record.final_energy:.12f} dE={error:.3e}")
    if record.status == "stalled":
        return EXIT_STALLED
    if record.status == "max_iterations":
        return EXIT_RESOURCE
    return EXIT_OK


def run_grids(config, grids):
    """The grown prefixes and one ``SweepTable`` per probability grid.

    Every p of every grid runs as p x noise_multiplier over all prefixes,
    in one worker pool (inline for one worker or one task) that returns
    cells in submission order, so no table depends on the worker count.
    """
    problem = load_problem(config)
    prefixes, _ = grow_circuits(config, problem)
    task = functools.partial(
        sweep_noise, prefixes, problem.hamiltonian,
        reference=hartree_fock_index(problem.n_electrons),
        fci_energy=problem.fci_energy, scheme=config["noise_scheme"],
        n_qubits=problem.n_qubits,
    )
    p_lists = [[p * config["noise_multiplier"]] for grid in grids
               for p in grid]
    workers = config["workers"] or os.cpu_count() or 1
    if workers == 1 or len(p_lists) == 1:
        cells = list(map(task, p_lists))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(task, p_lists))
    tables = []
    for grid in grids:
        rows, cells = cells[:len(grid)], cells[len(grid):]
        tables.append(SweepTable(
            p_values=tuple(row.p_values[0] for row in rows),
            lengths=rows[0].lengths,
            delta_e=np.array([row.delta_e[0] for row in rows]),
        ))
    return prefixes, tables


def cmd_sweep(config, out):
    """Energy accuracy over the (p, circuit-depth) grid."""
    prefixes, (table,) = run_grids(config, [config["p_grid"]])
    digest = _emit_resolved(config, out)
    n_ii = [cnot_count(ansatz) for _, ansatz, _ in prefixes]
    rows = []
    for i, p in enumerate(table.p_values):
        for j, n in enumerate(table.lengths):
            rows.append((p, n, float(table.delta_e[i, j]), n_ii[j],
                         config["noise_scheme"]))
    _write_csv(out / "sweep.csv", ("p", "n", "delta_E", "n_ii", "scheme"),
               rows, digest)
    return EXIT_OK


def cmd_susceptibility(config, out):
    """Linear noise response of the fully grown circuit."""
    problem = load_problem(config)
    prefixes, converged = grow_circuits(config, problem)
    n, ansatz, params = prefixes[-1]
    reference = hartree_fock_index(problem.n_electrons)
    report = noise_susceptibility(
        ansatz, params, problem.hamiltonian, reference,
        scheme=config["noise_scheme"], n_qubits=problem.n_qubits,
    )
    residual = report.e_unperturbed - problem.fci_energy
    estimate = estimate_pc(report, residual)
    digest = _emit_resolved(config, out)
    payload = {
        "config_hash": digest, "version": __version__,
        "n_elements": n, "scheme": config["noise_scheme"],
        "chi": report.chi, "delta_e": report.delta_e,
        "delta_e_defined": report.delta_e_defined,
        "n_ii": report.n_ii, "e_unperturbed": report.e_unperturbed,
        "residual": residual,
        "p_c": estimate.p_c, "unreachable": estimate.unreachable,
        "chi_flagged": estimate.chi_flagged,
        "optimizer_converged": converged,
        "fluctuations": [list(f) for f in report.fluctuations],
    }
    _write_json(out / "susceptibility.json", payload)
    print(f"chi={report.chi:.8f} delta_e={report.delta_e:.8f} "
          f"n_ii={report.n_ii} p_c={estimate.p_c:.3e}")
    return EXIT_OK


def cmd_zne(config, out):
    """Sweep with linear zero-noise extrapolation alongside raw values."""
    m = config["zne_multiplier"]
    grid = config["p_grid"]
    amplified_max = m * max(grid) * config["noise_multiplier"]
    if amplified_max > 1.0:
        raise ConfigError(
            f"zne_multiplier: amplified probability {amplified_max} exceeds "
            "1; shrink p_grid, noise_multiplier or zne_multiplier"
        )
    prefixes, (raw, amplified) = run_grids(config,
                                           [grid, [m * p for p in grid]])
    digest = _emit_resolved(config, out)
    n_ii = [cnot_count(ansatz) for _, ansatz, _ in prefixes]
    rows = []
    for i, p in enumerate(raw.p_values):
        for j, n in enumerate(raw.lengths):
            e_raw = float(raw.delta_e[i, j])
            mitigated = zne_linear(e_raw, float(amplified.delta_e[i, j]), m)
            rows.append((p, n, e_raw, mitigated, n_ii[j],
                         config["noise_scheme"]))
    _write_csv(
        out / "zne.csv",
        ("p", "n", "delta_E", "delta_E_zne", "n_ii", "scheme"),
        rows, digest,
    )
    return EXIT_OK


def cmd_truncate_scan(config, out):
    """Best truncation depth for each noise level."""
    _, (table,) = run_grids(config, [config["p_grid"]])
    digest = _emit_resolved(config, out)
    rows = optimal_truncation(table)
    _write_csv(out / "truncate_scan.csv", ("p", "n_opt", "delta_E"),
               rows, digest)
    return EXIT_OK


COMMANDS = {
    "fci": cmd_fci,
    "adapt": cmd_adapt,
    "sweep": cmd_sweep,
    "susceptibility": cmd_susceptibility,
    "zne": cmd_zne,
    "truncate-scan": cmd_truncate_scan,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vqenoise",
        description="Noisy-VQE experiments from a declarative config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in COMMANDS.items():
        cmd = sub.add_parser(name, help=func.__doc__)
        cmd.add_argument("--config", help="key = value settings file")
        cmd.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE", dest="overrides",
                         help="override a config key (repeatable)")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--workers", type=int,
                         help="parallel grid workers (0 = auto)")
    return parser


def _gather_config(args):
    raw = parse_config_file(args.config) if args.config else {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    if args.workers is not None:
        raw["workers"] = str(args.workers)
    if args.out is not None:
        raw["out"] = args.out
    return resolve_config(raw)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _gather_config(args)
        out = _ensure_out(config)
        return COMMANDS[args.command](config, out)
    except (ConfigError, DimensionError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except StalledError as err:
        print(f"stalled: {err}", file=sys.stderr)
        return EXIT_STALLED
    except (ResourceLimitError, MemoryError) as err:  # or an allocation failed
        print(f"resource limit: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except NumericIntegrityError as err:
        print(f"numeric integrity: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except VqeNoiseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
