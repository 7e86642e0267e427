"""Per-layer tracing of public vqenoise functions, from outside the package.

``Tracer.install`` rebinds each traced function in every loaded
``vqenoise`` module namespace that holds it (``pauli_action`` is bound in
operators, simulator, analysis and adapt), so calls between modules go
through the wrapper too. ``uninstall`` puts every original back, and
``leftovers`` proves it. Nothing in the package itself changes.

A span has a name, a start, an end and a parent (the innermost traced
call it ran under). Spans of hot leaves, called up to millions of times
per pass, are only aggregated per (name, parent); the others are also
kept one by one in ``spans``. Self time is a span's duration minus the
durations of the traced spans directly under it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Bytes one density-matrix gate or channel reads and writes: 2 x 16 B x 4^n.
DM_BYTES_PER_ELEMENT = 2 * 16


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _state_kind(args, kwargs):
    # expectation(h, state): state is a QuantumState or a bare array
    state = _arg(args, kwargs, 1, "state")
    return "dm" if getattr(state, "data", state).ndim == 2 else "vec"


def _noise_kind(args, kwargs):
    noise = _arg(args, kwargs, 3, "noise")
    return "dm" if noise is not None and noise.is_noisy else "vec"


def _density_kind(args, kwargs):
    return "dm" if _arg(args, kwargs, 0, "state").is_density else "vec"


def _gate_kind(args, kwargs):
    if not _arg(args, kwargs, 0, "state").is_density:
        return "vec"
    return "dm_cnot" if _arg(args, kwargs, 1, "gate").is_cnot else "dm_1q"


def _count_kernels(tracer, args, kwargs, result):
    """Computed work of one noisy element application.

    gate_by_gate: the element's compiled gates, one channel per CNOT;
    element_by_element: one channel per scheduled CNOT target, after an
    exact element evolution that is not counted as a gate.
    """
    noise = _arg(args, kwargs, 3, "noise")
    if not noise.is_noisy:
        return
    element = _arg(args, kwargs, 1, "element")
    counts = tracer.kernel_counts.get(element)
    if counts is None:
        gates = tracer.originals["compile_element"](element, 0.0)
        cnots = sum(1 for g in gates if g.is_cnot)
        scheduled = sum(count for _, count in element.cnot_schedule)
        counts = tracer.kernel_counts[element] = (cnots, len(gates) - cnots, scheduled)
    cnots, ones, scheduled = counts
    c = tracer.counters
    if noise.scheme == "gate_by_gate":
        c["simulator.cnots_computed"] += cnots
        c["simulator.gates_1q_computed"] += ones
        c["simulator.channels.count"] += cnots
        kernels = 2 * cnots + ones
    else:
        c["simulator.channels.count"] += scheduled
        kernels = scheduled
    n = _arg(args, kwargs, 0, "state").n_qubits
    c["simulator.dm_bytes_computed"] += kernels * DM_BYTES_PER_ELEMENT * 4 ** n


def _count_iterations(tracer, args, kwargs, result):
    tracer.counters["adapt.iterations"] += result.n_iterations


def _count_evaluations(tracer, args, kwargs, result):
    tracer.counters["adapt.optimize_parameters.evaluations"] += result.n_evaluations
    tracer.counters["adapt.optimize_parameters.converged"] += bool(result.converged)


# (module, function, variant of the call, hot leaf, hook run on the result)
TARGETS = (
    ("chem", "load_bundled", None, False, None),
    ("ansatz", "build_pool", None, False, None),
    ("operators", "pauli_action", None, True, None),
    ("operators", "expectation", _state_kind, True, None),
    ("simulator", "run_circuit", _noise_kind, False, None),
    ("simulator", "apply_element", _density_kind, True, None),
    ("simulator", "apply_gate", _gate_kind, True, None),
    ("simulator", "apply_noisy_element", None, True, _count_kernels),
    ("simulator", "compile_element", None, True, None),
    ("analysis", "noise_susceptibility", None, False, None),
    ("analysis", "sweep_noise", None, False, None),
    ("adapt", "adapt_run", None, False, _count_iterations),
    ("adapt", "optimize_parameters", None, False, _count_evaluations),
    ("adapt", "pool_gradients", None, False, None),
    ("adapt", "finite_difference_pool_gradients", None, False, None),
    ("adapt", "select_energy_rule", None, False, None),
)

VARIANTS = {
    "expectation": ("vec", "dm"),
    "run_circuit": ("vec", "dm"),
    "apply_element": ("vec", "dm"),
    "apply_gate": ("vec", "dm_cnot", "dm_1q"),
}

# Derived from the compiled circuits and CNOT schedules, not observed.
COMPUTED = (
    ("simulator.cnots_computed", "count"),
    ("simulator.gates_1q_computed", "count"),
    ("simulator.channels.count", "count"),
    ("simulator.dm_bytes_computed", "B"),
)
COUNTERS = (
    ("adapt.iterations", "count"),
    ("adapt.optimize_parameters.evaluations", "count"),
) + COMPUTED


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for module, function, _, _, _ in TARGETS:
        for variant in VARIANTS.get(function, (None,)):
            name = f"{module}.{function}"
            if variant is not None:
                name = f"{name}.{variant}"
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["adapt.optimize_parameters.converged_ratio"] = "ratio"
    return units


def _vqenoise_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "vqenoise" or name.startswith("vqenoise.")]


class Tracer:
    """Collects spans and counters while installed; may be installed again."""

    def __init__(self):
        self.stats = {}  # (span name, parent name) -> [calls, self seconds]
        self.spans = []  # (name, start, end, parent) of non-hot spans
        self.counters = defaultdict(float)
        self.kernel_counts = {}
        self.originals = {}
        self.origin = None
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, variant, hot, hook):
        stack, stats, spans = self._stack, self.stats, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if variant is None else f"{name}.{variant(args, kwargs)}"
            parent = stack[-1][0] if stack else ""
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat = stats.get((label, parent))
                if stat is None:
                    stat = stats[(label, parent)] = [0, 0.0]
                stat[0] += 1
                stat[1] += duration - frame[1]
                if not hot:
                    spans.append((label, start, end, parent))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.bench_traced = name
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import vqenoise  # noqa: F401  (loads every traced module)

        if self.origin is None:
            self.origin = time.perf_counter()
        modules = _vqenoise_modules()
        for module, function, variant, hot, hook in TARGETS:
            original = getattr(sys.modules[f"vqenoise.{module}"], function)
            self.originals[function] = original
            wrapper = self._wrap(original, f"{module}.{function}", variant, hot, hook)
            for m in modules:
                if vars(m).get(function) is original:
                    setattr(m, function, wrapper)
                    self._patches.append((m, function, original))

    def uninstall(self):
        for m, function, original in reversed(self._patches):
            setattr(m, function, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @staticmethod
    def leftovers() -> list[str]:
        """Names in vqenoise modules still bound to a tracing wrapper."""
        return sorted(
            f"{m.__name__}.{key}"
            for m in _vqenoise_modules()
            for key, value in vars(m).items()
            if getattr(value, "bench_traced", None) is not None
        )

    def bindings(self) -> list[str]:
        """Every ``module.function`` currently rebound by this tracer."""
        return sorted(f"{m.__name__}.{function}" for m, function, _ in self._patches)

    def summary(self) -> dict:
        """Self time per (span, parent) and the top-level spans in order."""
        return {
            "by_parent": {f"{label} <- {parent or '(root)'}": [calls, self_s]
                          for (label, parent), (calls, self_s)
                          in sorted(self.stats.items())},
            "top_level": [[label, start - self.origin, end - start]
                          for label, start, end, parent in self.spans
                          if not parent],
            "spans_kept": len(self.spans),
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, summed over parents; zero where not called."""
        values = {name: 0.0 for name in metric_units()}
        for (label, _), (calls, self_s) in self.stats.items():
            values[f"{label}.calls"] += calls
            values[f"{label}.self_s"] += self_s
        for name, value in self.counters.items():
            if name in values:
                values[name] += value
        optimizations = values["adapt.optimize_parameters.calls"]
        values["adapt.optimize_parameters.converged_ratio"] = (
            self.counters["adapt.optimize_parameters.converged"] / optimizations
            if optimizations else 0.0
        )
        return values
