"""Benchmark for vqenoise: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {grow,chi,sweep,noisy_grow} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from
``src/`` (there is nothing to build). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Lines before it list every metric with its unit, the wall
time quartiles and tail, the error rate and the environment.

``--trace 0`` reports the end-to-end metrics of an untraced run:

- ``setup_s``: median over fresh processes of the time from process
  start to the end of set-up (imports, ``load_bundled``, circuit rebuild).
- ``wall_s``: median wall time of one pass that passes its golden check.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of one traced set-up plus one traced pass, and the
tracing overhead. The traced outputs must equal the untraced ones bit for
bit, every traced kernel count must equal the count computed from the
compiled circuits, and every wrapped name must be restored.

Each workload runs in one process on one thread: BLAS threads are
pinned to 1 before numpy loads, and the pin is recorded.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grow", "chi", "sweep", "noisy_grow")
# Set before numpy loads; the set-up processes inherit them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = {
    "trace.overhead_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("h4", "h2"), default="h4",
                        help="h2 shrinks every workload for smoke tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; used to time setup_s")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- environment record -------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "vqenoise").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_pin": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_runtime": _openblas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- measurement ----------------------------------------------------------

def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that import and set up, then exit."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr}")
        samples.append(elapsed)
    return samples


def timed_pass(workloads, ctx):
    start = time.perf_counter()
    out = workloads.run_pass(ctx)
    return out, time.perf_counter() - start


def canonical(out) -> str:
    # JSON writes floats with repr, so equal text means equal bits
    return json.dumps(out, sort_keys=True)


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples
    beyond it (None below 11 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3
    tail = None
    if n > 10:
        pct = 100.0 * (n - 10) / n
        tail = {"percentile": pct, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "tail": tail, "n": n}


class Tally:
    """Operations attempted and failed across every checked pass."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, workloads, ctx, out):
        attempted, failures = workloads.check(ctx, out)
        self.attempted += attempted
        self.failures.extend(failures)


class Window:
    """The measuring window: rounds run while one more round of median
    length still ends inside it, so a run does not overshoot by a whole
    pass. The first round always runs."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = self.last = None
        self.rounds = []

    def another(self) -> bool:
        now = time.perf_counter()
        if self.start is None:
            self.start = self.last = now
            return True
        self.rounds.append(now - self.last)
        self.last = now
        return now - self.start + statistics.median(self.rounds) <= self.seconds


def untraced_run(workloads, ctx, seconds, tally) -> dict:
    walls = []
    window = Window(seconds)
    while window.another():
        out, wall = timed_pass(workloads, ctx)
        walls.append(wall)
        tally.add(workloads, ctx, out)
    return {"walls": walls}


def traced_run(workloads, tracing, ctx, seconds, tally) -> dict:
    """Alternate untraced and traced passes; the first traced episode
    (one set-up plus one pass) gives the per-layer metrics."""
    untraced, traced, integrity = [], [], []
    layers = bindings = spans = None
    window = Window(seconds)
    while window.another():
        out, wall = timed_pass(workloads, ctx)
        untraced.append(wall)
        tally.add(workloads, ctx, out)
        tracer = tracing.Tracer()
        with tracer:
            if layers is None:
                workloads.setup(ctx.workload, ctx.size, ctx.seed)
                bindings = tracer.bindings()
            traced_out, traced_wall = timed_pass(workloads, ctx)
        traced.append(traced_wall)
        tally.add(workloads, ctx, traced_out)
        if canonical(traced_out) != canonical(out):
            integrity.append("traced outputs differ from untraced outputs")
        leftovers = tracing.Tracer.leftovers()
        if leftovers:
            integrity.append(f"wrappers left bound: {leftovers}")
        if layers is None:
            layers = tracer.metrics()
            spans = tracer.summary()
            for kind, computed in (("dm_cnot", "simulator.cnots_computed"),
                                   ("dm_1q", "simulator.gates_1q_computed")):
                seen = layers[f"simulator.apply_gate.{kind}.calls"]
                if seen != layers[computed]:
                    integrity.append(f"traced apply_gate.{kind} calls {seen:.0f}"
                                     f" != computed {layers[computed]:.0f}")
    untraced_median = statistics.median(untraced)
    traced_median = statistics.median(traced)
    layers.update({
        "trace.untraced_wall_s": untraced_median,
        "trace.traced_wall_s": traced_median,
        "trace.overhead_s": traced_median - untraced_median,
    })
    return {"walls": untraced, "traced_walls": traced, "layers": layers,
            "integrity": integrity, "bindings": bindings, "spans": spans}


# -- output -------------------------------------------------------------

def _value(value, unit):
    return int(value) if unit in ("count", "B") else value


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vqenoise" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'vqenoise'}; run from the "
              "root of a vqenoise checkout", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.setup_only:
        workloads.setup(args.workload, args.size, args.seed)
        return 0

    setup_samples = [] if args.trace else measure_setup(args)
    ctx = workloads.setup(args.workload, args.size, args.seed)
    tally = Tally()
    if args.trace:
        import tracing

        result = traced_run(workloads, tracing, ctx, args.seconds, tally)
        units = {**tracing.metric_units(), **TRACE_METRICS}
        metrics = {name: _value(result["layers"][name], unit)
                   for name, unit in units.items()}
    else:
        result = untraced_run(workloads, ctx, args.seconds, tally)
        units = END_TO_END
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(result["walls"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    integrity = result.get("integrity", [])
    failed = len(tally.failures)
    report = {
        "environment": environment(args),
        "wall_s": summarize(result["walls"]),
        "error_rate": failed / tally.attempted if tally.attempted else 1.0,
        "integrity_failures": integrity,
    }
    if setup_samples:
        report["setup_s"] = summarize(setup_samples)
    if args.trace:
        report["traced_wall_s"] = summarize(result["traced_walls"])
        report["rebound_names"] = result["bindings"]
        report["spans"] = result["spans"]
        report["computed_metrics"] = [name for name, _ in tracing.COMPUTED]
    for failure in tally.failures[:20] + integrity:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not integrity,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
