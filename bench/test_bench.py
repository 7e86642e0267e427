"""Tests of the benchmark itself: golden checks, tracing, output contract.

    python3 -m pytest bench/test_bench.py -q

Every run here uses the H2 size, so the module finishes in well under a
minute.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_spec_lists_exactly_the_metrics_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        **tracing.metric_units(), **run.TRACE_METRICS,
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_golden_check_flags_a_perturbed_delta_e():
    ctx = workloads.setup("sweep", "h2", workloads.DEFAULT_SEED)
    out = workloads.run_pass(ctx)
    attempted, failures = workloads.check(ctx, out)
    assert attempted == len(out) and failures == []

    cell = next(op for op in out if op.startswith("gate_by_gate/p1/"))
    perturbed = copy.deepcopy(out)
    perturbed[cell] += 1e-9
    _, failures = workloads.check(ctx, perturbed)
    assert len(failures) == 1 and failures[0].startswith(cell)


def test_every_seed_selects_an_input_with_a_golden():
    default = workloads.seed_index(workloads.DEFAULT_SEED)
    for workload, grid in (("sweep", workloads.SWEEP_P1),
                           ("noisy_grow", workloads.NOISY_P2)):
        assert grid[default] == 1e-4
        golden = workloads.load_json(workloads.golden_file(workload))
        selectable = {str(workloads.seed_index(seed)) for seed in range(100)}
        for size in workloads.SIZES:
            assert set(golden[size]) == selectable
            assert {v["p"] for v in golden[size].values()} == set(grid)


def test_wrappers_are_transparent_and_removed():
    import vqenoise

    ctx = workloads.setup("noisy_grow", "h2", workloads.DEFAULT_SEED)
    originals = {
        (module, function): getattr(getattr(vqenoise, module), function)
        for module, function, *_ in tracing.TARGETS
    }
    plain = workloads.run_pass(ctx)
    tracer = tracing.Tracer()
    with tracer:
        assert {f"vqenoise.{m}.pauli_action" for m in
                ("operators", "simulator", "analysis", "adapt")} \
            <= set(tracer.bindings())
        traced = workloads.run_pass(ctx)
    assert run.canonical(traced) == run.canonical(plain)
    assert tracing.Tracer.leftovers() == []
    for (module, function), original in originals.items():
        assert getattr(getattr(vqenoise, module), function) is original
    layers = tracer.metrics()
    assert layers["adapt.adapt_run.calls"] == len(plain)
    assert layers["simulator.apply_gate.dm_cnot.calls"] \
        == layers["simulator.cnots_computed"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_named_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "0", "--seconds", "0.05",
                  "--trace", trace, "--size", "h2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    kind = "per_layer" if trace == "1" else "end_to_end"
    names = [m["name"] for m in SPEC[kind]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == names
    for name in names:
        metric = result["metrics"][name]
        assert f"{name} {metric['value']} {metric['unit']}" in lines
    report = json.loads(lines[-2])
    assert report["error_rate"] == 0.0
    assert report["environment"]["blas_thread_pin"]["OPENBLAS_NUM_THREADS"] == "1"


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "grow", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
