"""Record the benchmark's frozen circuits and golden outputs.

    python3 bench/make_data.py

Writes ``bench/data/circuits.json`` (element labels plus the parameters
at every prefix of noiseless qeb and qubit_pauli ADAPT growth, for H4 and
H2) and ``bench/data/golden_<workload>.json`` for ``chi``, ``sweep`` and
``noisy_grow`` at every seed-selectable input variant and both sizes.

The files pin the outputs of the commit they were made at. A change that
alters a number on purpose regenerates them in its own commit and says
why; never regenerate them to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import vqenoise as vq  # noqa: E402

import workloads  # noqa: E402


def record_circuits() -> dict:
    circuits = {}
    for size, molecule in workloads.MOLECULE.items():
        problem = vq.load_bundled(molecule)
        circuits[size] = {}
        for pool in ("qeb", "qubit_pauli"):
            record = vq.adapt_run(problem, vq.AdaptConfig(pool_kind=pool))
            circuits[size][pool] = {
                "molecule": molecule,
                "pool": pool,
                "status": record.status,
                "cnots": vq.cnot_count(record.ansatz),
                "labels": [it.label for it in record.iterations],
                "params": [
                    [float(v) for v in params]
                    for _, _, params in vq.truncation_prefixes(record)
                ],
            }
    return circuits


def record_golden(workload: str, n_variants: int) -> dict:
    golden = {}
    for size in workloads.SIZES:
        golden[size] = {}
        for seed in range(n_variants):
            ctx = workloads.build_context(workload, size, seed)
            start = time.perf_counter()
            outputs = workloads.run_pass(ctx)
            raised = [op for op, v in outputs.items()
                      if isinstance(v, dict) and "raised" in v]
            if raised:
                raise RuntimeError(f"{workload}/{size}: {raised} raised")
            golden[size][ctx.variant] = {"p": ctx.p, "outputs": outputs}
            print(f"{workload} {size} variant {ctx.variant} p={ctx.p:.6g}: "
                  f"{len(outputs)} outputs, "
                  f"{time.perf_counter() - start:.2f} s", flush=True)
    return golden


def write(path: Path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


def main():
    workloads.DATA_DIR.mkdir(exist_ok=True)
    write(workloads.CIRCUITS_FILE, record_circuits())
    for workload, n_variants in (("chi", 1), ("sweep", 9), ("noisy_grow", 9)):
        write(workloads.golden_file(workload), record_golden(workload, n_variants))


if __name__ == "__main__":
    main()
