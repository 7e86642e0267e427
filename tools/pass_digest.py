"""Print the sha256 of one benchmark pass's canonical JSON per workload and
seed, so that two checkouts can be compared for bit-identical outputs.

    python3 tools/pass_digest.py [--workload chi ...] [--seeds 9] > digests

prints one line ``workload seed sha256`` per pass, for seeds 0 .. N-1
(every golden grid point at the default 9). Run it in each checkout and
``diff`` the two files.

    python3 tools/pass_digest.py --operators

prints one line ``operators sha256`` over the built operators instead
(``operator_digest``), to diff operator-algebra changes the same way.

It reads the checkout it sits in, imports ``bench/workloads.py`` and
``bench/run.py`` as they are, and pins BLAS to one thread as the
benchmark does.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402  (imports no numpy, so the BLAS pin below holds)


def digests(names, seeds: int, size: str):
    """(workload, seed, sha256 of ``run.canonical`` of one pass)."""
    import workloads

    for name in names:
        for seed in range(seeds):
            ctx = workloads.setup(name, size, seed)
            text = run.canonical(workloads.run_pass(ctx))
            yield name, seed, hashlib.sha256(text.encode()).hexdigest()


def operator_digest() -> str:
    """sha256 over every bundled Hamiltonian, then every pool, UCCSD and
    k-UpCCGSD (k = 2) generator at H2 (4, 2) and H4 (8, 4): each operator's
    terms in order, as masks and the bits of their coefficients."""
    import vqenoise as vq

    digest = hashlib.sha256()

    def add(label, op):
        digest.update(f"{label} on {op.n_qubits}\n".encode())
        for ps, c in op.terms.items():
            digest.update(f"{ps.x_mask} {ps.z_mask} {c.real.hex()} "
                          f"{c.imag.hex()}\n".encode())

    for name in vq.BUNDLED_MOLECULES:
        add(name, vq.load_bundled(name).hamiltonian)
    for n, n_e in ((4, 2), (8, 4)):
        ansatze = {kind: vq.build_pool(kind, n, n_e).elements
                   for kind in ("fermionic", "qeb", "qubit_pauli")}
        for kind in ("fermionic", "qeb"):
            ansatze[f"uccsd {kind}"] = vq.build_uccsd(n, n_e, kind).elements
        ansatze["kupccgsd"] = vq.build_kupccgsd(n, n_e, 2).elements
        for kind, elements in ansatze.items():
            for element in elements:
                add(f"{kind} {element.label}", element.generator)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOAD_NAMES,
                        help="repeat to pick several; default: all four")
    parser.add_argument("--seeds", type=int, default=9,
                        help="digest seeds 0 .. N-1 (default 9)")
    parser.add_argument("--size", choices=("h4", "h2"), default="h4")
    parser.add_argument("--operators", action="store_true",
                        help="print the digest of the built operators only")
    args = parser.parse_args(argv)
    if args.operators:
        print("operators", operator_digest())
        return 0
    if args.seeds < 1:
        parser.error("--seeds must be positive")
    os.environ.update({var: "1" for var in run.BLAS_THREAD_VARS})
    for name, seed, digest in digests(args.workload or run.WORKLOAD_NAMES,
                                      args.seeds, args.size):
        print(name, seed, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
