"""Smoke test of ``tools/pass_digest.py``, the bit-identity check between
two checkouts: every workload digests, the built operators digest, and
the caches that a process keeps between passes leave the digests
unchanged, whether they start full or empty."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pass_digest.py"


def empty_caches():
    """Empty every cache that the package keeps between passes."""
    from vqenoise import ansatz, pauli_transfer

    pauli_transfer._grids.held.clear()
    pauli_transfer._term_codes.held.clear()
    pauli_transfer._term_slots.cache_clear()
    ansatz.build_pool.cache_clear()


def load_tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends
    spec = importlib.util.spec_from_file_location("pass_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digests_repeat_within_one_process(monkeypatch):
    tool = load_tool(monkeypatch)
    names = tool.run.WORKLOAD_NAMES
    first, second = (list(tool.digests(names, 2, "h2")) for _ in range(2))
    assert [(name, seed) for name, seed, _ in first] == [
        (name, seed) for name in names for seed in range(2)]
    assert all(len(digest) == 64 for _, _, digest in first)
    assert first == second


def test_operator_digest_repeats_within_one_process(monkeypatch, capsys):
    tool = load_tool(monkeypatch)
    first = tool.operator_digest()
    assert len(first) == 64
    assert tool.main(["--operators"]) == 0
    assert capsys.readouterr().out == f"operators {first}\n"


def test_cold_passes_digest_as_warm_ones(monkeypatch):
    """A pass that starts with every kept cache empty gives the digest of
    a pass that starts with them filled by the passes before it."""
    tool = load_tool(monkeypatch)
    names = tool.run.WORKLOAD_NAMES
    list(tool.digests(names, 2, "h2"))  # fills the caches
    warm = list(tool.digests(names, 2, "h2"))
    cold = []
    empty_caches()
    for digest in tool.digests(names, 2, "h2"):  # empties before each pass
        cold.append(digest)
        empty_caches()
    assert cold == warm
