"""Smoke test of ``tools/pass_digest.py``, the bit-identity check between
two checkouts: every workload digests, and the caches that a process
keeps between passes leave the digests unchanged."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pass_digest.py"


def test_digests_repeat_within_one_process(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends
    spec = importlib.util.spec_from_file_location("pass_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = tool.run.WORKLOAD_NAMES
    first, second = (list(tool.digests(names, 2, "h2")) for _ in range(2))
    assert [(name, seed) for name, seed, _ in first] == [
        (name, seed) for name in names for seed in range(2)]
    assert all(len(digest) == 64 for _, _, digest in first)
    assert first == second
