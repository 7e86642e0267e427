"""Smoke test of ``tools/pass_digest.py``, the bit-identity check between
two checkouts: every workload digests, the built operators digest, and
the caches that a process keeps between passes leave the digests
unchanged."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pass_digest.py"


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
