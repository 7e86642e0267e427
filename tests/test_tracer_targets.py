"""The benchmark's tracer names functions of the package by (module,
function); each must still resolve, or ``bench/run.py --trace 1`` raises
when it installs the tracer."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module, function, *_ in tracing.TARGETS:
        target = getattr(importlib.import_module(f"vqenoise.{module}"),
                         function, None)
        assert callable(target), f"vqenoise.{module}.{function}"


def test_tracer_installs_and_uninstalls():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.bindings()
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
