"""The benchmark's layer tracer looks up every function it wraps by name;
each of those names must stay importable from its spinduct module."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "spinbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("spinbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for name in tracing.LAYERS:
        mod, fn = name.split(".")
        assert callable(getattr(importlib.import_module("spinduct." + mod), fn)), name
