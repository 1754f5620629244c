"""The benchmark's layer tracer looks up every function it wraps by name;
each of those names must stay importable from its spinduct module."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "spinbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("spinbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for name in tracing.LAYERS:
        mod, fn = name.split(".")
        assert callable(getattr(importlib.import_module("spinduct." + mod), fn)), name


def _verify_child(*extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "spinbench" / "child.py"), "verify", "--seed", "0",
         "--suites", "appendixC,spinc", *extra],
        capture_output=True, text=True, cwd=ROOT, env=env, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_child_sees_the_cached_layers_reused(tmp_path):
    """The tracer wraps the cached functions from outside; it must leave the
    output unchanged and see their results come back from the cache."""
    plain = _verify_child()
    traced = _verify_child("--trace-dir", str(tmp_path))
    assert plain["digest"] == traced["digest"]
    assert traced["layers"]["weyl.generate_weyl.reused"] > 0
    assert traced["layers"]["charring.weyl_denominator.reused"] > 0
