"""The kernel benchmark asserts its oracles as it times (tree cold == warm,
signed orbits == apply_weyl_sum, packed == node-by-node signed orbits,
orbit-by-orbit == filter-and-rebuild decomposition, the sizes of the
timed subgroup closures and Weyl walks, one-pass == per-member
multiplet); running it here keeps those assertions, and the script
itself, in working order."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_kernels_runs_clean():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "E6 multiplet" in proc.stdout
    assert "J(e^nu) F4 packed vs node" in proc.stdout
    assert "anti_invariant_decompose F4" in proc.stdout
    assert "subgroup closure" in proc.stdout
    assert "coset search E6 > A2xA2xA2" in proc.stdout
    assert "Weyl group F4" in proc.stdout
