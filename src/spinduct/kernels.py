"""Kernel dispatch: compiled extension when available, pure Python otherwise.

The compiled kernels use checked 64-bit arithmetic and raise OverflowError
when a value leaves the safe range; the wrappers transparently redo the
call with the exact pure backend, so results are always exact.  Set
SPINDUCT_NO_EXT=1 to force the pure backend.
"""

from __future__ import annotations

import os

from . import _kernels_py as _py

_ext = None
if not os.environ.get("SPINDUCT_NO_EXT"):
    try:
        from . import _kernels as _ext  # type: ignore[attr-defined]
    except ImportError:
        _ext = None

BACKEND = "cython" if _ext is not None else "python"


def backend_name() -> str:
    return BACKEND


def _dispatch(name, *args):
    if _ext is not None:
        try:
            return getattr(_ext, name)(*args)
        except OverflowError:
            pass
    return getattr(_py, name)(*args)


def convolve(a, b):
    return _dispatch("convolve", a, b)


def weyl_sum(mats, dets, shifts, coeffs):
    return _dispatch("weyl_sum", mats, dets, shifts, coeffs)


def dominant_collect(coeffs, basis, coroots, max_steps):
    return _dispatch("dominant_collect", coeffs, basis, coroots, max_steps)


# the one chamber walk and the orbit walks replayed along cached trees; the
# compiled orbit_expand takes no tree table, so it is not dispatched
OrbitTree = _py.OrbitTree
dominant_walk = _py.dominant_walk
orbit_expand = _py.orbit_expand
signed_orbit = _py.signed_orbit
