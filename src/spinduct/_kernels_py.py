"""Pure-Python reference kernels for the hot inner loops.

All four kernels operate on finitely supported integer maps whose keys are
integer coordinate tuples.  Coefficients are Python ints, so this backend
is exact at any size; the compiled backend mirrors the same contracts with
checked 64-bit arithmetic.
"""

from __future__ import annotations

from operator import add, mul
from typing import Dict, List, Sequence, Tuple

Key = Tuple[int, ...]
Support = Dict[Key, int]


def convolve(a: Support, b: Support) -> Support:
    """Product of two sparse Laurent elements: sum of a[k1]*b[k2] at k1+k2."""
    if len(a) > len(b):
        a, b = b, a
    out: Support = {}
    items = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in items:
            k = tuple(map(add, k1, k2))
            c = out.get(k, 0) + c1 * c2
            if c:
                out[k] = c
            elif k in out:
                del out[k]
    return out


def weyl_sum(
    mats: Sequence[Sequence[Sequence[int]]],
    dets: Sequence[int],
    shifts: Sequence[Key],
    coeffs: Support,
) -> Support:
    """Sum over group elements w of det_w * sum_k c_k e^(M_w k + t_w)."""
    out: Support = {}
    items = list(coeffs.items())
    for mat, det, t in zip(mats, dets, shifts):
        rows = list(zip(mat, t))
        for k, c in items:
            nk = tuple([sum(map(mul, row, k), t_i) for row, t_i in rows])
            v = out.get(nk, 0) + det * c
            if v:
                out[nk] = v
            elif nk in out:
                del out[nk]
    return out


def dominant_walk(
    x: Sequence[int],
    basis: Sequence[Key],
    coroots: Sequence[Key],
    max_steps: int,
) -> Tuple[Key, List[int], bool]:
    """Walk a weight into the closed dominant chamber by simple reflections.

    Returns (image, path, regular): the dominant image, the indices of the
    reflections taken in order (the first one applied first), and whether
    the image is off every wall.  Keys may be scaled weights (a common
    positive denominator multiplied through commutes with all reflections).

    Each reflection s_i with <alpha_i^vee, x> < 0 lowers by one the number
    of positive roots pairing negatively with x, so the walk takes at most
    |R^+| steps; for a regular weight it takes exactly l(w) steps, where
    w(x) is strictly dominant.
    """
    y = x
    path: List[int] = []
    while True:
        moved = False
        regular = True
        for i, cv in enumerate(coroots):
            p = sum(map(mul, cv, y))
            if p < 0:
                y = [u - p * a for u, a in zip(y, basis[i])]
                path.append(i)
                moved = True
            elif p == 0:
                regular = False
        if not moved:
            return tuple(y), path, regular
        if len(path) > max_steps:
            raise AssertionError("chamber walk exceeded its step bound")


def dominant_collect(
    coeffs: Support,
    basis: Sequence[Key],
    coroots: Sequence[Key],
    max_steps: int,
) -> Support:
    """Reduce every monomial to the (strictly) dominant chamber with sign.

    Keys are scaled weights.  Monomials on a wall are dropped; regular ones
    accumulate det(w) times their coefficient at the dominant image.
    """
    out: Support = {}
    for key, c in coeffs.items():
        k, path, regular = dominant_walk(key, basis, coroots, max_steps)
        if not regular:
            continue
        v = out.get(k, 0) + (-c if len(path) % 2 else c)
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def _orbit_sum(
    items: Sequence[Tuple[Key, int]],
    basis: Sequence[Key],
    coroots: Sequence[Key],
    flip: int,
) -> Support:
    """Sum of c * flip^k * e^x over the points x at level k of the Weyl orbit
    of each listed dominant key, walked level by level from the key.

    A point x goes to s_i x whenever <alpha_i^vee, x> > 0.  s_i permutes the
    positive roots other than alpha_i, so that step raises by exactly one the
    number of positive roots pairing negatively with the point: the levels
    are disjoint, and duplicates can only arise within one level.  For a
    strictly dominant key, level k is {w key : l(w) = k}.
    """
    steps = list(zip(coroots, basis))
    out: Support = {}
    for key, c in items:
        level = {key}
        while level:
            nxt = set()
            for x in level:
                v = out.get(x, 0) + c
                if v:
                    out[x] = v
                elif x in out:
                    del out[x]
                for cv, al in steps:
                    p = sum(map(mul, cv, x))
                    if p > 0:
                        nxt.add(tuple([u - p * a for u, a in zip(x, al)]))
            level = nxt
            c *= flip
    return out


def orbit_expand(
    items: Sequence[Tuple[Key, int]],
    basis: Sequence[Key],
    coroots: Sequence[Key],
) -> Support:
    """Sum of m * e^(w mu) over each orbit of the listed dominant weights."""
    return _orbit_sum(items, basis, coroots, 1)


def signed_orbit(
    items: Sequence[Tuple[Key, int]],
    basis: Sequence[Key],
    coroots: Sequence[Key],
) -> Support:
    """Sum of c * det(w) * e^(w nu) over W for each listed strictly dominant
    nu, that is c * J(e^nu): the sign flips at each level of the orbit."""
    return _orbit_sum(items, basis, coroots, -1)
