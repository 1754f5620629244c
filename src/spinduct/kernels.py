"""The kernels of the hot inner loops: sparse convolution, Weyl sums,
chamber collection and the orbit walks.

All of them operate on finitely supported integer maps whose keys are
integer coordinate tuples.  Coefficients are Python ints, so every kernel
is exact at any size.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import add, mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

Key = Tuple[int, ...]
Support = Dict[Key, int]


def backend_name() -> str:
    """The kernel implementation, reported by `info` as `kernel_backend`."""
    return "python"


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


class OrbitTree(NamedTuple):
    """The breadth-first tree of one orbit walk, as parallel arrays over the
    orbit points after the first: the index of each point's parent, the
    simple reflection that maps the parent to it, and (over every point,
    the first included) the parity of its depth."""

    parent: array
    reflection: bytes
    parity: bytes


def _orbit_walk(
    key: Key, basis: Sequence[Key], coroots: Sequence[Key]
) -> Tuple[List[Key], OrbitTree]:
    """The Weyl orbit of a dominant key, walked level by level, and the tree
    the walk traces.

    A point x goes to s_i x whenever <alpha_i^vee, x> > 0.  s_i permutes the
    positive roots other than alpha_i, so that step raises by exactly one the
    number of positive roots pairing negatively with the point: the levels
    are disjoint, a point is new unless it was found earlier in its own
    level, and level k is {w key : w minimal in w W_J, l(w) = k}, where W_J
    fixes the key (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7).
    """
    steps = list(enumerate(zip(coroots, basis)))
    points = [key]
    index = {key: 0}
    parent, reflection, parity = array("i"), bytearray(), bytearray(1)
    start, depth = 0, 0
    while start < len(points):
        end, depth = len(points), depth ^ 1
        for j in range(start, end):
            x = points[j]
            for i, (cv, al) in steps:
                p = sum(map(mul, cv, x))
                if p > 0:
                    y = tuple([u - p * a for u, a in zip(x, al)])
                    if y not in index:
                        index[y] = len(points)
                        points.append(y)
                        parent.append(j)
                        reflection.append(i)
                        parity.append(depth)
        start = end
    return points, OrbitTree(parent, bytes(reflection), bytes(parity))


def _orbit_replay(
    key: Key, tree: OrbitTree, basis: Sequence[Key], coroots: Sequence[Key]
) -> List[Key]:
    """The orbit of a dominant key along a tree walked from another key with
    the same walls: each point is s_i of its parent, with no search."""
    steps = list(zip(coroots, basis))
    points = [key]
    append = points.append
    for j, i in zip(tree.parent, tree.reflection):
        x = points[j]
        cv, al = steps[i]
        p = sum(map(mul, cv, x))
        append(tuple([u - p * a for u, a in zip(x, al)]))
    return points


def _orbit_sum(
    items: Sequence[Tuple[Key, int]],
    basis: Sequence[Key],
    coroots: Sequence[Key],
    trees: Optional[Dict[Key, OrbitTree]],
    signed: bool,
) -> Support:
    """Sum of c * e^x over the Weyl orbit of each listed dominant key, times
    (-1)^l(w) at x = w key when signed.

    Whether the walk steps from x = w key by s_i depends on the sign of
    <alpha_i^vee, w key> = <w^-1 alpha_i^vee, key>, and which points
    coincide depends on the stabilizer W_J of the key, so the walk is the
    same for every key with the same walls J = {i : <alpha_i^vee, key> = 0}.
    `trees` keeps one tree per J: the first key of a type is walked and its
    tree recorded, later ones are replayed.  Distinct dominant keys have
    disjoint orbits, so repeated keys are merged first."""
    trees = {} if trees is None else trees
    merged: Support = {}
    for key, c in items:
        merged[key] = merged.get(key, 0) + c
    out: Support = {}
    for key, c in merged.items():
        if not c:
            continue
        walls = []
        for i, cv in enumerate(coroots):
            p = sum(map(mul, cv, key))
            if p < 0:
                raise ValueError(f"orbit key {key} is not dominant")
            if p == 0:
                walls.append(i)
        if signed and walls:
            raise ValueError(f"signed orbit key {key} lies on a wall")
        walls = tuple(walls)
        tree = trees.get(walls)
        if tree is None:
            points, tree = _orbit_walk(key, basis, coroots)
            trees[walls] = tree
        else:
            points = _orbit_replay(key, tree, basis, coroots)
        if signed:
            out.update(zip(points, map((c, -c).__getitem__, tree.parity)))
        else:
            out.update(zip(points, repeat(c)))
    return out


def orbit_expand(
    items: Sequence[Tuple[Key, int]],
    basis: Sequence[Key],
    coroots: Sequence[Key],
    trees: Optional[Dict[Key, OrbitTree]] = None,
) -> Support:
    """Sum of m * e^(w mu) over each orbit of the listed dominant weights;
    `trees` is the scope's table of orbit trees, filled as it goes."""
    return _orbit_sum(items, basis, coroots, trees, False)


def signed_orbit(
    items: Sequence[Tuple[Key, int]],
    basis: Sequence[Key],
    coroots: Sequence[Key],
    trees: Optional[Dict[Key, OrbitTree]] = None,
) -> Support:
    """Sum of c * det(w) * e^(w nu) over W for each listed strictly dominant
    nu, that is c * J(e^nu): W acts freely on the orbit, so det(w) is the
    parity of the depth of w nu in its tree."""
    return _orbit_sum(items, basis, coroots, trees, True)
