"""The kernels of the hot inner loops: sparse convolution, Weyl sums,
chamber collection and the orbit walks.

All of them operate on finitely supported integer maps whose keys are
integer coordinate tuples.  Coefficients are Python ints, so every kernel
is exact at any size.

An orbit is walked once per stabilizer type and its tree replayed for
later keys, one reflection per point.  The signed orbits J(e^nu) also
replay the regular tree packed across its points: the point at node j is
w_j nu, Z-linear in nu, so coordinate r of every point at once is
sum_m nu_m P[r][m] with P[r][m] = sum_j (w_j)_{rm} 2^(16 j), one big-int
sum per coordinate, whose 16-bit digits are read out as an array.  That
holds while B = sum_m c_m |nu_m| < 2^15, where c_m bounds column m of
every w_j: B bounds every coordinate, so no digit overflows.  Keys with
B >= 2^15, and scopes with a matrix entry of 2^15 or more, keep the node
replay, which is exact at any size; the keys the identity suites draw
stay below B = 32.  The character orbits of orbit_expand stay node by
node: each of their trees is replayed a few times at most, fewer than
building a table costs.

The multiplets pack the inverses w_j^-1 of W^H the same way, with a row
sum_j (a^vee w_j^-1)_m 2^(16 j) for each simple coroot a^vee of H, so a
key's images and all their H-wall pairings are rank + #coroots big-int
sums.  w_j^-1 maps the closed G chamber into the closed H chamber, so no
image of a dominant key is walked: off the walls it is its own chamber
image, on one it drops.  Keys with B >= 2^15 walk every image w_j^-1 k.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from operator import add, mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InternalInconsistency

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
            raise InternalInconsistency("chamber walk exceeded its step bound")


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


class PackedOrbit(NamedTuple):
    """A regular orbit tree's points as Z-linear functions of the root key,
    packed across the points: rows[r][m] = sum_j (w_j)_{rm} 2^(16 j), with
    w_j the Weyl element at tree node j (the root first), in balanced
    digits; bounds[m] = max over j and r of |(w_j)_{rm}|; bias has 2^15 in
    every digit."""

    bounds: Tuple[int, ...]
    rows: Tuple[Tuple[int, ...], ...]
    bias: int


# a packed coordinate takes 16 bits, so every key with bound below 2^15
PACK_LIMIT = 1 << 15


def _bias(count: int) -> int:
    """2^15 in each of count 16-bit digits."""
    return int.from_bytes(b"\x00\x80" * count, "little")


def _digits(value: int, bias: int) -> array:
    """The balanced 16-bit digits of value, least significant first;
    bias = _bias(count) for count digits, each below 2^15 in size."""
    data = ((value + bias) ^ bias).to_bytes(bias.bit_length() // 8, "little")
    digits = array("h", data)
    if sys.byteorder == "big":
        digits.byteswap()
    return digits


def _column_bounds(
    basis: Sequence[Key], coroots: Sequence[Key], rank: int, steps: int
) -> Tuple[int, ...]:
    """max over w in W and r of |w_{rm}|, for each m, with no walk of W.

    w_{rm} = xi(w e_m) for the covector xi = e_r^*.  For a dominant lam,
    lam - w lam is a nonnegative sum of simple roots, so a covector xi with
    every xi(alpha_i) >= 0 is largest on the orbit of lam at lam.  Hence the
    largest value of xi on the orbit of e_m is xi^+(e_m^+): both moved into
    their chambers, xi by the dual reflections xi - xi(alpha_i) alpha_i^vee."""
    units = [tuple(int(i == r) for i in range(rank)) for r in range(rank)]
    weights = [dominant_walk(e, basis, coroots, steps)[0] for e in units]
    covectors = [
        dominant_walk(tuple(sign * x for x in e), coroots, basis, steps)[0]
        for e in units
        for sign in (1, -1)
    ]
    return tuple(max(sum(map(mul, xi, lam)) for xi in covectors) for lam in weights)


def pack_orbit(
    tree: OrbitTree, basis: Sequence[Key], coroots: Sequence[Key], rank: int
) -> Optional[PackedOrbit]:
    """The PackedOrbit of a regular tree on a rank-`rank` lattice, or None
    when the orbit is one point or a matrix entry reaches 2^15.

    One replay of the tree carries every column at once: coordinate r of the
    point at node j is sum_m (w_j)_{rm} 2^(16 m), as each reflection is
    Z-linear, and its digits are the entries, read with a stride of rank."""
    if not tree.parent:
        return None
    bounds = _column_bounds(basis, coroots, rank, len(tree.parity))
    if max(bounds) >= PACK_LIMIT:
        return None
    points = _orbit_replay(tuple(1 << (16 * r) for r in range(rank)), tree, basis, coroots)
    bias, bias_rows, size = _bias(rank), _bias(len(points)), rank * 2
    rows = []
    for coords in zip(*points):
        # offset digits, (j, m) at j * rank + m, in little-endian bytes,
        # which the array only slices
        biased = map(add, coords, repeat(bias))
        data = b"".join(map(int.to_bytes, biased, repeat(size), repeat("little")))
        digits = array("h", data)
        rows.append(tuple(
            int.from_bytes(digits[m::rank].tobytes(), "little") - bias_rows for m in range(rank)
        ))
    return PackedOrbit(bounds, tuple(rows), bias_rows)


def _packed_replay(key: Key, table: PackedOrbit) -> List[Key]:
    """_orbit_replay from the table, for a key with bound below 2^15:
    coordinate r of every point at once is sum_m key_m rows[r][m], whose
    digits are the points' coordinates."""
    cols = [_digits(sum(map(mul, key, row)), table.bias) for row in table.rows]
    return list(zip(*cols))


def pack_matrices(
    mats: Sequence[Sequence[Sequence[int]]], covectors: Sequence[Key]
) -> Optional[PackedOrbit]:
    """The matrices M_j packed across j: a row sum_j (M_j)_{rm} 2^(16 j) for
    each coordinate r, then sum_j (xi M_j)_m 2^(16 j) for each covector xi,
    so _packed_replay gives each M_j k followed by its pairings xi(M_j k).
    None for no matrix or an entry of 2^15 or more."""
    rank = len(mats[0]) if mats else 0
    # entry (j, m) of each row at j * rank + m
    flat: List[List[int]] = [[] for _ in range(rank + len(covectors))]
    for m in mats:
        cols = list(zip(*m))
        rows = [*m, *([sum(map(mul, xi, c)) for c in cols] for xi in covectors)]
        for out, row in zip(flat, rows):
            out += row
    bounds = tuple(max(max(map(abs, f[m::rank])) for f in flat) for m in range(rank))
    if not mats or max(bounds, default=0) >= PACK_LIMIT:
        return None
    bias, packed = _bias(len(mats)), []
    for f in flat:
        digits = array("H", [x + PACK_LIMIT for x in f])
        if sys.byteorder == "big":
            digits.byteswap()
        packed.append(tuple(
            int.from_bytes(digits[m::rank].tobytes(), "little") - bias for m in range(rank)
        ))
    return PackedOrbit(bounds, tuple(packed), bias)


def collect_images(
    items: Sequence[Tuple[Key, int]],
    mats: Sequence[Sequence[Sequence[int]]],
    table: Optional[PackedOrbit],
    basis: Sequence[Key],
    coroots: Sequence[Key],
    max_steps: int,
) -> List[Support]:
    """dominant_collect of sum c e^(M_j k) over the listed keys, for each
    M_j, given table = pack_matrices(mats, coroots) or None.  A key with
    bound below 2^15 reads its images and their pairings from the table and
    walks only an image with a negative pairing; other keys walk M_j k."""
    out: List[Support] = [{} for _ in mats]
    for key, c in items:
        if table is None or sum(map(mul, table.bounds, map(abs, key))) >= PACK_LIMIT:
            images = ([sum(map(mul, row, key)) for row in m] for m in mats)
            lows = repeat(-1)
        else:
            cols = [_digits(sum(map(mul, key, row)), table.bias) for row in table.rows]
            images = zip(*cols[:len(key)])
            # min(1, pairings): 1 off every wall, 0 on one, negative outside
            lows = map(min, zip(*cols[len(key):], repeat(1)))
        for acc, x, low in zip(out, images, lows):
            v = c
            if low < 1:
                if not low:
                    continue
                x, path, regular = dominant_walk(x, basis, coroots, max_steps)
                if not regular:
                    continue
                v = -c if len(path) % 2 else c
            v += acc.get(x, 0)
            if v:
                acc[x] = v
            elif x in acc:
                del acc[x]
    return out


def _orbit_sum(
    items: Sequence[Tuple[Key, int]],
    basis: Sequence[Key],
    coroots: Sequence[Key],
    trees: Optional[Dict[Key, OrbitTree]],
    packed: Optional[PackedOrbit],
    signed: bool,
) -> Support:
    """Sum of c * e^x over the Weyl orbit of each listed dominant key, times
    (-1)^l(w) at x = w key when signed.

    Whether the walk steps from x = w key by s_i depends on the sign of
    <alpha_i^vee, w key> = <w^-1 alpha_i^vee, key>, and which points
    coincide depends on the stabilizer W_J of the key, so the walk is the
    same for every key with the same walls J = {i : <alpha_i^vee, key> = 0}.
    `trees` keeps one tree per J: the first key of a type is walked and its
    tree recorded, later ones are replayed: by the regular tree's table
    `packed` where given and the key's bound is below 2^15, else node by
    node.  Distinct dominant keys have disjoint orbits, so
    repeated keys are merged first."""
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
        elif packed is None or sum(map(mul, packed.bounds, map(abs, key))) >= PACK_LIMIT:
            points = _orbit_replay(key, tree, basis, coroots)
        else:
            points = _packed_replay(key, packed)
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
    return _orbit_sum(items, basis, coroots, trees, None, False)


def signed_orbit(
    items: Sequence[Tuple[Key, int]],
    basis: Sequence[Key],
    coroots: Sequence[Key],
    trees: Optional[Dict[Key, OrbitTree]] = None,
    packed: Optional[PackedOrbit] = None,
) -> Support:
    """Sum of c * det(w) * e^(w nu) over W for each listed strictly dominant
    nu, that is c * J(e^nu): W acts freely on the orbit, so det(w) is the
    parity of the depth of w nu in its tree.  With `packed`, the table of
    the scope's regular tree, the orbits are replayed packed."""
    return _orbit_sum(items, basis, coroots, trees, packed, True)
