"""The kernels against literal oracles."""

import functools
import itertools
import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from spinduct import kernels
from spinduct.rootdata import build_root_datum, forget_scopes
from spinduct.weyl import generate_weyl


def _convolve_oracle(a, b):
    """sum of a[k1] * b[k2] at k1 + k2, one pair at a time."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def test_convolve_matches_double_loop_oracle():
    cases = [
        # an empty operand, on either side
        ({}, {(0,): 1}),
        ({(1, 2): 3}, {}),
        # (1 + x)(1 - x) = 1 - x^2: the product cancels to a smaller support
        ({(0,): 1, (1,): 1}, {(0,): 1, (1,): -1}),
        # a large coefficient (its square passes 64 bits) and a far coordinate
        ({(0,): 1 << 40}, {(0,): 1}),
        ({(0,): 1 << 40, (1,): -3}, {(0,): 1 << 40, (2,): 5}),
        ({(3000, 0): 1}, {(0, 0): 2}),
        # rank-6 keys
        ({(1, 0, 0, 0, 0, 0): 1}, {(0, 1, 0, 0, 0, 0): 1}),
    ]
    rng = random.Random(4)
    for _ in range(50):
        r = rng.randint(1, 6)
        a, b = (
            {tuple(rng.randint(-4, 4) for _ in range(r)): rng.randint(-9, 9) or 1
             for _ in range(rng.randint(1, 12))}
            for _ in range(2)
        )
        cases.append((a, b))
    for a, b in cases:
        assert kernels.convolve(a, b) == _convolve_oracle(a, b)
    assert kernels.convolve({(0,): 1, (1,): 1}, {(0,): 1, (1,): -1}) == {(0,): 1, (2,): -1}
    assert kernels.convolve({(0,): 1 << 40}, {(0,): 1}) == {(0,): 1 << 40}
    assert kernels.convolve({(3000, 0): 1}, {(0, 0): 2}) == {(3000, 0): 2}


def test_empty_inputs_and_backend_name():
    assert kernels.weyl_sum([], [], [], {}) == {}
    assert kernels.dominant_collect({}, (), (), 10) == {}
    assert kernels.orbit_expand([], (), ()) == {}
    assert kernels.backend_name() == "python"


def _weyl_sum_oracle(mats, dets, shifts, coeffs):
    """sum over w of det_w * c_k at M_w k + t_w, one matrix-vector product
    at a time."""
    out = {}
    for m, det, t in zip(mats, dets, shifts):
        for k, c in coeffs.items():
            image = tuple(
                sum(m[i][j] * k[j] for j in range(len(k))) + t[i] for i in range(len(m))
            )
            out[image] = out.get(image, 0) + det * c
    return {k: c for k, c in out.items() if c}


def test_weyl_sum_matches_matrix_vector_oracle():
    rng = random.Random(0)
    for label in ("A1", "A2", "B2", "G2", "B3"):
        d = build_root_datum(label)
        elements = generate_weyl(d).elements
        for _ in range(20):
            chosen = rng.sample(elements, rng.randint(1, len(elements)))
            mats = [e.matrix for e in chosen]
            dets = [e.det for e in chosen]
            shifts = [tuple(rng.randint(-2, 2) for _ in range(d.rank)) for _ in chosen]
            coeffs = {
                tuple(rng.randint(-3, 3) for _ in range(d.rank)): rng.randint(-5, 5) or 1
                for _ in range(rng.randint(1, 8))
            }
            got = kernels.weyl_sum(mats, dets, shifts, coeffs)
            assert got == _weyl_sum_oracle(mats, dets, shifts, coeffs)
            assert all(got.values())


def test_weyl_sum_edge_cases():
    # rank 0: the one element of the trivial group
    assert kernels.weyl_sum([()], [1], [()], {(): 3}) == {(): 3}
    assert kernels.weyl_sum([(), ()], [1, -1], [(), ()], {(): 3}) == {}
    # empty coefficients, and no elements at all
    a2 = generate_weyl(build_root_datum("A2")).elements
    mats = [e.matrix for e in a2]
    assert kernels.weyl_sum(mats, [e.det for e in a2], [(0, 0)] * 6, {}) == {}
    assert kernels.weyl_sum([], [], [], {(1, 1): 1}) == {}
    # J_G of e^0 cancels to zero: 0 is fixed by every element
    assert kernels.weyl_sum(mats, [e.det for e in a2], [(0, 0)] * 6, {(0, 0): 4}) == {}
    # a shift moves the image
    ident = a2[0].matrix
    assert kernels.weyl_sum([ident], [-1], [(2, -1)], {(1, 1): 5}) == {(3, 0): -5}


def _orbit_oracle(key, basis, coroots):
    """The orbit of a dominant key by a depth-first search over the simple
    reflections that move it away from the chamber (the former pure
    orbit_expand loop)."""
    seen = {key}
    frontier = [key]
    while frontier:
        x = frontier.pop()
        for al, cv in zip(basis, coroots):
            p = sum(cv[j] * x[j] for j in range(len(x)))
            if p > 0:
                y = tuple(x[j] - p * al[j] for j in range(len(x)))
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen


def _level_walk(items, basis, coroots, flip):
    """Sum of c * flip^k * e^x over the points x at level k of the orbit of
    each listed dominant key, walked level by level from the key with a
    set per level (the former pure orbit walk, kept as the oracle for the
    walk replayed along cached trees)."""
    out = {}
    for key, c in items:
        level = {key}
        while level:
            nxt = set()
            for x in level:
                out[x] = out.get(x, 0) + c
                for al, cv in zip(basis, coroots):
                    p = sum(cv[j] * x[j] for j in range(len(x)))
                    if p > 0:
                        nxt.add(tuple(x[j] - p * al[j] for j in range(len(x))))
            level = nxt
            c *= flip
    return {k: c for k, c in out.items() if c}


def _random_dominant(rng, rank, low):
    """A dominant key in fundamental-weight coordinates on the weight lattice."""
    return tuple(rng.randint(low, 3) for _ in range(rank))


def test_orbit_walks_match_search_oracle():
    rng = random.Random(2)
    for label in ("A1", "A2", "B2", "G2", "B3", "A1xA1", "F4"):
        d = build_root_datum(label)
        basis, coroots = d.simple_roots, d.simple_coroots
        for _ in range(6):
            # dominant keys may sit on walls; strictly dominant ones may not
            key, mult = _random_dominant(rng, d.rank, 0), rng.randint(1, 5)
            orbit = _orbit_oracle(key, basis, coroots)
            assert kernels.orbit_expand([(key, mult)], basis, coroots) == dict.fromkeys(orbit, mult)
            nu, c = _random_dominant(rng, d.rank, 1), rng.choice((-3, 2, 7))
            orbit = _orbit_oracle(nu, basis, coroots)
            assert len(orbit) == generate_weyl(d).order
            # det(w) for w nu = x is the parity of the walk from x back to nu
            signed = {}
            for x in orbit:
                image, path, regular = kernels.dominant_walk(x, basis, coroots, len(d.positive))
                assert (image, regular) == (nu, True)
                signed[x] = -c if len(path) % 2 else c
            assert kernels.signed_orbit([(nu, c)], basis, coroots) == signed


def test_signed_orbit_edge_cases():
    # rank 0, no items, and two orbits that overlap nowhere
    assert kernels.signed_orbit([((), 4)], (), ()) == {(): 4}
    assert kernels.orbit_expand([((), 4)], (), ()) == {(): 4}
    a1 = build_root_datum("A1")
    basis, coroots = a1.simple_roots, a1.simple_coroots
    assert kernels.signed_orbit([], basis, coroots) == {}
    assert kernels.signed_orbit([((1,), 2), ((3,), -1)], basis, coroots) == {
        (1,): 2, (-1,): -2, (3,): -1, (-3,): 1,
    }
    # a repeated weight accumulates, and cancels to nothing
    assert kernels.signed_orbit([((2,), 1), ((2,), -1)], basis, coroots) == {}


def _zoo_scopes():
    from spinduct.rootdata import subgroup_from_roots
    from spinduct.zoo import zoo_problems

    so7 = build_root_datum("B3", "root")
    gens = [so7.root_from_simple_coordinates(g) for g in ((1, 1, 1), (0, 1, 0), (0, 1, 2))]
    subs = [p.sub for _, p in zoo_problems()] + [subgroup_from_roots(so7, gens)]
    for sub in subs:
        yield sub.datum
        yield sub


def _dominant_keys(scope, rng):
    """Dominant keys of the scope's chamber: random weights walked into it,
    which land on no wall, one wall or several, in X(T) and, as
    2 * (delta + X(T)), at den 2 for delta = rho of the group and of the
    scope; and the same plus 2 * rho, which is regular."""
    basis, coroots, cap = scope.basis, scope.basis_coroots, len(scope.positive)
    rank = scope.datum.rank
    two_rho = tuple(2 * x // scope.rho_vec.den for x in scope.rho_vec.nums)
    shifts = [(1, (0,) * rank)] + [
        (2, tuple(x * 2 // d.den for x in d.nums)) for d in (scope.datum.rho, scope.rho_vec)
    ]
    keys = []
    for den, s in shifts:
        for _ in range(6):
            v = tuple(den * rng.randint(-2, 2) + x for x in s)
            key = kernels.dominant_walk(v, basis, coroots, cap)[0]
            keys += [(den, key), (den, tuple(den * r + k for r, k in zip(two_rho, key)))]
    return keys


def test_orbit_trees_match_level_walk_on_every_zoo_scope():
    """orbit_expand and signed_orbit along the scope's tree table against the
    level walk, on every zoo group and subgroup scope, B3 on its root
    lattice included; each (scope, walls) tree is built once and then
    replayed."""
    rng = random.Random(9)
    walls_seen, dens_seen = set(), set()
    for scope in _zoo_scopes():
        basis, coroots = scope.basis, scope.basis_coroots
        trees = generate_weyl(scope).orbit_trees
        for den, key in _dominant_keys(scope, rng):
            walls = tuple(i for i, cv in enumerate(coroots) if sum(map(mul, cv, key)) == 0)
            walls_seen.add(min(len(walls), 2))
            dens_seen.add(den)
            before = dict(trees)
            c = rng.choice((-2, 1, 3))
            got = kernels.orbit_expand([(key, c)], basis, coroots, trees)
            assert got == _level_walk([(key, c)], basis, coroots, 1)
            if not walls:
                got = kernels.signed_orbit([(key, c)], basis, coroots, trees)
                assert got == _level_walk([(key, c)], basis, coroots, -1)
            # a type seen before replays its tree; a new one records it
            assert all(trees[j] is tree for j, tree in before.items())
            assert set(trees) == set(before) | {walls}
            assert len(trees[walls].parity) == len(got)
    assert walls_seen == {0, 1, 2}
    assert dens_seen == {1, 2}


def test_orbit_trees_on_several_items_and_rank_zero():
    # rank 0, with and without a table
    for kernel in (kernels.orbit_expand, kernels.signed_orbit):
        trees = {}
        assert kernel([((), 4), ((), -1)], (), (), trees) == {(): 3}
        assert list(trees) == [()]
        assert kernel([((), 2)], (), (), trees) == {(): 2}
    # several keys of one type share a tree within one call
    b3 = build_root_datum("B3")
    basis, coroots = b3.simple_roots, b3.simple_coroots
    items = [((1, 0, 0), 2), ((3, 0, 0), -1), ((0, 2, 0), 5), ((1, 0, 0), 1), ((0, 0, 0), 7)]
    trees = {}
    assert kernels.orbit_expand(items, basis, coroots, trees) == _level_walk(items, basis, coroots, 1)
    assert sorted(trees) == [(0, 1, 2), (0, 2), (1, 2)]
    regular = [((1, 1, 1), 2), ((2, 1, 3), -3), ((1, 1, 1), 1)]
    assert kernels.signed_orbit(regular, basis, coroots, trees) == _level_walk(
        regular, basis, coroots, -1
    )
    assert sorted(trees) == [(), (0, 1, 2), (0, 2), (1, 2)]


@functools.cache
def _regular_trees():
    """(name, basis, coroots, nu0, tree) for the regular orbit tree of every
    distinct zoo scope, B3 on its root lattice included, and of rank 0 and
    A1: nu0 is 2 rho of the scope, or (1, ..., 1) when it has no roots, and
    the tree is walked from it."""
    a1 = build_root_datum("A1")
    scopes = [("rank 0", (), (), ()), ("A1", a1.simple_roots, a1.simple_coroots, (2,))]
    for scope in _zoo_scopes():
        rho = scope.rho_vec
        nu0 = tuple(2 * x // rho.den for x in rho.nums) if scope.basis else (1,) * len(rho.nums)
        name = f"{scope.datum.cartan_label} {type(scope).__name__} {scope.basis}"
        scopes.append((name, scope.basis, scope.basis_coroots, nu0))
    out, seen = [], set()
    for name, basis, coroots, nu0 in scopes:
        if (basis, len(nu0)) not in seen:
            seen.add((basis, len(nu0)))
            out.append((name, basis, coroots, nu0, kernels._orbit_walk(nu0, basis, coroots)[1]))
    return out


def _bound(bounds, key):
    return sum(b * abs(k) for b, k in zip(bounds, key))


def _key_at_bound(bounds, nu0, target):
    """A key near t nu0 whose bound sum_m bounds[m] |key_m| is exactly
    target: t nu0 + d for a small d, then one coordinate moved away from 0
    to spend the rest.  Strictly dominant when nu0 is and t is large."""
    t = target // _bound(bounds, nu0) - 1
    for d in itertools.product(range(-4, 5), repeat=len(nu0)):
        key = [t * x + y for x, y in zip(nu0, d)]
        rest = target - _bound(bounds, key)
        for m, x in enumerate(nu0):
            if x and rest >= 0 and rest % bounds[m] == 0:
                key[m] += rest // bounds[m] if x > 0 else -(rest // bounds[m])
                assert _bound(bounds, key) == target
                return tuple(key)
    raise AssertionError(f"no key at bound {target}")


# the packing edge, the largest bound a table takes and the least it
# refuses, and bounds far beyond it, which the node replay answers exactly
_EDGES = (2**15 - 1, 2**15, 2**31, 2**63, 2**64 + 5)


def _check_packed_replay(name, basis, coroots, key, tree, table, monkeypatch):
    """signed_orbit of key with the table against the node replay, point for
    point and in order; returns whether it took the packed replay, whose
    points are also checked alone."""
    used = []
    replay = kernels._packed_replay

    def spy(key, table):
        used.append(key)
        return replay(key, table)

    monkeypatch.setattr(kernels, "_packed_replay", spy)
    trees = {(): tree}
    plain = kernels.signed_orbit([(key, 3)], basis, coroots, trees)
    fast = kernels.signed_orbit([(key, 3)], basis, coroots, trees, table)
    assert list(fast.items()) == list(plain.items()), name
    if used:
        expected = kernels._orbit_replay(key, tree, basis, coroots)
        assert replay(key, table) == expected, name
    return bool(used)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_replay_matches_node_replay(data):
    """On every zoo scope's regular tree, and rank 0 and A1: keys at the
    packing edge and keys scaled by up to 2^70, packed exactly when their
    bound is below 2^15."""
    name, basis, coroots, nu0, tree = data.draw(st.sampled_from(_regular_trees()))
    table = kernels.pack_orbit(tree, basis, coroots, len(nu0))
    with pytest.MonkeyPatch.context() as monkeypatch:
        scale = data.draw(st.integers(1, 2**70))
        if not tree.parent:
            assert table is None
            key = tuple(x * scale for x in nu0)
            assert not _check_packed_replay(name, basis, coroots, key, tree, table, monkeypatch)
            return
        edge = data.draw(st.one_of(st.none(), st.sampled_from(_EDGES)))
        if edge is None:
            key = tuple(x * scale for x in nu0)
        else:
            key = _key_at_bound(table.bounds, nu0, edge)
        packed = _check_packed_replay(name, basis, coroots, key, tree, table, monkeypatch)
        assert packed == (_bound(table.bounds, key) < 2**15)


def test_packed_replay_at_the_edge():
    """Each regular tree at each edge bound: packed below 2^15, node by node
    from there on; the rows and bounds are the orbits of the unit vectors."""
    for name, basis, coroots, nu0, tree in _regular_trees():
        if not tree.parent:
            continue
        table = kernels.pack_orbit(tree, basis, coroots, len(nu0))
        # column m of every w_j is the orbit of e_m, replayed node by node:
        # the rows hold its coordinates and the bound is its largest one
        for m, c in enumerate(table.bounds):
            unit = tuple(int(i == m) for i in range(len(nu0)))
            images = kernels._orbit_replay(unit, tree, basis, coroots)
            assert max(abs(x) for image in images for x in image) == c, name
            for r, row in enumerate(table.rows):
                assert list(kernels._digits(row[m], table.bias)) == [x[r] for x in images]
        with pytest.MonkeyPatch.context() as monkeypatch:
            packed = [
                _check_packed_replay(
                    name, basis, coroots, _key_at_bound(table.bounds, nu0, edge), tree, table,
                    monkeypatch,
                )
                for edge in _EDGES
            ]
        assert packed == [True, False, False, False, False], name


def test_packed_replay_falls_back_on_large_matrices():
    """A rank-1 system in a rank-2 lattice whose reflection has an entry
    -2^16: no table, and the node replay answers."""
    basis, coroots = ((1, 2**15),), ((2, 0),)
    points, tree = kernels._orbit_walk((1, 0), basis, coroots)
    assert points == [(1, 0), (-1, -(2**16))]
    assert kernels.pack_orbit(tree, basis, coroots, 2) is None
    assert kernels.signed_orbit([((3, 5), 2)], basis, coroots, {(): tree}, None) == {
        (3, 5): 2, (-3, 5 - 3 * 2**16): -2,
    }
    # just below: entries below 2^15 pack
    assert kernels.pack_orbit(tree, ((1, 2**13),), coroots, 2) is not None


def test_f4_packed_orbit_table_is_built_once(monkeypatch):
    """The first J_G on F4 walks the regular tree, the second packs it and
    later ones build no new table; the table is immutable, made of tuples
    and ints."""
    from spinduct.charring import TorusElement
    from spinduct.weyl import apply_antisymmetrizer

    # a fresh F4 group, without the tables earlier tests left on it
    forget_scopes()
    f4 = build_root_datum("F4")
    builds = []
    pack = kernels.pack_orbit

    def counting_pack(*args):
        builds.append(args)
        return pack(*args)

    monkeypatch.setattr(kernels, "pack_orbit", counting_pack)
    replays = []
    replay = kernels._packed_replay

    def counting_replay(key, table):
        replays.append(key)
        return replay(key, table)

    monkeypatch.setattr(kernels, "_packed_replay", counting_replay)
    a = TorusElement.monomial(f4, f4.rho) + TorusElement.monomial(f4, f4.rho.scale(2))
    first = apply_antisymmetrizer("J_G", a)
    assert builds == [] and replays == [] and list(generate_weyl(f4).orbit_trees) == [()]
    second = apply_antisymmetrizer("J_G", a)
    assert second == first and len(builds) == 1 and len(replays) == 2
    third = apply_antisymmetrizer("J_G", a)
    assert third == first and len(builds) == 1 and len(replays) == 4
    table = generate_weyl(f4).packed_orbit
    assert len(builds) == 1
    assert type(table) is kernels.PackedOrbit and type(table.bias) is int
    assert type(table.bounds) is tuple and all(type(c) is int for c in table.bounds)
    assert type(table.rows) is tuple and len(table.rows) == 4
    for row in table.rows:
        assert type(row) is tuple and len(row) == 4 and all(type(p) is int for p in row)
    assert len(first.coeffs) == 2 * 1152


def test_orbit_keys_must_be_dominant():
    a2 = build_root_datum("A2")
    basis, coroots = a2.simple_roots, a2.simple_coroots
    with pytest.raises(ValueError):
        kernels.orbit_expand([((1, -1), 1)], basis, coroots)
    # J of a weight on a wall is zero; a caller passing one is at fault
    with pytest.raises(ValueError):
        kernels.signed_orbit([((1, 0), 1)], basis, coroots)


# --- matrices packed across a list (the multiplets' W^H table) ------------------

_EDGE = 2**15 - 1


def _literal_rows(mats, covectors, key):
    """M_j k followed by xi(M_j k) for each covector, for every j."""
    out = []
    for m in mats:
        image = [sum(map(mul, row, key)) for row in m]
        out.append(tuple(image) + tuple(sum(map(mul, xi, image)) for xi in covectors))
    return out


def test_packed_matrices_match_literal_products_at_the_edge():
    """Entries +-(2^15 - 1), in the matrices and in their covector rows, pack
    and read back exactly at every unit key; one entry of 2^15 in either
    gives no table, as does an empty list."""
    rng = random.Random(17)
    for rank, count in ((1, 1), (2, 7), (3, 40), (6, 240)):
        mats = [[[rng.choice((_EDGE, -_EDGE, 0, 1, -1)) for _ in range(rank)]
                 for _ in range(rank)] for _ in range(count)]
        # unit and negated unit covectors keep the covector rows at the edge
        covectors = [tuple(s * int(i == r) for i in range(rank))
                     for r in range(rank) for s in (1, -1)][:rank + 1]
        table = kernels.pack_matrices(mats, covectors)
        assert table is not None and len(table.rows) == rank + len(covectors)
        assert max(table.bounds) <= _EDGE
        for m in range(rank):
            unit = tuple(int(i == m) for i in range(rank))
            assert kernels._packed_replay(unit, table) == _literal_rows(mats, covectors, unit)
        big = [row[:] for row in mats[-1]]
        big[rng.randrange(rank)][rng.randrange(rank)] = rng.choice((2**15, -(2**15)))
        assert kernels.pack_matrices(mats[:-1] + [big], covectors) is None
    half = [[2**14, 2**14], [0, 1]]
    assert kernels.pack_matrices([half], [(1, 0)]) is not None
    assert kernels.pack_matrices([half], [(1, 1)]) is not None  # (2^14, 2^14 + 1)
    assert kernels.pack_matrices([half], [(2, 0)]) is None  # a covector entry of 2^15
    assert kernels.pack_matrices([], [(1,)]) is None


def test_collect_images_matches_dominant_collect_per_matrix():
    """Any integer matrices (not only Weyl elements): the images' chamber
    collection equals dominant_collect of each image, for keys read from the
    table, keys past its bound, and without a table."""
    rng = random.Random(19)
    for label in ("A2", "B2", "G2", "A1xA1"):
        d = build_root_datum(label)
        basis, coroots, steps = d.simple_roots, d.simple_coroots, len(d.positive_roots)
        mats = [[[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)] for _ in range(30)]
        mats += [((1, 0), (0, 1)), ((0, 0), (0, 0))]
        table = kernels.pack_matrices(mats, coroots)
        for scale in (1, 2**12, 2**40):
            items = [(tuple(scale * rng.randint(-4, 4) for _ in range(2)), rng.randint(-3, 3))
                     for _ in range(4)]
            expected = []
            for m in mats:
                image = {}
                for k, c in items:
                    x = tuple(sum(map(mul, row, k)) for row in m)
                    image[x] = image.get(x, 0) + c
                expected.append(kernels.dominant_collect(image, basis, coroots, steps))
            for t in (table, None):
                got = kernels.collect_images(items, mats, t, basis, coroots, steps)
                assert got == expected, (label, scale)
