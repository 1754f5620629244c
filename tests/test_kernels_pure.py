"""The kernels against literal oracles."""

import random
from operator import mul

import pytest

from spinduct import kernels
from spinduct.rootdata import build_root_datum
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


def test_orbit_keys_must_be_dominant():
    a2 = build_root_datum("A2")
    basis, coroots = a2.simple_roots, a2.simple_coroots
    with pytest.raises(ValueError):
        kernels.orbit_expand([((1, -1), 1)], basis, coroots)
    # J of a weight on a wall is zero; a caller passing one is at fault
    with pytest.raises(ValueError):
        kernels.signed_orbit([((1, 0), 1)], basis, coroots)
