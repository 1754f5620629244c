"""The pure-Python kernels against literal oracles; unlike
test_kernels.py these run without the compiled extension."""

import random

from spinduct import _kernels_py as py
from spinduct.rootdata import build_root_datum
from spinduct.weyl import generate_weyl


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
            got = py.weyl_sum(mats, dets, shifts, coeffs)
            assert got == _weyl_sum_oracle(mats, dets, shifts, coeffs)
            assert all(got.values())


def test_weyl_sum_edge_cases():
    # rank 0: the one element of the trivial group
    assert py.weyl_sum([()], [1], [()], {(): 3}) == {(): 3}
    assert py.weyl_sum([(), ()], [1, -1], [(), ()], {(): 3}) == {}
    # empty coefficients, and no elements at all
    a2 = generate_weyl(build_root_datum("A2")).elements
    mats = [e.matrix for e in a2]
    assert py.weyl_sum(mats, [e.det for e in a2], [(0, 0)] * 6, {}) == {}
    assert py.weyl_sum([], [], [], {(1, 1): 1}) == {}
    # J_G of e^0 cancels to zero: 0 is fixed by every element
    assert py.weyl_sum(mats, [e.det for e in a2], [(0, 0)] * 6, {(0, 0): 4}) == {}
    # a shift moves the image
    ident = a2[0].matrix
    assert py.weyl_sum([ident], [-1], [(2, -1)], {(1, 1): 5}) == {(3, 0): -5}


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
            assert py.orbit_expand([(key, mult)], basis, coroots) == dict.fromkeys(orbit, mult)
            nu, c = _random_dominant(rng, d.rank, 1), rng.choice((-3, 2, 7))
            orbit = _orbit_oracle(nu, basis, coroots)
            assert len(orbit) == generate_weyl(d).order
            # det(w) for w nu = x is the parity of the walk from x back to nu
            signed = {}
            for x in orbit:
                image, path, regular = py.dominant_walk(x, basis, coroots, len(d.positive))
                assert (image, regular) == (nu, True)
                signed[x] = -c if len(path) % 2 else c
            assert py.signed_orbit([(nu, c)], basis, coroots) == signed


def test_signed_orbit_edge_cases():
    # rank 0, no items, and two orbits that overlap nowhere
    assert py.signed_orbit([((), 4)], (), ()) == {(): 4}
    assert py.orbit_expand([((), 4)], (), ()) == {(): 4}
    a1 = build_root_datum("A1")
    basis, coroots = a1.simple_roots, a1.simple_coroots
    assert py.signed_orbit([], basis, coroots) == {}
    assert py.signed_orbit([((1,), 2), ((3,), -1)], basis, coroots) == {
        (1,): 2, (-1,): -2, (3,): -1, (-3,): 1,
    }
    # a repeated weight accumulates, and cancels to nothing
    assert py.signed_orbit([((2,), 1), ((2,), -1)], basis, coroots) == {}
