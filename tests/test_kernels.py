import random

import pytest

from spinduct import _kernels_py as py
from spinduct import kernels
from spinduct.rootdata import build_root_datum
from spinduct.weyl import generate_weyl

cy = pytest.importorskip(
    "spinduct._kernels", reason="compiled kernels not built"
)


def random_support(rng, rank, n, lo=-30, hi=30, cmax=9):
    out = {}
    for _ in range(n):
        k = tuple(rng.randint(lo, hi) for _ in range(rank))
        out[k] = rng.randint(1, cmax) * rng.choice((1, -1))
    return out


def test_convolve_matches_pure():
    rng = random.Random(0)
    for _ in range(200):
        r = rng.randint(1, 5)
        a = random_support(rng, r, rng.randint(1, 25))
        b = random_support(rng, r, rng.randint(1, 25))
        assert cy.convolve(a, b) == py.convolve(a, b)


def test_weyl_sum_matches_pure():
    rng = random.Random(1)
    for label in ("A2", "G2", "B3", "F4"):
        d = build_root_datum(label)
        w = generate_weyl(d)
        mats = [e.matrix for e in w.elements]
        dets = [e.det for e in w.elements]
        shifts = [(0,) * d.rank for _ in mats]
        for _ in range(5):
            a = random_support(rng, d.rank, rng.randint(1, 8), -6, 6)
            assert cy.weyl_sum(mats, dets, shifts, a) == py.weyl_sum(
                mats, dets, shifts, a
            )


def test_dominant_collect_matches_pure():
    rng = random.Random(2)
    for label in ("A2", "G2", "B3", "F4"):
        d = build_root_datum(label)
        cap = 4 * len(d.positive_roots) ** 2
        for _ in range(20):
            a = random_support(rng, d.rank, rng.randint(1, 10), -9, 9)
            assert cy.dominant_collect(
                a, d.simple_roots, d.simple_coroots, cap
            ) == py.dominant_collect(a, d.simple_roots, d.simple_coroots, cap)


def test_orbit_expand_matches_level_walk():
    # the compiled orbit_expand is not dispatched (it takes no tree table);
    # it is held to the level-walk oracle of the pure tests
    from test_kernels_pure import _level_walk

    rng = random.Random(3)
    for label in ("A2", "G2", "B3", "F4"):
        d = build_root_datum(label)
        items = []
        for _ in range(5):
            x = [rng.randint(0, 4) for _ in range(d.rank)]
            items.append((tuple(x), rng.randint(1, 5)))
        assert cy.orbit_expand(
            items, d.simple_roots, d.simple_coroots
        ) == _level_walk(items, d.simple_roots, d.simple_coroots, 1)


def test_overflow_raises_and_dispatcher_falls_back():
    big = {(0,): 1 << 40}
    one = {(0,): 1}
    with pytest.raises(OverflowError):
        cy.convolve(big, one)
    # the dispatcher silently reruns on the exact backend
    assert kernels.convolve(big, one) == {(0,): 1 << 40}
    far = {(3000, 0): 1}
    assert kernels.convolve(far, {(0, 0): 2}) == {(3000, 0): 2}


def test_rank_above_packing_limit_falls_back():
    a = {(1, 0, 0, 0, 0, 0): 1}
    b = {(0, 1, 0, 0, 0, 0): 1}
    with pytest.raises(OverflowError):
        cy.convolve(a, b)
    assert kernels.convolve(a, b) == {(1, 1, 0, 0, 0, 0): 1}


def test_zero_inputs():
    assert cy.convolve({}, {(0,): 1}) == {}
    assert cy.weyl_sum([], [], [], {}) == {}
    assert cy.dominant_collect({}, (), (), 10) == {}
    assert cy.orbit_expand([], (), ()) == {}


def test_backend_name_reports():
    assert kernels.backend_name() in ("cython", "python")
