import random

import pytest

from spinduct.charring import TorusElement, TwistClass, dimension
from spinduct.errors import BadTwist
from spinduct.induction import make_problem
from spinduct.multiplets import alternating_dimension_sum, gkrs_identity_check, multiplet
from spinduct.rootdata import RationalWeight, build_root_datum, subgroup_from_roots
from spinduct.zoo import random_torus_element, zoo_problem, zoo_problems


def test_levi_multiplet_example():
    p = zoo_problem("A2", "levi1")
    m = multiplet(p, TorusElement.monomial(p.datum, p.datum.rho))
    assert len(m) == 3
    dims = [dimension(g) for g in m.members]
    assert sorted(dims) == [1, 1, 2]
    assert m.signs == (1, -1, 1)
    assert alternating_dimension_sum(m) == 0


def test_f4_trivial_multiplet():
    p = zoo_problem("F4", "b4")
    m = multiplet(p, TorusElement.monomial(p.datum, p.datum.rho))
    assert len(m) == 3
    dims = [dimension(g) for g in m.members]
    assert sorted(dims) == [44, 84, 128]
    assert alternating_dimension_sum(m) == 0
    # cross-check each dimension against the full character expansion
    for g, d in zip(m.members, dims):
        assert sum(g.to_torus().coeffs.values()) == d


def test_member_dimensions_are_computed_once(monkeypatch):
    import spinduct.multiplets as mp

    p = zoo_problem("F4", "b4")
    m = multiplet(p, TorusElement.monomial(p.datum, p.datum.rho))
    calls = []
    monkeypatch.setattr(mp, "dimension", lambda g: calls.append(g) or dimension(g))
    assert alternating_dimension_sum(m) == 0
    assert m.dimensions == tuple(dimension(g) for g in m.members)
    assert len(calls) == len(m.members)


def test_h_equals_g_multiplet():
    a2 = build_root_datum("A2")
    full = subgroup_from_roots(a2, list(a2.roots))
    p = make_problem(a2, full)
    m = multiplet(p, TorusElement.monomial(a2, a2.rho))
    assert len(m) == 1 and m.signs == (1,)
    assert alternating_dimension_sum(m) == 1


def test_alternating_sums_vanish():
    rng = random.Random(41)
    for name, p in zoo_problems():
        twist = TwistClass.of(p.datum.rho)
        for _ in range(15):
            a = random_torus_element(p, rng, twist=twist, max_support=8)
            assert alternating_dimension_sum(multiplet(p, a)) == 0, name


def test_members_recomputable():
    from spinduct.induction import collect_to_chamber
    from spinduct.weyl import apply_weyl_sum

    p = zoo_problem("G2", "a2long")
    a = TorusElement.monomial(p.datum, p.datum.rho + RationalWeight([1, 0]))
    m = multiplet(p, a)
    for e, g in zip(m.reps, m.members):
        aw = a.replace_coeffs(
            apply_weyl_sum([e.inverse()], [1], a.shift, a.coeffs)
        )
        assert collect_to_chamber(p.sub, aw) == g


def test_bad_twist():
    p = zoo_problem("A2", "levi1")
    with pytest.raises(BadTwist):
        multiplet(p, TorusElement.monomial(p.datum, p.rho_m))


def test_gkrs_identity():
    rng = random.Random(43)
    for name, p in zoo_problems():
        twist = TwistClass.of(p.datum.rho)
        n = 8 if p.datum.rank <= 3 else 3
        for _ in range(n):
            a = random_torus_element(
                p, rng, twist=twist, max_support=4 if p.datum.rank > 3 else 8
            )
            assert gkrs_identity_check(p, a), name
    # trivially true on anti-invariant inputs
    p = zoo_problem("A2", "t")
    from spinduct.charring import weyl_denominator

    assert gkrs_identity_check(p, weyl_denominator(p.datum))


def test_distinct_members_for_dominant_monomials():
    for name, p in zoo_problems():
        lam = p.datum.rho + RationalWeight.from_ints((1,) * p.datum.rank)
        m = multiplet(p, TorusElement.monomial(p.datum, lam))
        assert all(not g.is_zero() for g in m.members), name
        hw = [tuple(sorted(g.coeffs.items())) for g in m.members]
        assert len(set(hw)) == len(hw), name
