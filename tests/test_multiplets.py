import itertools
import math
import random

import pytest

from spinduct import kernels
from spinduct.charring import TorusElement, dimension
from spinduct.errors import BadTwist
from spinduct.induction import make_problem
from spinduct.multiplets import Multiplet, alternating_dimension_sum, multiplet
from spinduct.rootdata import (
    RationalWeight,
    build_root_datum,
    dot,
    forget_scopes,
    scaled,
    subgroup_from_roots,
)
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


def test_members_recomputable():
    from spinduct.induction import collect_to_chamber
    from spinduct.intlinalg import identity, matmul
    from spinduct.weyl import apply_weyl_sum

    p = zoo_problem("G2", "a2long")
    a = TorusElement.monomial(p.datum, p.datum.rho + RationalWeight([1, 0]))
    m = multiplet(p, a)
    for e, inv, g in zip(m.reps, p.reps.inverses, m.members, strict=True):
        assert matmul(e.matrix, inv.matrix) == identity(p.datum.rank)
        aw = a.replace_coeffs(apply_weyl_sum([inv], [1], a.shift, a.coeffs))
        assert collect_to_chamber(p.sub, aw) == g


def test_bad_twist():
    p = zoo_problem("A2", "levi1")
    with pytest.raises(BadTwist):
        multiplet(p, TorusElement.monomial(p.datum, p.rho_m))


def test_distinct_members_for_dominant_monomials():
    for name, p in zoo_problems():
        lam = p.datum.rho + RationalWeight.from_ints((1,) * p.datum.rank)
        m = multiplet(p, TorusElement.monomial(p.datum, lam))
        assert all(not g.is_zero() for g in m.members), name
        hw = [tuple(sorted(g.coeffs.items())) for g in m.members]
        assert len(set(hw)) == len(hw), name


# --- the one pass over W^H against the per-member algorithm ------------------

# E6 > A2xA2xA2: the extended Dynkin diagram of E6 minus its centre, in
# simple-root coordinates
E6_A2_CUBED = ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
               (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1), (1, 2, 2, 3, 2, 1))


def _e6_problem():
    e6 = build_root_datum("E6")
    return make_problem(e6, subgroup_from_roots(
        e6, [e6.root_from_simple_coordinates(sc) for sc in E6_A2_CUBED]))


def _sigma_problem():
    """A2xT1 > levi with a central half-integral twist sigma."""
    datum = build_root_datum("A2xT1")
    sub = subgroup_from_roots(datum, [datum.simple_roots[0]])
    return make_problem(datum, sub, RationalWeight([0, 0, 1], 2).residue_mod_one())


def _so7_problem():
    """B3 on its root lattice, where [rho_G] is half-integral."""
    so7 = build_root_datum("B3", "root")
    return make_problem(so7, subgroup_from_roots(
        so7, [so7.root_from_simple_coordinates(sc) for sc in [(1, 1, 1), (0, 1, 0), (0, 1, 2)]]))


def _oracle_pairs():
    return zoo_problems() + [
        ("E6/A2^3", _e6_problem()),
        ("A2xT1/levi, sigma", _sigma_problem()),
        ("B3:root/so3xso4", _so7_problem()),
    ]


def _fraction_dimension(g):
    """dim of a virtual H-module by the Weyl dimension formula in Fraction
    arithmetic."""
    from fractions import Fraction

    scope, rho = g.scope, g.scope.rho_vec
    total = 0
    for lam, c in g.terms():
        top = lam + rho
        d = Fraction(1)
        for a in scope.positive:
            cv = scope.datum.coroot(a)
            d *= Fraction(dot(cv, top.nums), top.den) / Fraction(dot(cv, rho.nums), rho.den)
        assert d.denominator == 1 and d > 0
        total += c * int(d)
    return total


def _per_member_multiplet(problem, a):
    """The multiplet as it was computed before the one pass, kept as an
    oracle: w^{-1}(a) by apply_weyl_sum for each representative, then the
    H-side collect_to_chamber.  Returns (members, signs, dimensions)."""
    from spinduct.induction import collect_to_chamber
    from spinduct.multiplets import _check_source_twist
    from spinduct.weyl import apply_weyl_sum

    _check_source_twist(problem, a)
    members = tuple(
        collect_to_chamber(problem.sub, a.replace_coeffs(
            apply_weyl_sum([inv], [1], a.shift, a.coeffs)))
        for inv in problem.reps.inverses
    )
    signs = tuple(e.det for e in problem.reps.reps)
    return members, signs, tuple(_fraction_dimension(g) for g in members)


def _assert_matches_oracle(name, p, a):
    m = multiplet(p, a)
    members, signs, dims = _per_member_multiplet(p, a)
    assert m.reps == p.reps.reps, name
    assert m.members == members, name
    assert m.signs == signs, name
    assert m.dimensions == dims, name


def _source_shift(p):
    return (p.sigma + p.datum.rho).residue_mod_one()


def test_one_pass_matches_per_member_on_monomials():
    rng = random.Random(47)
    for name, p in _oracle_pairs():
        # every oracle pair packs its inverses, so the packed path is compared
        assert p.reps.packed_inverses is not None, name
        rank = p.datum.rank
        shift = _source_shift(p)
        dominant = [p.datum.rho, p.datum.rho + RationalWeight.from_ints((1,) * rank)]
        arbitrary = [RationalWeight.from_ints([rng.randint(-3, 3) for _ in range(rank)])
                     for _ in range(3)] + [-p.datum.rho]
        for lam in dominant + arbitrary:
            lam = shift + lam - lam.residue_mod_one()  # into the source class
            _assert_matches_oracle(name, p, TorusElement.monomial(p.datum, lam))


def test_one_pass_matches_per_member_on_random_elements():
    rng = random.Random(53)
    for name, p in _oracle_pairs():
        twist = _source_shift(p)
        for _ in range(6 if p.datum.rank <= 4 else 2):
            a = random_torus_element(p, rng, twist=twist, max_support=8)
            _assert_matches_oracle(name, p, a)
        # the zero source still gives one (zero) member per representative
        _assert_matches_oracle(name, p, TorusElement.zero(p.datum, twist))


def test_one_pass_at_half_integral_rho_h():
    p = zoo_problem("A2", "levi1")
    assert p.sub.rho_h.den == 2 and p.datum.rho.den == 1
    rng = random.Random(59)
    for _ in range(10):
        a = random_torus_element(p, rng, twist=p.datum.rho.residue_mod_one())
        _assert_matches_oracle("A2/levi1", p, a)
        assert all(g.shift.den == 2 for g in multiplet(p, a).members)


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_sources_outside_the_rho_class_raise_on_both():
    for name, p in _oracle_pairs():
        wrong = [p.rho_m, p.sub.rho_h, RationalWeight([1] + [0] * (p.datum.rank - 1), 2)]
        for lam in wrong:
            if lam.residue_mod_one() == _source_shift(p):
                continue
            a = TorusElement.monomial(p.datum, lam)
            with pytest.raises(BadTwist):
                multiplet(p, a)
            with pytest.raises(BadTwist):
                _per_member_multiplet(p, a)


def test_unstable_shifts_raise_alike_on_both():
    """A twist sigma outside the W-stable classes: the one pass raises the
    error the per-member algorithm raises, with the same message."""
    checked = 0
    for group, sub in (("A2", "levi1"), ("A2", "t"), ("B2", "t"), ("G2", "a2long")):
        datum = zoo_problem(group, sub).datum
        for nums in ([1, 0], [0, 1], [1, 1]):
            sigma = RationalWeight(nums, 2).residue_mod_one()
            p = make_problem(datum, zoo_problem(group, sub).sub, sigma)
            a = TorusElement.monomial(datum, datum.rho + sigma)
            expect = _raised(_per_member_multiplet, p, a)
            assert _raised(multiplet, p, a) == expect, (group, sub, nums)
            checked += expect is not None
    assert checked > 0


# --- the packed W^H table --------------------------------------------------------


def _e6_sources(p):
    """The 64 monomials e^[x], x in {0,1}^6, all G-dominant."""
    return [TorusElement.monomial(p.datum, RationalWeight.from_ints(x))
            for x in itertools.product((0, 1), repeat=6)]


def test_packed_multiplet_matches_per_member_on_every_e6_source():
    p = _e6_problem()
    for a in _e6_sources(p):
        _assert_matches_oracle("E6/A2^3", p, a)


def _count_walks(monkeypatch):
    walks = []
    walk = kernels.dominant_walk
    monkeypatch.setattr(kernels, "dominant_walk", lambda *a: walks.append(a[0]) or walk(*a))
    return walks


def test_packed_multiplet_matches_per_member_on_non_dominant_e6_sources(monkeypatch):
    """Multi-key sources of the [rho_G] class with a key outside the G
    chamber, so images outside the H chamber are walked."""
    p = _e6_problem()
    rng = random.Random(61)
    walls = p.datum.simple_coroots
    for _ in range(20):
        keys = {tuple(rng.randint(-3, 3) for _ in range(6)): rng.choice((-2, -1, 1, 3))
                for _ in range(rng.randint(2, 4))}
        assert any(min(dot(cv, k) for cv in walls) < 0 for k in keys)
        a = TorusElement(p.datum, _source_shift(p), keys)
        walks = _count_walks(monkeypatch)
        multiplet(p, a)
        monkeypatch.undo()
        assert walks
        _assert_matches_oracle("E6/A2^3", p, a)


def _bound(table, key):
    return sum(c * abs(x) for c, x in zip(table.bounds, key))


def test_keys_past_the_packing_bound_take_the_matrix_path(monkeypatch):
    """Keys on both sides of the bound 2^15 and far past it (2^70): a key
    reads the table exactly when its bound is below 2^15, and every member
    matches the per-member oracle, on E6 and on B3's root lattice, whose
    keys are doubled in the pass."""
    digits = []
    read = kernels._digits
    monkeypatch.setattr(kernels, "_digits", lambda v, b: digits.append(v) or read(v, b))
    seen = set()
    for name, p in (("E6/A2^3", _e6_problem()), ("B3:root/so3xso4", _so7_problem())):
        table, shift = p.reps.packed_inverses, _source_shift(p)
        den = math.lcm(shift.den, p.sub.rho_h.den)  # the keys are den * weight
        for v in ((1,) * p.datum.rank, (2, -1) + (0,) * (p.datum.rank - 2)):
            edge = 2**15 // _bound(table, scaled(RationalWeight(v), den))
            for t in list(range(edge - 2, edge + 3)) + [2**70]:
                lam = shift + RationalWeight(v).scale(t)
                packed = _bound(table, scaled(lam, den)) < 2**15
                seen.add(packed)
                digits.clear()
                _assert_matches_oracle(name, p, TorusElement.monomial(p.datum, lam))
                assert bool(digits) == packed, (name, v, t)
    assert seen == {True, False}


def test_zero_members_are_one_shared_element():
    """Every zero member of a multiplet is one object, and the multiplet
    equals one built from the per-member oracle's separate elements."""
    p = _e6_problem()
    a = TorusElement.monomial(p.datum, RationalWeight.from_ints((0, 0, 1, 1, 0, 1)))
    m = multiplet(p, a)
    zeros = {id(g) for g in m.members if g.is_zero()}
    assert len(zeros) == 1 and 0 < sum(g.is_zero() for g in m.members) < len(m)
    members, signs, _ = _per_member_multiplet(p, a)
    assert len({id(g) for g in members if g.is_zero()}) > 1
    assert m == Multiplet(a, p.reps.reps, members, signs)
    assert m != Multiplet(a, p.reps.reps, members[1:] + members[:1], signs)
    bare = Multiplet(None, m.reps, (), m.signs)
    assert hash(bare) == hash((None, m.reps, (), m.signs))


def test_dominant_e6_sources_walk_no_image(monkeypatch):
    """Work, not time: the 64 dominant E6 sources walk no image into the H
    chamber, as every image of a dominant key lies in the closed H chamber."""
    p = _e6_problem()
    sources = _e6_sources(p)
    walks = _count_walks(monkeypatch)
    nonzero = sum(not g.is_zero() for a in sources for g in multiplet(p, a).members)
    assert walks == [] and nonzero > 0


def test_packed_table_is_built_once_per_pair(monkeypatch):
    """One table per (G, H) pair, shared by problems of different sigma and
    built on the first multiplet."""
    builds = []
    pack = kernels.pack_matrices
    monkeypatch.setattr(kernels, "pack_matrices", lambda *a: builds.append(a) or pack(*a))
    forget_scopes()  # no table that an earlier test built
    datum = build_root_datum("A2xT1")
    sub = subgroup_from_roots(datum, [datum.simple_roots[0]])
    problems = [make_problem(datum, sub, RationalWeight(nums, 2))
                for nums in ([0, 0, 0], [0, 0, 1])]
    assert problems[0] is not problems[1] and problems[0].sigma != problems[1].sigma
    reps = problems[0].reps
    for p in problems * 2:
        assert p.reps is reps
        multiplet(p, TorusElement.monomial(datum, p.datum.rho + p.sigma))
    assert len(builds) == 1
    assert problems[1].reps.packed_inverses is problems[0].reps.packed_inverses
