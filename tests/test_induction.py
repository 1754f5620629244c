import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from spinduct import induction
from spinduct.charring import (
    GroupElement,
    TorusElement,
    dimension,
    dualize,
    irreducible_restriction,
    multiply,
    weyl_denominator,
)
from spinduct.errors import (
    BadTwist,
    BadTwistPairing,
    InexactDivision,
    NotHDominant,
    NotLevi,
    NotSpin,
    NotWHInvariant,
    WrongBasisSize,
)
from spinduct.induction import (
    TORSION_ORDER,
    _is_prime,
    _torsion_field,
    branch,
    bwb_irreducible,
    collect_to_chamber,
    divide_exact,
    induce_classical,
    induce_twisted_spinc,
    lefschetz_check,
    make_problem,
    pairing_report,
    partial,
)
from spinduct.rootdata import RationalWeight, build_root_datum, dot, subgroup_from_roots
from spinduct.spinc import classify
from spinduct.weyl import generate_weyl
from spinduct.zoo import (
    ZOO_PAIRS,
    random_dominant_weight,
    random_wh_invariant,
    steinberg_pairing_bases,
    zoo_problem,
    zoo_problems,
)


def trivial_class(p, n=1):
    return GroupElement.from_weights(
        p.datum, {RationalWeight.zero(p.datum.rank): n}
    )


def test_partial_basics():
    p = zoo_problem("A1", "t")
    a1 = p.datum
    one = trivial_class(p)
    assert partial(p, "G", TorusElement.monomial(a1, a1.rho)) == one
    assert partial(p, "G", TorusElement.monomial(a1, RationalWeight([0]))).is_zero()
    assert partial(p, "G", TorusElement.monomial(a1, RationalWeight([-1]))) == one.scale(-1)
    with pytest.raises(BadTwist):
        partial(p, "G", TorusElement.monomial(a1, RationalWeight([1], 3)))


def test_h_equals_g_identity():
    a2 = build_root_datum("A2")
    full = subgroup_from_roots(a2, list(a2.roots))
    p = make_problem(a2, full)
    ch = irreducible_restriction(a2, a2.rho)
    assert induce_twisted_spinc(p, ch).terms() == [(a2.rho, 1)]


def test_twist_and_invariance_errors():
    p = zoo_problem("A2", "levi1")
    with pytest.raises(BadTwist):
        induce_twisted_spinc(p, TorusElement.unit(p.datum))
    # right twist class but moved by the Levi reflection
    bad = TorusElement.monomial(p.datum, p.rho_m + RationalWeight([1, 0]))
    with pytest.raises(NotWHInvariant):
        induce_twisted_spinc(p, bad)


def test_classical_induction_checks_invariance():
    p = zoo_problem("A2", "levi1")
    moved = TorusElement.monomial(p.datum, RationalWeight([1, 0]))
    with pytest.raises(NotWHInvariant):
        induce_classical(p, "holomorphic", moved)


def _induce_by_denominator(big, small, a):
    """The former formula, kept as an oracle: collect_big(d_small a) / |W_small|."""
    ge = collect_to_chamber(big, multiply(weyl_denominator(small), a))
    order = generate_weyl(small).order
    assert all(c % order == 0 for c in ge.coeffs.values())
    return GroupElement(big, ge.shift, {k: c // order for k, c in ge.coeffs.items()})


def test_induction_matches_denominator_oracle():
    rng = random.Random(43)
    for name, p in zoo_problems():
        twist = (p.sigma + p.rho_m).residue_mod_one()
        for _ in range(6):
            a = random_wh_invariant(p, rng, twist=twist, max_support=3, dim_cap=80)
            assert induce_twisted_spinc(p, a) == _induce_by_denominator(p.datum, p.sub, a), name


def test_bwb_examples():
    for name, p in zoo_problems():
        assert bwb_irreducible(p, p.rho_m) == trivial_class(p), name
    p = zoo_problem("A2", "t")
    # H = T: mu + rho_H = mu, so a wall weight must induce to zero
    mu = RationalWeight([0, 3])
    assert bwb_irreducible(p, mu).is_zero()
    pl = zoo_problem("A2", "levi1")
    alpha1 = RationalWeight.from_ints(pl.datum.simple_roots[0])
    with pytest.raises(NotHDominant):
        bwb_irreducible(pl, pl.rho_m - alpha1)


def test_bwb_torus_case_is_holomorphic_bwb():
    p = zoo_problem("A2", "t")
    rng = random.Random(23)
    for _ in range(20):
        kappa = RationalWeight([rng.randint(-3, 3), rng.randint(-3, 3)])
        # holomorphic induction of e^kappa equals i_* of e^(kappa + rho_G)
        lhs = induce_classical(p, "holomorphic", TorusElement.monomial(p.datum, kappa))
        rhs = bwb_irreducible(p, kappa + p.rho_m)
        assert lhs == rhs


def test_classical_kinds():
    p1 = zoo_problem("A1", "t")
    assert induce_classical(p1, "spin", TorusElement.unit(p1.datum)).is_zero()
    p2 = zoo_problem("A2", "t")
    lam = RationalWeight([2, 1])
    assert induce_classical(
        p2, "holomorphic", TorusElement.monomial(p2.datum, lam)
    ).terms() == [(lam, 1)]
    # (-1, 0) + rho lies on a wall, so it induces to zero
    assert induce_classical(
        p2, "holomorphic", TorusElement.monomial(p2.datum, RationalWeight([-1, 0]))
    ).is_zero()
    # spin induction refuses when rho_M is not a weight
    pl = zoo_problem("A2", "levi1")
    with pytest.raises(NotSpin):
        induce_classical(pl, "spin", TorusElement.unit(pl.datum))
    # holomorphic induction refuses non-Levi subgroups
    pg = zoo_problem("G2", "a2long")
    with pytest.raises(NotLevi):
        induce_classical(pg, "holomorphic", TorusElement.unit(pg.datum))
    # spinc with the complex-structure character matches holomorphic
    rng = random.Random(5)
    gam = classify(pl).gamma
    for _ in range(5):
        a = random_wh_invariant(pl, rng, max_support=2, dim_cap=60)
        assert induce_classical(pl, "holomorphic", a) == induce_classical(
            pl, "spinc", a, gamma=gam
        )


def test_branch():
    p = zoo_problem("A2", "levi1")
    adj = GroupElement.from_weights(p.datum, {p.datum.rho: 1})
    br = branch(p, adj)
    assert len(br.coeffs) == 4
    assert dimension(br) == 8
    assert br.to_torus() == adj.to_torus()
    # H = G is the identity
    a2 = p.datum
    full = subgroup_from_roots(a2, list(a2.roots))
    pg = make_problem(a2, full)
    assert branch(pg, adj).terms() == [(a2.rho, 1)]
    # dimension preserved on random inputs
    rng = random.Random(37)
    for name, q in zoo_problems():
        lam = random_dominant_weight(q.datum, rng, dim_cap=150)
        a = GroupElement.from_weights(q.datum, {lam: 2})
        assert dimension(branch(q, a)) == dimension(a)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ZOO_PAIRS), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_branching_honest_modules(pair, seed, mult):
    p = zoo_problem(*pair)
    rng = random.Random(seed)
    cap = 150 if p.datum.rank <= 3 else 60
    a = GroupElement.from_weights(
        p.datum,
        {random_dominant_weight(p.datum, rng, dim_cap=cap): mult,
         random_dominant_weight(p.datum, rng, dim_cap=cap): 1},
    )
    br = branch(p, a)
    assert all(c > 0 for c in br.coeffs.values())
    assert dimension(br) == dimension(a)
    assert br.to_torus() == a.to_torus()


def test_problem_caches_consistent():
    from spinduct.charring import euler_class, weyl_denominator
    from spinduct.induction import InductionProblem

    p = zoo_problem("G2", "a2long")
    fresh = InductionProblem(p.datum, p.sub)
    assert fresh.d_g == weyl_denominator(p.datum) == p.d_g
    assert fresh.d_h == weyl_denominator(p.sub) == p.d_h
    assert fresh.euler == euler_class(p.sub) == p.euler
    assert [e.matrix for e in fresh.reps.reps] == [e.matrix for e in p.reps.reps]


def test_make_problem_is_one_object_per_arguments():
    """Equal arguments give one problem, however sigma is passed."""
    d = build_root_datum("B3")
    sub = subgroup_from_roots(d, d.positive_roots[:1])
    p = make_problem(d, sub)
    assert make_problem(d, sub, None) is p
    assert make_problem(d, sub, sigma=None) is p
    assert make_problem(build_root_datum("B3", "spin"), sub) is p
    # the zero twist passed as a weight is the default's problem; rho_G is
    # a weight of B3's weight lattice, so [rho_G] is that zero twist
    assert p.sigma == RationalWeight.zero(3)
    assert make_problem(d, sub, d.rho.residue_mod_one()) is p
    # no sigma is the datum's one zero residue, built once
    assert d.zero_twist is d.zero_twist == RationalWeight.zero(3)
    a2 = build_root_datum("A2")
    t = subgroup_from_roots(a2, [])
    assert make_problem(a2, t, RationalWeight.zero(2)) is make_problem(a2, t)
    assert make_problem(a2, t, sigma=RationalWeight.zero(2)) is make_problem(a2, t, None)
    # a nonzero twist W keeps: half the central character of A2xT1
    a2t1 = build_root_datum("A2xT1")
    levi = subgroup_from_roots(a2t1, [a2t1.simple_roots[0]])
    sigma = RationalWeight([0, 0, 1], 2)
    q = make_problem(a2t1, levi, sigma)
    assert q is not make_problem(a2t1, levi) and q.sigma == sigma
    assert make_problem(a2t1, levi, sigma=RationalWeight([0, 0, 1], 2)) is q


def test_extraction_of_bare_orbit_sum():
    # a virtual combination whose extraction walks far below the top weight
    from spinduct import kernels
    from spinduct.induction import extract_highest_weights

    g2 = build_root_datum("G2")
    lam = RationalWeight([6, 4])
    orbit = kernels.orbit_expand(
        [(lam.nums, 1)], g2.simple_roots, g2.simple_coroots
    )
    t = TorusElement(g2, RationalWeight.zero(2), orbit)
    ge = extract_highest_weights(g2, t)
    assert ge.to_torus() == t


def test_divide_exact():
    a2 = build_root_datum("A2")
    d = weyl_denominator(a2)
    chi = irreducible_restriction(a2, RationalWeight([1, 1]))
    prod = multiply(d, chi)
    assert divide_exact(prod, d) == chi
    assert divide_exact(prod, chi) == d
    with pytest.raises(InexactDivision):
        divide_exact(d, TorusElement.unit(a2) + TorusElement.monomial(a2, RationalWeight([1, 0]), 2))


def test_divide_exact_long_quotient():
    # the quotient can dwarf both operands: (1 - x^500) / (1 - x)
    a1 = build_root_datum("A1")
    one = TorusElement.unit(a1)
    num = one - TorusElement.monomial(a1, RationalWeight([500]))
    den = one - TorusElement.monomial(a1, RationalWeight([1]))
    q = divide_exact(num, den)
    assert len(q.coeffs) == 500
    assert multiply(q, den) == num


def test_pairing_units_and_errors():
    for label in ("A1", "A2"):
        p = zoo_problem(label, "t")
        for tau_name in ("0", "rhoM"):
            basis_a, basis_b, tau = steinberg_pairing_bases(p, tau_name)
            rep = pairing_report(p, tau, basis_a, basis_b)
            assert rep.is_unit
            det = rep.determinant_character
            assert len(det.coeffs) == 1
    p = zoo_problem("A1", "t")
    ba, bb, _ = steinberg_pairing_bases(p, "0")
    with pytest.raises(WrongBasisSize):
        pairing_report(p, RationalWeight.zero(1), ba[:1], bb)
    # on the Levi the orientation class is nonzero, so plain units have
    # the wrong twist for tau = [rho_M]
    pl = zoo_problem("A2", "levi1")
    units = [TorusElement.unit(pl.datum)] * len(pl.reps.reps)
    with pytest.raises(BadTwistPairing):
        pairing_report(pl, pl.rho_m.residue_mod_one(), units, units)


def test_pairing_h_equals_g():
    a2 = build_root_datum("A2")
    full = subgroup_from_roots(a2, list(a2.roots))
    p = make_problem(a2, full)
    rep = pairing_report(
        p, RationalWeight.zero(2), [TorusElement.unit(a2)], [TorusElement.unit(a2)]
    )
    assert rep.is_unit
    assert rep.gram[0][0].terms() == [(RationalWeight.zero(2), 1)]


def test_lefschetz_reports():
    p = zoo_problem("G2", "a2long")
    spinor = irreducible_restriction(p.sub, p.rho_m)
    rep = lefschetz_check(p, p.euler, spinor, trials=6, seed=1)
    assert rep.mismatches == 0 and len(rep.samples) == rep.trials == 6
    assert rep.prime == _torsion_field(TORSION_ORDER)[0]
    assert all(l == r == 1 for l, r in rep.samples)
    hodge = multiply(p.euler, dualize(p.euler))
    rep = lefschetz_check(p, hodge, TorusElement.unit(p.datum), trials=6, seed=2)
    assert rep.mismatches == 0
    assert all(l == r == len(p.reps.reps) == 2 for l, r in rep.samples)
    # H = G: the sum degenerates to a single restriction, symbolically equal
    a2 = build_root_datum("A2")
    full = subgroup_from_roots(a2, list(a2.roots))
    pg = make_problem(a2, full)
    rep = lefschetz_check(
        pg, pg.euler, irreducible_restriction(a2, a2.rho), trials=4, seed=3
    )
    assert rep.mismatches == 0 and len(rep.samples) == 4


@pytest.mark.parametrize("mult", [1, 2, 4, 6])
def test_torsion_field_has_a_root_of_unity_of_exact_order(mult):
    order = mult * TORSION_ORDER
    p, zeta = _torsion_field(order)
    assert p % order == 1 and p > 1 << 61 and _is_prime(p)
    assert pow(zeta, order, p) == 1
    for q in (2, 3, TORSION_ORDER):
        if order % q == 0:
            assert pow(zeta, order // q, p) != 1


def test_miller_rabin_agrees_with_trial_division():
    limit = 10 ** 5
    small = [q for q in range(2, math.isqrt(limit) + 1) if all(q % r for r in range(2, q))]

    def trial_division(n):
        return n > 1 and all(n % q for q in small if q * q <= n)

    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if trial_division(n)]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    assert 151 * 751 * 28351 == 3215031751
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)


def test_lefschetz_redraws_a_point_with_a_singular_image(monkeypatch):
    n = TORSION_ORDER
    p = zoo_problem("A2", "levi1")
    spinor = irreducible_restriction(p.sub, p.rho_m)
    # v on the wall of H's root: regular for every root of M at the identity,
    # singular at another W^H image, where 1 - e^{-alpha} would be 0
    alpha = p.sub.positive_h[0]
    wall = [alpha[1] % n, -alpha[0] % n]
    images = [[dot(col, wall) for col in zip(*e.matrix)] for e in p.reps.reps]
    assert all(dot(beta, images[0]) % n for beta in p.sub.complement_positive)
    assert any(dot(beta, u) % n == 0 for u in images for beta in p.sub.complement_positive)

    def check_at(*points):
        coords = iter([x for v in points for x in v])
        rng = SimpleNamespace(randrange=lambda bound: next(coords))
        monkeypatch.setattr(induction.random, "Random", lambda seed: rng)
        rep = lefschetz_check(p, p.euler, spinor, trials=1)
        assert next(coords, None) is None
        return rep

    regular = check_at([1, 3])
    assert regular.mismatches == 0
    assert check_at(wall, [1, 3]) == regular


def test_bad_twist_raises_on_every_call():
    a2 = build_root_datum("A2")
    half = TorusElement.monomial(a2, RationalWeight([1, 0], 2))
    for _ in range(2):
        with pytest.raises(BadTwist):
            collect_to_chamber(a2, half)
    # a passing pair is remembered and still collects correctly
    rho = TorusElement.monomial(a2, a2.rho)
    assert collect_to_chamber(a2, rho) == collect_to_chamber(a2, rho)
    assert collect_to_chamber(a2, rho).terms() == [(RationalWeight([0, 0]), 1)]
