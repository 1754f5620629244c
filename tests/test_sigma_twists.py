"""G-side twists: a central-torus shift is stable under the whole Weyl
group, so it threads through induction, BWB and multiplets as pure
bookkeeping."""

import random

import pytest

from spinduct.charring import (
    TorusElement,
    irreducible_restriction,
    multiply,
)
from spinduct.errors import BadTwist
from spinduct.induction import (
    TORSION_ORDER,
    _torsion_field,
    bwb_irreducible,
    induce_twisted_spinc,
    lefschetz_check,
    make_problem,
)
from spinduct.multiplets import alternating_dimension_sum, multiplet
from spinduct.rootdata import RationalWeight, build_root_datum, subgroup_from_roots
from spinduct.zoo import random_dominant_weight


def sigma_problem():
    datum = build_root_datum("A2xT1")
    sub = subgroup_from_roots(datum, [datum.simple_roots[0]])
    sigma = RationalWeight([0, 0, 1], 2).residue_mod_one()
    return make_problem(datum, sub, sigma)


def test_sigma_threads_through_induction():
    p = sigma_problem()
    twist = (p.sigma + p.rho_m).residue_mod_one()
    assert p.sigma_rho_m == twist
    spinor_shifted = multiply(
        irreducible_restriction(p.sub, p.rho_m),
        TorusElement.monomial(p.datum, p.sigma),
    )
    assert spinor_shifted.shift == twist
    out = induce_twisted_spinc(p, spinor_shifted)
    assert out.shift == p.sigma
    assert out.terms() == [(p.sigma, 1)]


def test_sigma_lefschetz_agrees_exactly():
    """The fixed-point oracle with the half-integral sigma: the keys'
    denominator D is 2, and the left side e^sigma takes values of order 2N."""
    p = sigma_problem()
    spinor_shifted = multiply(
        irreducible_restriction(p.sub, p.rho_m),
        TorusElement.monomial(p.datum, p.sigma),
    )
    rep = lefschetz_check(p, p.euler, spinor_shifted, trials=6, seed=4)
    assert rep.mismatches == 0 and len(rep.samples) == 6
    n, prime = TORSION_ORDER, rep.prime
    assert rep.prime == _torsion_field(2 * n)[0]
    assert all(pow(l, 2 * n, prime) == 1 for l, _ in rep.samples)
    assert any(pow(l, n, prime) != 1 for l, _ in rep.samples)


def test_sigma_bwb_agreement():
    p = sigma_problem()
    rng = random.Random(13)
    twist = (p.sigma + p.rho_m).residue_mod_one()
    for _ in range(20):
        mu = random_dominant_weight(p.sub, rng, twist=twist)
        lhs = bwb_irreducible(p, mu)
        rhs = induce_twisted_spinc(p, irreducible_restriction(p.sub, mu))
        assert lhs == rhs
        assert lhs.shift == p.sigma


def test_sigma_multiplet_bookkeeping():
    p = sigma_problem()
    src = multiply(
        TorusElement.monomial(p.datum, p.datum.rho),
        TorusElement.monomial(p.datum, p.sigma),
    )
    m = multiplet(p, src)
    assert len(m) == len(p.reps.reps)
    assert alternating_dimension_sum(m) == 0
    # the plain [rho_G] source is rejected once sigma is nonzero
    with pytest.raises(BadTwist):
        multiplet(p, TorusElement.monomial(p.datum, p.datum.rho))


def test_wrong_sigma_rejected():
    p = sigma_problem()
    with pytest.raises(BadTwist):
        induce_twisted_spinc(p, irreducible_restriction(p.sub, p.rho_m))
