"""Shifted modules over a root-lattice datum, where [rho] is genuinely
half-integral: the antisymmetrizer factorizations, unit induction and the
closed Borel-Weil-Bott form must all hold with fractional shift residues."""

import random

import pytest

from spinduct.charring import GroupElement, TorusElement, irreducible_restriction
from spinduct.errors import BadTwist
from spinduct.induction import bwb_irreducible, induce_twisted_spinc, make_problem
from spinduct.rootdata import RationalWeight, build_root_datum, subgroup_from_roots
from spinduct.weyl import apply_antisymmetrizer
from spinduct.zoo import random_dominant_weight


def so7_problem():
    so7 = build_root_datum("B3", "root")
    sub = subgroup_from_roots(
        so7,
        [so7.root_from_simple_coordinates(sc) for sc in [(1, 1, 1), (0, 1, 0), (0, 1, 2)]],
    )
    return make_problem(so7, sub)


def test_rho_is_fractional_on_the_root_lattice():
    p = so7_problem()
    assert not p.datum.rho.is_integral()
    assert p.datum.rho.residue_mod_one() != RationalWeight.zero(3)


def test_antisymmetrizer_identities_at_half_shift():
    p = so7_problem()
    rng = random.Random(3)
    tw = p.datum.rho.residue_mod_one()
    for _ in range(40):
        weights = {
            tw + RationalWeight([rng.randint(-3, 3) for _ in range(3)]): rng.randint(-9, 9) or 1
            for _ in range(rng.randint(1, 8))
        }
        a = TorusElement.from_weights(p.datum, weights)
        assert a.shift == tw
        jg = apply_antisymmetrizer("J_G", a)
        assert jg == apply_antisymmetrizer(
            "J_M", apply_antisymmetrizer("J_H", a, p.sub), p.sub
        )
        assert jg == apply_antisymmetrizer(
            "J_H", apply_antisymmetrizer("J_M_OP", a, p.sub), p.sub
        )


def test_unit_induction_at_half_shift():
    p = so7_problem()
    spinor = irreducible_restriction(p.sub, p.rho_m)
    assert induce_twisted_spinc(p, spinor).terms() == [(RationalWeight.zero(3), 1)]


def test_bwb_agreement_at_half_shift():
    p = so7_problem()
    rng = random.Random(5)
    twm = p.rho_m.residue_mod_one()
    for _ in range(20):
        mu = random_dominant_weight(p.sub, rng, twist=twm)
        lhs = bwb_irreducible(p, mu)
        rhs = induce_twisted_spinc(p, irreducible_restriction(p.sub, mu))
        assert lhs == rhs


def test_elements_refuse_keys_outside_their_class():
    a1, a2 = build_root_datum("A1"), build_root_datum("A2")
    with pytest.raises(BadTwist):  # weight 0 is not in 1/3 + Z
        TorusElement(a1, RationalWeight([1], 3), {(0,): 1})
    with pytest.raises(BadTwist):  # a rank-3 key over a rank-2 datum
        TorusElement(a2, RationalWeight([1, 0], 2), {(1, 0, 0): 1})
    with pytest.raises(BadTwist):
        TorusElement.from_weights(a1, {RationalWeight([1], 3): 1, RationalWeight([2], 3): 1})
    with pytest.raises(BadTwist):
        GroupElement.from_weights(a1, {RationalWeight([1], 2): 1, RationalWeight([1]): 1})
    a = TorusElement.from_weights(a1, {RationalWeight([1], 3): 2, RationalWeight([-2], 3): 1})
    assert a.coeffs == {(1,): 2, (-2,): 1}
