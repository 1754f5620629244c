import random
from fractions import Fraction

import pytest

from spinduct.charring import TorusElement, euler_class, multiply
from spinduct.errors import LengthMismatch, NotCSpinorial, NotInXH
from spinduct.induction import divide_exact, make_problem
from spinduct.rootdata import (
    RationalWeight,
    build_root_datum,
    subgroup_character_lattice,
    subgroup_from_roots,
)
from spinduct.spinc import (
    almost_complex_character,
    classify,
    euler_class_for_character,
    nu,
)
from spinduct.zoo import ZOO_PAIRS, zoo_problem


def test_flag_varieties_always_c_spinorial():
    for g, h in ZOO_PAIRS:
        if h != "t":
            continue
        p = zoo_problem(g, h)
        c = classify(p)
        assert c.is_c_spinorial
        assert nu(p, c.gamma).is_integral()


def test_oriented_three_planes_refuses():
    c = classify(zoo_problem("B3:spin", "so3xso4"))
    assert not c.is_spin
    assert not c.is_c_spinorial
    assert c.gamma is None


def test_levi_complex_structure():
    p = zoo_problem("A2", "levi1")
    c = classify(p)
    assert c.is_c_spinorial and not c.is_spin
    assert c.gamma == tuple(p.rho_m.scale(2).ints())
    assert nu(p, c.gamma) == RationalWeight.zero(2)


def test_spin_case_gamma_zero():
    c = classify(zoo_problem("A1", "t"))
    assert c.is_spin and c.gamma == (0,)
    # SO(3)/T: not spin, complex witness 2 rho
    so3 = build_root_datum("A1", "root")
    p = make_problem(so3, subgroup_from_roots(so3, []))
    c = classify(p)
    assert not c.is_spin and c.is_c_spinorial
    assert nu(p, c.gamma) == RationalWeight.zero(1)


def test_semisimple_consistency():
    for g, h in ZOO_PAIRS:
        p = zoo_problem(g, h)
        c = classify(p)
        if subgroup_character_lattice(p.sub).rank == 0:
            assert c.is_spin == c.is_c_spinorial, (g, h)


def test_nu_laws():
    p = zoo_problem("A2", "levi1")
    c = classify(p)
    xh = subgroup_character_lattice(p.sub)
    chi = xh.columns[0]
    shifted = tuple(a + 2 * b for a, b in zip(c.gamma, chi))
    assert nu(p, shifted) == nu(p, c.gamma) + RationalWeight.from_ints(chi)
    pt = zoo_problem("A2", "t")
    assert nu(pt, (0, 0)) == -pt.rho_m
    with pytest.raises(NotInXH):
        nu(p, (1, 0))  # does not annihilate the Levi coroot
    with pytest.raises(NotInXH):
        nu(p, (0,))


def test_euler_class_for_character():
    # spin case: same support as the twisted Euler class, but untwisted
    p = zoo_problem("A1", "t")
    e0 = euler_class_for_character(p, (0,))
    assert e0.shift == RationalWeight.zero(1)
    ec = euler_class(p.sub)
    def fractions(w):
        return tuple(Fraction(x, w.den) for x in w.nums)

    assert sorted(fractions(w) for w, _ in e0.terms()) == sorted(
        fractions(w) for w, _ in ec.terms()
    )
    # complex case: the plain product over R_M^+
    pl = zoo_problem("A2", "levi1")
    gam = classify(pl).gamma
    egam = euler_class_for_character(pl, gam)
    prod = TorusElement.unit(pl.datum)
    for alpha in pl.sub.complement_positive:
        prod = multiply(
            prod,
            TorusElement.unit(pl.datum)
            - TorusElement.monomial(pl.datum, RationalWeight.from_ints(alpha)),
        )
    assert egam == prod
    # gamma and gamma + 2 chi differ by e^chi
    xh = subgroup_character_lattice(pl.sub)
    chi = xh.columns[0]
    shifted = tuple(a + 2 * b for a, b in zip(gam, chi))
    assert euler_class_for_character(pl, shifted) == multiply(
        TorusElement.monomial(pl.datum, RationalWeight.from_ints(chi)), egam
    )
    with pytest.raises(NotCSpinorial):
        euler_class_for_character(zoo_problem("B3:spin", "so3xso4"), (0, 0, 0))


def test_almost_complex_character():
    pl = zoo_problem("A2", "levi1")
    n = len(pl.sub.complement_positive)
    assert almost_complex_character(pl, [1] * n) == pl.rho_m.scale(2)
    assert almost_complex_character(pl, [-1] * n) == pl.rho_m.scale(-2)
    p1 = zoo_problem("A1", "t")
    assert almost_complex_character(p1, [1]) == RationalWeight([2])
    with pytest.raises(LengthMismatch):
        almost_complex_character(pl, [1])
    with pytest.raises(LengthMismatch):
        almost_complex_character(p1, [2])


def test_versus_generator_division():
    rng = random.Random(47)
    pl = zoo_problem("A2", "levi1")
    half = RationalWeight(classify(pl).gamma, 2)
    gen = TorusElement.monomial(pl.datum, half)
    from spinduct.zoo import random_torus_element

    for _ in range(30):
        a = random_torus_element(pl, rng, twist=pl.rho_m.residue_mod_one())
        q = divide_exact(a, gen)
        assert q.shift == RationalWeight.zero(pl.datum.rank)
        assert multiply(q, gen) == a
