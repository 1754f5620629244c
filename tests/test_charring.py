import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinduct import charring, kernels
from spinduct.charring import (
    GroupElement,
    TorusElement,
    anti_invariant_decompose,
    dimension,
    dualize,
    euler_class,
    irreducible_restriction,
    is_scope_invariant,
    multiply,
    weyl_denominator,
)
from spinduct.errors import (
    BadTwist,
    DatumMismatch,
    DegenerateSample,
    NotAntiInvariant,
    NotDominant,
    SpinductError,
)
from spinduct.induction import TORSION_ORDER, _torsion_field, divide_exact
from spinduct.rootdata import (
    RationalWeight,
    build_root_datum,
    dot,
    scaled,
    subgroup_from_roots,
    vadd,
    vneg,
    vsub,
)
from spinduct.serialize import torus_from_json, torus_to_json, torus_to_text
from spinduct.weyl import antisymmetrize, apply_antisymmetrizer, generate_weyl
from spinduct.zoo import (
    random_dominant_weight,
    random_torus_element,
    zoo_groups,
    zoo_problem,
    zoo_problems,
)


def mono(datum, coords, den=1, coeff=1):
    return TorusElement.monomial(datum, RationalWeight(coords, den), coeff)


def test_multiply_examples():
    a1 = build_root_datum("A1")
    d = weyl_denominator(a1)
    assert d == mono(a1, [1]) - mono(a1, [-1])
    # d * d^dual = 2 - e^alpha - e^(-alpha), alpha = 2 omega
    p = multiply(d, dualize(d))
    assert p == mono(a1, [0], coeff=2) - mono(a1, [2]) - mono(a1, [-2])
    # unit leaves elements alone
    assert multiply(d, TorusElement.unit(a1)) == d
    # monomials add exponents
    a2 = build_root_datum("A2")
    assert multiply(mono(a2, [1, 0]), mono(a2, [0, 1])) == mono(a2, [1, 1])


def test_twists_add_and_negate():
    b3 = build_root_datum("B3")
    sub = subgroup_from_roots(
        b3,
        [b3.root_from_simple_coordinates(sc) for sc in [(1, 1, 1), (0, 1, 0), (0, 1, 2)]],
    )
    e = euler_class(sub)
    # orientation twist is self-opposite: [rho_M] = [-rho_M]
    assert e.shift == sub.rho_m.residue_mod_one()
    assert sub.rho_m.residue_mod_one() == (-sub.rho_m).residue_mod_one()
    m, h = sub.rho_m.residue_mod_one(), sub.rho_h.residue_mod_one()
    assert (m + h).residue_mod_one() == b3.rho.residue_mod_one()


def test_elements_keep_a_canonical_shift_and_canonicalize_any_other():
    """An element built from the canonical residue keeps that shift object;
    the same keys den * w given with any other representative shift + v of
    the class give an equal element: the keys never move, as every weight
    of the class has the residue's denominator.  A GroupElement refuses the
    drawn weights when one is outside the scope's chamber, and takes them
    moved into it by 40 rho_S, a vector of X(T)."""
    rng = random.Random(11)
    refused = 0
    for name, p in zoo_problems():
        rank = p.datum.rank
        for scope in (p.datum, p.sub):
            for delta in (RationalWeight.zero(rank), p.datum.rho, scope.rho_vec, p.rho_m):
                shift = delta.residue_mod_one()
                drawn = {shift + RationalWeight([rng.randint(-3, 3) for _ in range(rank)]):
                         rng.randint(-4, 4) for _ in range(5)}
                assert all(w.den == shift.den for w in drawn)
                moved = shift + RationalWeight([rng.randint(-3, 3) for _ in range(rank)])
                for cls, where in ((GroupElement, scope), (TorusElement, p.datum)):
                    weights = drawn
                    if cls is GroupElement:
                        if any(c and dot(cv, w.nums) < 0
                               for w, c in drawn.items() for cv in scope.basis_coroots):
                            with pytest.raises(NotDominant):
                                cls(where, shift, {scaled(w, shift.den): c
                                                   for w, c in drawn.items()})
                            refused += 1
                        weights = {w + scope.rho_vec.scale(40): c for w, c in drawn.items()}
                        assert all(dot(cv, w.nums) >= 0
                                   for w in weights for cv in scope.basis_coroots)
                    coeffs = {scaled(w, shift.den): c for w, c in weights.items()}
                    canon = cls(where, shift, coeffs)
                    assert canon.shift is shift, name
                    assert canon.coeffs == {k: c for k, c in coeffs.items() if c}
                    other = cls(where, moved, coeffs)
                    assert other == canon, name
                    assert other.shift == shift
                    assert dict(canon.terms()) == {w: c for w, c in weights.items() if c}
    assert refused > 0


def test_elements_drop_zeros_and_own_their_coefficients():
    """With a canonical shift and with another representative of its class,
    the keys are kept as given, zero coefficients are dropped, and writing
    into the caller's dict afterwards leaves the element unchanged, with or
    without zeros to drop.  The keys are 2 w for weights w of (1/2, 0) + X(T)."""
    a2 = build_root_datum("A2")
    for shift in (RationalWeight([1, 0], 2), RationalWeight([3, -2], 2)):
        for zeros in ({}, {(3, 0): 0, (5, 2): 0}):
            for cls in (TorusElement, GroupElement):
                coeffs = {(1, 0): 2, **zeros, (1, 2): -1}
                a = cls(a2, shift, coeffs)
                expect = {(1, 0): 2, (1, 2): -1}
                assert a.coeffs == expect
                assert a.shift == RationalWeight([1, 0], 2)
                coeffs[(1, 0)] = 5
                coeffs[(3, 2)] = 1
                del coeffs[(1, 2)]
                assert a.coeffs == expect
                assert a == cls(a2, shift, {(1, 0): 2, (1, 2): -1})


def test_elements_refuse_keys_and_shifts_of_another_rank():
    """At an integral shift a key of the wrong length is refused (it used to
    construct, and multiply zipped it down to the rank), and a shift that is
    not a RationalWeight is a domain error, not an AttributeError."""
    a2 = build_root_datum("A2")
    for cls in (TorusElement, GroupElement):
        with pytest.raises(BadTwist):
            cls(a2, RationalWeight.zero(2), {(1, 0, 0): 1})
        with pytest.raises(BadTwist):
            cls(a2, RationalWeight.zero(2), {(1, 1): 1, (1,): 2})
        with pytest.raises(BadTwist):
            cls(a2, RationalWeight.zero(3), {(1, 1, 0): 1})
        with pytest.raises(SpinductError):
            cls(a2, 0, {(1, 1): 1})
    one = TorusElement(a2, RationalWeight.zero(2), {(1, 1): 1})
    assert multiply(one, one).coeffs == {(2, 2): 1}


def _weights(a):
    """An element as {weight: coefficient}, read through terms()."""
    return dict(a.terms())


def _weight_sum(*parts):
    out = {}
    for part in parts:
        for w, c in part:
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


# A2 shifts of denominator 1, 2 and 3; pairs from them whose sums drop the
# denominator (1/3 + 2/3, 1/2 + 1/2) or raise it (1/2 + 1/3)
_A2_SHIFTS = [RationalWeight([0, 0]), RationalWeight([1, 1], 2), RationalWeight([1, 0], 2),
              RationalWeight([1, 0], 3), RationalWeight([2, 0], 3), RationalWeight([1, 2], 3)]


def _random_a2_element(a2, shift, rng):
    weights = {shift + RationalWeight([rng.randint(-2, 2), rng.randint(-2, 2)]):
               rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(rng.randint(1, 4))}
    return TorusElement.from_weights(a2, weights)


def test_key_format_agrees_with_weight_arithmetic():
    """Sums, products, duals and exact quotients on A2 at shifts of
    denominator 1, 2 and 3 agree with the same operations done on the
    weights of terms() in RationalWeight arithmetic, and every element
    survives the round trips through from_weights and the JSON form."""
    a2 = build_root_datum("A2")
    rng = random.Random(23)
    dens = set()
    for sa in _A2_SHIFTS:
        for sb in _A2_SHIFTS:
            for _ in range(3):
                a, a2nd = _random_a2_element(a2, sa, rng), _random_a2_element(a2, sa, rng)
                b = _random_a2_element(a2, sb, rng)
                assert _weights(a + a2nd) == _weight_sum(a.terms(), a2nd.terms())
                prod = multiply(a, b)
                assert _weights(prod) == _weight_sum(
                    [(u + v, c * d) for u, c in a.terms() for v, d in b.terms()])
                assert prod.shift == (sa + sb).residue_mod_one()
                dens.add((sa.den, sb.den, prod.shift.den))
                assert _weights(dualize(a)) == {-w: c for w, c in a.terms()}
                if not prod.is_zero():
                    assert divide_exact(prod, b) == a and divide_exact(prod, a) == b
                for x in (a, b, prod):
                    assert TorusElement.from_weights(a2, _weights(x)) == x or x.is_zero()
                    assert torus_from_json(a2, torus_to_json(x)) == x
    # the denominator drops (1/3 + 2/3, 1/2 + 1/2) and rises (1/2 + 1/3)
    assert {(3, 3, 1), (2, 2, 1), (2, 3, 6), (3, 3, 3), (1, 3, 3)} <= dens


def test_datum_mismatch():
    a1 = build_root_datum("A1")
    a2 = build_root_datum("A2")
    with pytest.raises(DatumMismatch):
        multiply(TorusElement.unit(a1), TorusElement.unit(a2))
    with pytest.raises(DatumMismatch):
        TorusElement.unit(a1) + mono(a1, [1], 2)


def test_dualize():
    a2 = build_root_datum("A2")
    x = mono(a2, [2, -1]) + mono(a2, [0, 1], coeff=3)
    assert dualize(dualize(x)) == x
    d = weyl_denominator(a2)
    assert dualize(d) == d.scale(-1)  # three positive roots
    g2 = build_root_datum("G2")
    assert dualize(weyl_denominator(g2)) == weyl_denominator(g2)  # six
    b3 = build_root_datum("B3")
    assert dualize(weyl_denominator(b3)) == weyl_denominator(b3).scale(-1)  # nine


def test_weyl_denominator_is_antisymmetrized_rho():
    for label in ("A1", "A2", "B2", "C2", "G2", "B3"):
        d = build_root_datum(label)
        assert weyl_denominator(d) == apply_antisymmetrizer(
            "J_G", TorusElement.monomial(d, d.rho)
        )
        assert anti_invariant_decompose(weyl_denominator(d), d) == {d.rho: 1}


def test_euler_class_examples():
    a1 = build_root_datum("A1")
    t = subgroup_from_roots(a1, [])
    assert euler_class(t) == mono(a1, [-1]) - mono(a1, [1])
    # H = G: empty product
    full = subgroup_from_roots(a1, list(a1.roots))
    assert euler_class(full) == TorusElement.unit(a1)
    # euler * dual(euler) = product over all of R_M of (1 - e^alpha)
    for name, p in zoo_problems():
        lhs = multiply(p.euler, dualize(p.euler))
        prod = TorusElement.unit(p.datum)
        for alpha in list(p.sub.complement_positive) + [
            vneg(x) for x in p.sub.complement_positive
        ]:
            prod = multiply(
                prod,
                TorusElement.unit(p.datum)
                - TorusElement.monomial(p.datum, RationalWeight.from_ints(alpha)),
            )
        assert lhs == prod
        assert is_scope_invariant(p.euler, p.sub)


def test_irreducible_restriction_examples():
    a1 = build_root_datum("A1")
    assert irreducible_restriction(a1, RationalWeight([1])) == mono(a1, [1]) + mono(a1, [-1])
    a2 = build_root_datum("A2")
    adj = irreducible_restriction(a2, a2.rho)
    # independent description: support is the six roots plus zero twice
    assert adj.coeffs[(0, 0)] == 2
    expect = {tuple(r) for r in a2.roots} | {(0, 0)}
    assert set(adj.coeffs) == expect
    assert sum(adj.coeffs.values()) == 8
    with pytest.raises(NotDominant):
        irreducible_restriction(a2, RationalWeight([-1, 0]))


def test_group_element_refuses_a_key_outside_the_chamber():
    """The constructor raises NotDominant, with the error the character
    expansion gave for the first such weight in order; a non-dominant key
    with coefficient zero is dropped first, and keys on walls are kept."""
    a2 = build_root_datum("A2")
    zero = RationalWeight.zero(2)
    with pytest.raises(NotDominant) as caught:
        GroupElement(a2, zero, {(-1, 0): 1})
    with pytest.raises(NotDominant) as direct:
        irreducible_restriction(a2, RationalWeight([-1, 0]))
    assert str(caught.value) == str(direct.value)
    with pytest.raises(NotDominant, match=r"\[-2, 1\]"):
        GroupElement.from_weights(a2, {a2.rho: 1, RationalWeight([-1, 3]): 2,
                                       RationalWeight([-2, 1]): -1})
    assert GroupElement(a2, zero, {(-1, 0): 0, (0, 0): 1, (1, 0): 2}).coeffs == {
        (0, 0): 1, (1, 0): 2}
    # over a Levi subgroup only its own walls count
    sub = zoo_problem("A2", "levi1").sub
    refused = 0
    for k in ((x, y) for x in range(-2, 3) for y in range(-2, 3)):
        if all(dot(cv, k) >= 0 for cv in sub.basis_coroots):
            assert GroupElement(sub, zero, {k: 1}).coeffs == {k: 1}
        else:
            with pytest.raises(NotDominant):
                GroupElement(sub, zero, {k: 1})
            refused += 1
    assert 0 < refused < 25


def test_dimension():
    a2 = build_root_datum("A2")
    one = GroupElement.from_weights(a2, {RationalWeight.zero(2): 1})
    assert dimension(one) == 1
    adj = GroupElement.from_weights(a2, {a2.rho: 1})
    assert dimension(adj) == 8
    # linearity
    both = GroupElement.from_weights(a2, {RationalWeight.zero(2): 2, a2.rho: -1})
    assert dimension(both) == 2 - 8


def _fraction_dimension(scope, lam):
    """The Weyl dimension formula in Fraction arithmetic, kept as an oracle;
    None where the integer formula must refuse the weight."""
    rho = scope.rho_vec
    top = lam + rho
    num = Fraction(1)
    for a in scope.positive:
        cv = scope.datum.coroot(a)
        num *= Fraction(dot(cv, top.nums), top.den) / Fraction(dot(cv, rho.nums), rho.den)
    return int(num) if num.denominator == 1 and num > 0 else None


def test_weight_dimension_matches_fraction_oracle():
    rng = random.Random(8)
    for name, p in zoo_problems():
        for scope, twist in ((p.datum, None), (p.sub, None), (p.sub, p.rho_m.residue_mod_one())):
            weights = [random_dominant_weight(scope, rng, twist=twist, dim_cap=300)
                       for _ in range(3)]
            # arbitrary weights too: on walls, not dominant, fractional pairings
            for shift in (RationalWeight.zero(p.datum.rank), p.rho_m):
                weights += [shift + RationalWeight([rng.randint(-3, 3) for _ in range(p.datum.rank)])
                            for _ in range(4)]
            for lam in weights:
                expect = _fraction_dimension(scope, lam)
                if expect is None:
                    with pytest.raises(NotDominant):
                        charring._weight_dimension(scope, lam)
                else:
                    assert charring._weight_dimension(scope, lam) == expect, (name, lam)


def _pre_constants_weight_dimension(scope, lam):
    """The integer Weyl dimension formula as computed before the per-scope
    constants (coroots looked up and rho scaled on every call), kept as an
    oracle."""
    datum = scope.datum
    den = math.lcm(lam.den, scope.rho_vec.den)
    rho = scaled(scope.rho_vec, den)
    lam_rho = [u + v for u, v in zip(scaled(lam, den), rho)]
    num = div = 1
    for a in scope.positive:
        cv = datum.coroot(a)
        num *= dot(cv, lam_rho)
        div *= dot(cv, rho)
    q, r = divmod(num, div)
    if r or q <= 0:
        raise NotDominant(f"dimension formula gave {num}/{div} for weight {lam}")
    return q


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotDominant as exc:
        return ("NotDominant", str(exc))


def test_weight_dimension_matches_the_pre_constants_formula():
    rng = random.Random(9)
    for name, p in zoo_problems():
        rank = p.datum.rank
        for scope in (p.datum, p.sub):
            weights = [random_dominant_weight(scope, rng, dim_cap=300) for _ in range(3)]
            weights += [RationalWeight([rng.randint(-3, 3) for _ in range(rank)])
                        for _ in range(6)]
            # den 2 weights: at least one odd numerator keeps the denominator
            weights += [RationalWeight([2 * rng.randint(-2, 2) + 1] +
                                       [rng.randint(-5, 5) for _ in range(rank - 1)], 2)
                        for _ in range(6)]
            assert any(w.den == 2 for w in weights), name
            for lam in weights:
                expect = _outcome(_pre_constants_weight_dimension, scope, lam)
                assert _outcome(charring._weight_dimension, scope, lam) == expect, (name, lam)


def test_weight_dimension_refuses_weights_on_walls():
    for name, p in zoo_problems():
        for scope in (p.datum, p.sub):
            if not scope.positive:
                continue  # the torus has no walls
            walls = [-scope.rho_vec]
            # lam = -beta/2 for a simple root beta: <lam + rho, beta^vee> = 0
            walls += [RationalWeight(b, 2).scale(-1) for b in scope.basis]
            for lam in walls:
                with pytest.raises(NotDominant):
                    charring._weight_dimension(scope, lam)


def test_dimension_constants_are_cached_immutable_values():
    for name, p in zoo_problems():
        for scope in (p.datum, p.sub):
            cvs = scope.positive_coroots
            assert isinstance(cvs, tuple) and all(isinstance(cv, tuple) for cv in cvs)
            assert cvs == tuple(scope.datum.coroot(a) for a in scope.positive), name
            assert scope.positive_coroots is cvs
            assert type(scope.rho_pairing) is int and scope.rho_pairing > 0
            assert scope.rho_pairing == math.prod(
                dot(cv, scope.rho_vec.nums) for cv in cvs)


def _image_comparison_invariant(a, scope):
    """is_scope_invariant as it was: the whole image of a under each simple
    reflection's matrix, compared with a; kept as an oracle."""
    rank = scope.datum.rank
    zero = (0,) * rank
    for al, av in zip(scope.basis, scope.basis_coroots):
        m = [[int(r == c) - al[r] * av[c] for c in range(rank)] for r in range(rank)]
        if kernels.weyl_sum([m], [1], [zero], a.coeffs) != a.coeffs:
            return False
    return True


def test_is_scope_invariant_matches_image_comparison():
    rng = random.Random(61)
    for name, p in zoo_problems():
        rank = p.datum.rank
        for scope, twist in ((p.datum, None), (p.sub, None), (p.sub, p.rho_m.residue_mod_one())):
            chis = [irreducible_restriction(scope, random_dominant_weight(
                scope, rng, twist=twist, dim_cap=300)) for _ in range(2)]
            other = p.sub if scope is p.datum else p.datum
            inputs = chis + [
                TorusElement.zero(p.datum),
                # invariant under the other scope's group only
                irreducible_restriction(other, random_dominant_weight(other, rng, dim_cap=300)),
                # the support is invariant, the signs are not
                weyl_denominator(scope),
                random_torus_element(p, rng, twist=twist),
            ]
            for chi in chis:
                k = next(iter(chi.coeffs))
                inputs.append(chi + chi.replace_coeffs({k: 1}))  # one coefficient off
                inputs.append(chi + TorusElement.monomial(p.datum, chi.shift + RationalWeight(
                    [rng.randint(-3, 3) for _ in range(rank)])))
            verdicts = []
            for a in inputs:
                expect = _image_comparison_invariant(a, scope)
                assert is_scope_invariant(a, scope) == expect, (name, a)
                verdicts.append(expect)
            # every element is invariant under the trivial group of T
            assert True in verdicts and (False in verdicts) == bool(scope.basis), name


def test_anti_invariant_decompose():
    g2 = build_root_datum("G2")
    assert anti_invariant_decompose(weyl_denominator(g2)) == {g2.rho: 1}
    mu = RationalWeight([2, 3])
    j = apply_antisymmetrizer("J_G", TorusElement.monomial(g2, mu))
    assert anti_invariant_decompose(j) == {mu: 1}
    # d_G * invariant: coefficients match the highest-weight expansion
    a2 = build_root_datum("A2")
    b = irreducible_restriction(a2, RationalWeight([1, 0]))
    dec = anti_invariant_decompose(multiply(weyl_denominator(a2), b))
    assert dec == {RationalWeight([1, 0]) + a2.rho: 1}
    with pytest.raises(NotAntiInvariant):
        anti_invariant_decompose(TorusElement.monomial(a2, a2.rho))
    with pytest.raises(NotAntiInvariant):
        anti_invariant_decompose(TorusElement.unit(a2))


def _collect_then_divide(a):
    """Oracle decomposition of an anti-invariant element: collect every
    monomial to the dominant chamber with sign; each orbit then collects to
    |W| * c_lam."""
    d = a.datum
    collected = kernels.dominant_collect(
        a.coeffs, d.basis, d.basis_coroots, len(d.positive)
    )
    order = generate_weyl(d).order
    out = {}
    for k, c in sorted(collected.items()):
        if c % order:
            raise NotAntiInvariant("orbit coefficients are inconsistent")
        out[a.weight_of(k)] = c // order
    return out


def test_anti_invariant_decompose_matches_collect_then_divide():
    rng = random.Random(5)
    for _, p in zoo_groups():
        twist = p.datum.rho.residue_mod_one()
        for _ in range(4):
            ja = apply_antisymmetrizer("J_G", random_torus_element(p, rng, twist=twist))
            dec = anti_invariant_decompose(ja)
            # same coefficients, same (sorted) order
            assert list(dec.items()) == list(_collect_then_divide(ja).items())


def _filter_then_rebuild(a, scope=None):
    """Oracle decomposition, the form before orbit peeling: read each c_lam
    off the strictly dominant monomials (one filter per simple coroot over
    every key), rebuild sum c_lam J(e^lam) by antisymmetrize and compare."""
    scope = scope or a.datum
    if a.shift != scope.rho_vec.residue_mod_one():
        raise NotAntiInvariant("twist class must be [rho] for decomposition")
    strict = list(a.coeffs)
    for cv in scope.basis_coroots:
        strict = [k for k in strict if dot(cv, k) > 0]
    key_coeffs = {k: a.coeffs[k] for k in sorted(strict)}
    if antisymmetrize(scope, a.shift, key_coeffs) != a.coeffs:
        raise NotAntiInvariant("element is not in the span of J(e^lambda)")
    return {a.weight_of(k): c for k, c in key_coeffs.items()}


def _decomposition(fn, a, scope):
    try:
        return list(fn(a, scope).items())
    except NotAntiInvariant:
        return "NotAntiInvariant"


def _seeded_anti_invariants(rng, count):
    """(scope, J(a)) for `count` random a with J(a) != 0 per zoo group, for
    the group and for its subgroup (J_H), each in the scope's [rho] class."""
    for _, p in zoo_groups():
        for scope, kind in ((p.datum, "J_G"), (p.sub, "J_H")):
            found = 0
            while found < count:
                twist = scope.rho_vec.residue_mod_one()
                a = random_torus_element(p, rng, twist=twist, max_support=4)
                ja = apply_antisymmetrizer(kind, a, p.sub)
                if not ja.is_zero():
                    found += 1
                    yield scope, ja


def _walk(scope, key):
    """The chamber walk of a weight key."""
    return kernels.dominant_walk(key, scope.basis, scope.basis_coroots, len(scope.positive))


def _new_key(scope, a, wall):
    """The key of a weight a.shift + v, v in the box [-2, 2]^rank, outside
    a's support that lies on a wall (wall=True) or is regular and off the
    chamber, or None when there is none (the class [rho] can miss every
    wall)."""
    rank = scope.datum.rank
    for i in range(5 ** rank):
        v = RationalWeight([(i // 5 ** j) % 5 - 2 for j in range(rank)])
        key = scaled(a.shift + v, a.shift.den)
        _, path, regular = _walk(scope, key)
        if key not in a.coeffs and (not regular if wall else regular and path):
            return key
    return None


def test_orbit_peeling_matches_filter_then_rebuild():
    """The same coefficients in the same order on seeded J_G and J_H outputs
    of every zoo group, F4 included."""
    rng = random.Random(12)
    groups = set()
    for scope, ja in _seeded_anti_invariants(rng, 3):
        expect = _decomposition(_filter_then_rebuild, ja, scope)
        assert expect != "NotAntiInvariant" and expect
        assert _decomposition(anti_invariant_decompose, ja, scope) == expect
        groups.add(scope.datum.cartan_label)
    assert "F4" in groups


@pytest.mark.parametrize("change", ["coefficient", "deleted", "wall", "off-chamber"])
def test_orbit_peeling_and_filter_then_rebuild_refuse_the_same_perturbations(change):
    """One changed coefficient at a non-dominant orbit point, one deleted
    orbit point, one monomial added on a wall or off the chamber: both
    decompositions give the same outcome, NotAntiInvariant unless the scope
    has no roots."""
    rng = random.Random(13)
    tried = set()
    for scope, ja in _seeded_anti_invariants(rng, 2):
        coeffs = dict(ja.coeffs)
        keys = sorted(coeffs)
        if change == "coefficient":
            moved = [k for k in keys if _walk(scope, k)[1]]
            if not moved:
                continue
            coeffs[rng.choice(moved)] *= 2
        elif change == "deleted":
            del coeffs[rng.choice(keys)]
        else:
            key = _new_key(scope, ja, wall=change == "wall")
            if key is None:
                continue
            coeffs[key] = 1
        bad = ja.replace_coeffs(coeffs)
        expect = _decomposition(_filter_then_rebuild, bad, scope)
        assert _decomposition(anti_invariant_decompose, bad, scope) == expect
        # with a root, every orbit J(e^lam) has more than one point, so each
        # change leaves the span; a torus scope's orbits are single points
        assert (expect == "NotAntiInvariant") == bool(scope.basis)
        tried.add(scope.datum.cartan_label)
    assert "F4" in tried


@pytest.mark.parametrize("where", ["dominant", "antidominant", "reflected"])
def test_anti_invariant_decompose_rejects_one_extra_monomial(where):
    rng = random.Random(6)
    for _, p in zoo_groups():
        d = p.datum
        ja = apply_antisymmetrizer(
            "J_G", random_torus_element(p, rng, twist=d.rho.residue_mod_one())
        )
        # 9 rho = rho + 8 rho lies in the class [rho] and is strictly
        # dominant; its negative and its image under a simple reflection
        # are off the chamber
        lam = RationalWeight([9 * x for x in d.rho.nums], d.rho.den)
        p1 = dot(d.basis_coroots[0], lam.nums)
        extra = {
            "dominant": lam,
            "antidominant": -lam,
            "reflected": RationalWeight([x - p1 * y for x, y in zip(lam.nums, d.basis[0])], lam.den),
        }[where]
        with pytest.raises(NotAntiInvariant):
            anti_invariant_decompose(ja + TorusElement.monomial(d, extra))


def test_random_dominant_weight_without_integral_dimension_is_a_domain_error():
    # A2 > levi1: no weight of the class [rho_H] = (0, 1/2) pairs integrally
    # with every A2 coroot, so no candidate has an integral dimension
    p = zoo_problem("A2", "levi1")
    with pytest.raises(DegenerateSample):
        random_dominant_weight(p.datum, random.Random(0), twist=p.sub.rho_h.residue_mod_one())


def test_weyl_denominator_is_its_product_form_at_torsion_points():
    """weyl_denominator = e^rho prod_{alpha > 0} (1 - e^-alpha), exactly in
    F_p at torsion points exp(2 pi i v/N) of T, e^{k/den} -> zeta^{<k,v> D/den}."""
    n = TORSION_ORDER
    rng = random.Random(4)
    for label in ("A2", "G2"):
        d = build_root_datum(label)
        den = d.rho.den
        order = den * n
        p, zeta = _torsion_field(order)

        def value(x, v):
            s = den // x.shift.den
            return sum(c * pow(zeta, dot(k, v) * s % order, p) for k, c in x.coeffs.items()) % p

        for _ in range(5):
            v = [rng.randrange(n) for _ in range(d.rank)]
            product = value(TorusElement.monomial(d, d.rho), v)
            for alpha in d.positive_roots:
                product = product * (1 - pow(zeta, -dot(alpha, v) * den % order, p)) % p
            assert value(weyl_denominator(d), v) == product


def test_appendix_b_worked_example():
    spin4 = build_root_datum("A1xA1", "weight")
    x1 = irreducible_restriction(spin4, RationalWeight([1, 0]))
    x2 = irreducible_restriction(spin4, RationalWeight([0, 1]))
    y1, y2, y3 = multiply(x1, x1), multiply(x2, x2), multiply(x1, x2)
    assert multiply(y1, y2) == multiply(y3, y3)
    assert (multiply(y3, x1) - multiply(y1, x2)).is_zero()
    # levels: monomial parity of x1^r1 x2^r2 is (r1 + r2) mod 2
    prod = multiply(y3, x1)  # level 3
    assert all((k[0] + k[1]) % 2 == 1 for k in prod.coeffs)
    assert is_scope_invariant(prod, spin4)


def test_golden_serialization():
    a2 = build_root_datum("A2")
    golden = "\n".join(
        [
            "twist 0,0",
            "1 @ -2,1",
            "-1 @ -1,-1",
            "-1 @ -1,2",
            "1 @ 1,-2",
            "1 @ 1,1",
            "-1 @ 2,-1",
        ]
    )
    assert torus_to_text(weyl_denominator(a2)) == golden
    # shifted element keeps exact rational coordinates
    b3 = build_root_datum("B3")
    sub = subgroup_from_roots(
        b3,
        [b3.root_from_simple_coordinates(sc) for sc in [(1, 1, 1), (0, 1, 0), (0, 1, 2)]],
    )
    text = torus_to_text(euler_class(sub))
    assert text.splitlines()[0] == "twist 1/2,0,0"
    assert "1 @ -5/2,0,1" in text


# --- Freudenthal: the dominant weights by positive-root search -----------------


def _box_dominants(scope, top, den):
    """The former enumeration, kept as an oracle: every top - sum c_i alpha_i
    over the simple roots with height >= 0, kept when dominant, carrying
    sum c_i len2(alpha_i) alpha_i^vee."""
    datum = scope.datum
    hvec = [sum(datum.len2(a) * datum.coroot(a)[j] for a in scope.positive)
            for j in range(datum.rank)]
    simple = [(tuple(den * v for v in a), tuple(datum.len2(a) * v for v in datum.coroot(a)))
              for a in scope.basis]
    out = {}

    def rec(i, x, carried):
        if i == len(simple):
            if all(dot(cv, x) >= 0 for cv in scope.basis_coroots):
                out[x] = carried
            return
        a, c = simple[i]
        while dot(hvec, x) >= 0:
            rec(i + 1, x, carried)
            x, carried = vsub(x, a), vadd(carried, c)

    rec(0, top, (0,) * datum.rank)
    return out


def _assert_matches_box_oracle(scope, lam):
    den = math.lcm(lam.den, scope.rho_vec.den)
    top = scaled(lam, den)
    box = _box_dominants(scope, top, den)
    assert charring._dominant_weights(scope, top, den) == box
    mult = charring._freudenthal(scope, box, den)
    expanded = kernels.orbit_expand(list(mult.items()), scope.basis, scope.basis_coroots)
    chi = irreducible_restriction(scope, lam)
    assert chi.shift == lam.residue_mod_one()
    assert dict(chi.terms()) == {RationalWeight(k, den): c for k, c in expanded.items()}


def test_dominant_weights_match_box_oracle_on_zoo_groups():
    rng = random.Random(5)
    for name, p in zoo_problems():
        d = p.datum
        weights = {d.rho} | {random_dominant_weight(d, rng, dim_cap=300) for _ in range(3)}
        for lam in weights:
            _assert_matches_box_oracle(d, lam)


def test_dominant_weights_match_box_oracle_on_subgroup_scopes():
    rng = random.Random(6)
    for pair in (("F4", "b4"), ("B3", "so3xso4"), ("G2", "a2long")):
        sub = zoo_problem(*pair).sub
        for _ in range(4):
            _assert_matches_box_oracle(sub, random_dominant_weight(sub, rng, dim_cap=300))


def test_dominant_weights_match_box_oracle_at_rational_weight():
    p = zoo_problem("B3", "so3xso4")
    lam = p.rho_m + RationalWeight([1, 0, 0])
    assert lam.den == 2
    _assert_matches_box_oracle(p.sub, lam)
    assert dimension(GroupElement.from_weights(p.sub, {lam: 1})) == sum(
        irreducible_restriction(p.sub, lam).coeffs.values()
    )


def test_dominant_weights_match_box_oracle_on_e6_1728():
    e6 = build_root_datum("E6")
    lam = RationalWeight([1, 1, 0, 0, 0, 0])
    _assert_matches_box_oracle(e6, lam)
    assert sum(irreducible_restriction(e6, lam).coeffs.values()) == 1728


_CHARACTER_SCOPES = [("G", g) for g in ("A1", "A2", "A1xA1", "B2", "G2", "B3", "C2")] + [
    ("H", pair) for pair in (("G2", "a2long"), ("B3", "so3xso4"), ("C2", "a1xa1"))
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CHARACTER_SCOPES), st.integers(0, 2**32 - 1), st.booleans())
def test_character_dimension_top_coefficient_and_invariance(which, seed, twisted):
    kind, spec = which
    if kind == "G":
        scope, twist = build_root_datum(spec), None
    else:
        p = zoo_problem(*spec)
        scope, twist = p.sub, (p.rho_m.residue_mod_one() if twisted else None)
    lam = random_dominant_weight(scope, random.Random(seed), twist=twist, dim_cap=400)
    chi = irreducible_restriction(scope, lam)
    assert sum(chi.coeffs.values()) == dimension(GroupElement.from_weights(scope, {lam: 1}))
    assert lam.den == chi.shift.den and chi.coeffs[lam.nums] == 1
    assert is_scope_invariant(chi, scope)


def test_elements_are_immutable_and_cached_results_survive_writes():
    a2 = build_root_datum("A2")
    sub = zoo_problem("G2", "a2long").sub
    lam = RationalWeight([1, 0])
    d = weyl_denominator(a2)
    makers = [
        lambda: weyl_denominator(a2),
        lambda: euler_class(sub),
        lambda: irreducible_restriction(a2, lam),
        lambda: multiply(d, dualize(d)),
        lambda: GroupElement.from_weights(a2, {lam: 2}),
    ]
    for make in makers:
        a = make()
        key = next(iter(a.coeffs))
        with pytest.raises(TypeError):
            a.coeffs[key] = 0
        with pytest.raises(TypeError):
            a.coeffs[(7, 7)] = 1
        with pytest.raises(AttributeError):
            a.coeffs.clear()
        assert make() == a and a.coeffs[key] != 0


def test_torus_and_group_elements_share_one_body():
    for cls in (TorusElement, GroupElement):
        for name in ("__init__", "__eq__", "__add__", "scale", "weight_of", "terms",
                     "twist", "is_zero", "zero", "from_weights", "replace_coeffs"):
            assert name not in vars(cls), (cls.__name__, name)
    a2 = build_root_datum("A2")
    half = RationalWeight([1, 1], 2)
    g = GroupElement.from_weights(a2, {half + RationalWeight([1, 1]): 3})
    t = TorusElement.from_weights(a2, {half + RationalWeight([1, 1]): 3})
    assert g.shift == t.shift == half and g.coeffs == t.coeffs == {(3, 3): 3}
    assert g != t and g.datum is t.datum is a2
    with pytest.raises(DatumMismatch):
        g + t
    assert (g - g).is_zero() and (-g).scale(-1) == g
