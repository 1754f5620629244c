"""Verification harness: the identity suites over the built-in zoo.

Each check runs an exact identity and reports pass/fail with a
counterexample serialization on failure.  The acceptance test module and
the CLI `verify` command both dispatch here, so the criteria live in
exactly one place.

One home per identity: an identity from the paper is a row or a criterion
here and nowhere else (tier-1 reaches the criteria through
tests/test_acceptance.py, the rest through tests/test_verify.py); an
implementation invariant, such as root-system closure, group orders or
dualize being an involution, is a unit test under tests/ and not a row.

Every check that walks the zoo is a `Row`: calling it with (seed, trials)
runs it over its cases, one record per case, and a SpinductError fails
only the case that raised it.  A fixed check is a one-trial Row whose draw
returns its case.  Every case comes from one table: `zoo_problems()`,
`chain_triples()` or `zoo_groups()`.  To add a check, write a test
(case, input) -> (holds, nontrivial), bind `check_<name> = Row(name,
offset, trials, test, ...)` (or `_fixed(name, offset, holds, ...)`) with
whichever of cases, setup, draw, show and detail differ from the
defaults, and list it in SUITES.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .charring import (
    GroupElement,
    TorusElement,
    anti_invariant_decompose,
    dimension,
    dualize,
    euler_class,
    euler_class_from_complement,
    irreducible_restriction,
    is_scope_invariant,
    multiply,
    weyl_denominator,
)
from .errors import NotAntiInvariant, SpinductError
from .induction import (
    branch,
    bwb_irreducible,
    divide_exact,
    extract_highest_weights,
    fixed_point_sides,
    group_multiply,
    induce_between,
    induce_twisted_spinc,
    make_problem,
    pairing_report,
    torsion_point,
)
from .multiplets import alternating_dimension_sum, gkrs_identity_sides, multiplet
from .rootdata import (
    RationalWeight,
    build_root_datum,
    scaled,
    subgroup_character_lattice,
)
from .serialize import torus_to_text
from .spinc import classify, nu
from .weyl import apply_antisymmetrizer, apply_weyl_sum, generate_weyl
from .zoo import (
    chain_triples,
    random_dominant_weight,
    random_torus_element,
    random_wh_invariant,
    steinberg_pairing_bases,
    zoo_groups,
    zoo_problem,
    zoo_problems,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""
    counterexample: Optional[str] = None

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        msg = f"{mark} {self.name}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


# --- the checks: each is a Row, run by one loop --------------------------------


SKIP = object()  # a draw that reaches no check; its rng calls still happen
NONTRIVIAL = "{nontrivial} of {trials} inputs nontrivial"


def _rho_twisted(p, max_support: int = 8, **extra) -> SimpleNamespace:
    """A case whose drawn elements carry the multiplet sources' class
    sigma + [rho_G], which is [rho_G] on the untwisted zoo problems."""
    return SimpleNamespace(p=p, twist=p.sigma_rho_g, max_support=max_support, **extra)


def _draw_element(case, rng: random.Random) -> TorusElement:
    return random_torus_element(case.p, rng, twist=case.twist, max_support=case.max_support)


class Row(NamedTuple):
    """A check, run by calling it with (seed, trials).

    One random.Random(seed + offset) draws for every case in turn.  `setup`
    makes a case's namespace, `draw` an input or SKIP, and `test` returns
    (holds, nontrivial): an input is trivial when its identity reads 0 = 0.
    A case stops at its first counterexample, printed by `show`; a setup
    that sets `bad` (a failed negative control) fails its case before any
    draw, and a SpinductError raised by the setup or a test fails its case
    with the error as the counterexample.  Library functions are looked up
    in this module's globals at call time, so a test can monkeypatch them."""

    name: str  # "{}" takes the case label
    offset: int
    trials: int
    test: Callable[[SimpleNamespace, object], Tuple[bool, bool]]
    setup: Callable[..., SimpleNamespace] = _rho_twisted
    cases: Callable[[], Iterable[tuple]] = lambda: zoo_problems()  # (label, *setup arguments)
    draw: Callable[[SimpleNamespace, random.Random], object] = _draw_element
    show: Callable[[object], str] = lambda a: torus_to_text(a)
    detail: str = "{trials} inputs"  # also sees reached, nontrivial, trivial and case

    def __call__(self, seed: int = 0, trials: Optional[int] = None) -> List[CheckResult]:
        trials = self.trials if trials is None else trials
        rng = random.Random(seed + self.offset)
        out = []
        for label, *args in self.cases():
            reached = nontrivial = 0
            try:
                case = self.setup(*args)
                bad = getattr(case, "bad", None)
                for _ in range(0 if bad else trials):
                    x = self.draw(case, rng)
                    if x is SKIP:
                        continue
                    reached += 1
                    holds, hit = self.test(case, x)
                    nontrivial += hit
                    if not holds:
                        bad = self.show(x)
                        break
                detail = self.detail.format(
                    trials=trials, reached=reached, nontrivial=nontrivial,
                    trivial=reached - nontrivial, case=case,
                )
            except SpinductError as exc:
                bad, detail = f"{exc.code}: {exc}", f"raised after {reached} of {trials} inputs"
            out.append(CheckResult(self.name.format(label), bad is None, detail, bad))
        return out


def _fixed(name: str, offset: int, holds: Callable[[SimpleNamespace], bool], **fields) -> Row:
    """A check with no random input: a Row of one trial, whose draw returns
    the case; a failing case shows its problem unless `show` says more."""
    fields.setdefault("show", lambda case: repr(case.p))
    return Row(name, offset, 1, lambda case, _: (holds(case), True), draw=lambda case, rng: case, **fields)


def _constant(p, n: int) -> GroupElement:
    return GroupElement.from_weights(p.datum, {RationalWeight.zero(p.datum.rank): n})


# --- acceptance criterion 1: Euler characteristic --------------------------


# |W^H| at the pairs where criterion 1 states it
_PINNED_COSETS = {"A2/t": 6, "G2/a2long": 2, "F4/b4": 3}


def _euler_characteristic(case) -> bool:
    got = induce_twisted_spinc(case.p, dualize(case.p.euler))
    return got == _constant(case.p, case.n) and _PINNED_COSETS.get(case.label, case.n) == case.n


check_euler_characteristic = _fixed(
    "euler-characteristic {}", 1, _euler_characteristic,
    setup=lambda label, p: SimpleNamespace(p=p, label=label, n=len(p.reps.reps)),
    cases=lambda: [(label, label, p) for label, p in zoo_problems()],
    show=lambda case: torus_to_text(dualize(case.p.euler)),
    detail="|W^H| = {case.n}",
)


# --- acceptance criterion 2: unit induction ---------------------------------


check_unit_induction = _fixed(
    "unit-induction {}", 2,
    lambda case: induce_twisted_spinc(case.p, case.spinor) == _constant(case.p, 1),
    setup=lambda p: SimpleNamespace(p=p, spinor=irreducible_restriction(p.sub, p.rho_m)),
    show=lambda case: torus_to_text(case.spinor),
    detail="i_*([V_H(rho_M)]) = 1",
)


# --- acceptance criterion 3: Borel-Weil-Bott agreement -----------------------


def _bwb_test(case, mu):
    lhs = bwb_irreducible(case.p, mu)
    rhs = induce_twisted_spinc(case.p, irreducible_restriction(case.p.sub, mu))
    return lhs == rhs, not (lhs.is_zero() and rhs.is_zero())


check_bwb_agreement = Row(
    "bwb-agreement {}", 3, 100, _bwb_test,
    setup=lambda p: SimpleNamespace(p=p, twist=p.sigma_rho_m),
    draw=lambda case, rng: random_dominant_weight(case.p.sub, rng, twist=case.twist),
    show=lambda mu: f"mu = {mu!r}",
    detail="{trials} weights, {trivial} singular",
)


# --- acceptance criterion 4: functoriality (induction in stages) -------------


def _functoriality_test(case, a):
    g, sub, t = case.chain.datum, case.chain.sub, case.p.sub
    direct = induce_between(g, t, a)
    staged = induce_between(g, sub, induce_between(sub, t, a).to_torus())
    return direct == staged, not direct.is_zero()


check_functoriality = Row(
    "functoriality T<H<{}", 4, 50, _functoriality_test,
    setup=lambda p, t: _rho_twisted(
        make_problem(p.datum, t), 6 if p.datum.rank <= 3 else 3, chain=p
    ),
    cases=lambda: chain_triples(),
    detail=NONTRIVIAL,
)


# --- acceptance criterion 5: antisymmetrizer factorizations -------------------


def _antisymmetrizer_test(case, a):
    sub = case.p.sub
    jg = apply_antisymmetrizer("J_G", a)
    jmh = apply_antisymmetrizer("J_M", apply_antisymmetrizer("J_H", a, sub), sub)
    jhop = apply_antisymmetrizer("J_H", apply_antisymmetrizer("J_M_OP", a, sub), sub)
    return jg == jmh and jg == jhop, not jg.is_zero()


check_antisymmetrizers = Row("antisymmetrizers {}", 5, 200, _antisymmetrizer_test, detail=NONTRIVIAL)


# --- acceptance criterion 6: GKRS dimension sums -------------------------------


def _dimension_sum_test(case, a):
    m = multiplet(case.p, a)
    return alternating_dimension_sum(m) == 0, not all(ge.is_zero() for ge in m.members)


DIMENSION_SUMS = Row("gkrs-dimension-sum {}", 6, 100, _dimension_sum_test, detail=NONTRIVIAL)


def check_gkrs_dimension_sum(seed: int = 0, trials: int = DIMENSION_SUMS.trials) -> List[CheckResult]:
    out = DIMENSION_SUMS(seed, trials)
    # the F4 > B4 trivial-source multiplet, members cross-checked against the
    # independent dimension oracle (total weight multiplicity of the expansion)
    p = zoo_problem("F4", "b4")
    m = multiplet(p, TorusElement.monomial(p.datum, p.datum.rho))
    dims = [dimension(ge) for ge in m.members]
    ok = len(m.members) == 3 and alternating_dimension_sum(m) == 0 and all(
        sum(ge.to_torus().coeffs.values()) == d for ge, d in zip(m.members, dims)
    )
    out.append(CheckResult("gkrs-f4-trivial-multiplet", ok, f"dims {dims}, signs {list(m.signs)}"))
    # negative control: for H = G the one member is the whole class, so the
    # sum is its dimension, 1, not 0
    pg = zoo_problem("A2", "g")
    m = multiplet(pg, TorusElement.monomial(pg.datum, pg.datum.rho))
    total = alternating_dimension_sum(m)
    out.append(CheckResult("gkrs-h-equals-g A2", len(m.members) == 1 and total == 1, f"sum {total}"))
    return out


# --- acceptance criterion 7: GKRS operator identity -----------------------------


def _gkrs_identity_test(case, a):
    lhs, rhs = gkrs_identity_sides(case.p, a)
    return lhs == rhs, not lhs.is_zero()


check_gkrs_identity = Row(
    "gkrs-identity {}", 7, 50, _gkrs_identity_test,
    setup=lambda p: _rho_twisted(p, 6 if p.datum.rank <= 3 else 3),
    detail=NONTRIVIAL,
)


# --- acceptance criterion 8: shifted anti-invariants (appendix C) ---------------


def _appendix_c_setup(p):
    full = p.datum.rank <= 3
    mode = "division+invariance" if full else "J(e^lam)-basis"
    # negative control for the invariance test: e^rho has a W-stable class
    # but is not W-invariant, so a full-division case must see it refused
    e_rho = TorusElement.monomial(p.datum, p.datum.rho)
    return _rho_twisted(
        p, 6 if full else 4, full_division=full, order=generate_weyl(p.datum).order, mode=mode,
        bad=torus_to_text(e_rho) if full and is_scope_invariant(e_rho, p.datum) else None,
    )


def _appendix_c_draw(case, rng):
    a = _draw_element(case, rng)
    if case.full_division and case.p.datum.rank >= 2:
        # keep quotient supports desk-scale
        a = a.replace_coeffs({k: c for k, c in a.coeffs.items() if max(map(abs, k)) <= 1})
        if a.is_zero():
            return SKIP
    return a


def _appendix_c_test(case, a):
    datum = case.p.datum
    ja = apply_antisymmetrizer("J_G", a)
    nonzero = not ja.is_zero()
    try:
        dec = anti_invariant_decompose(ja)
    except NotAntiInvariant:
        return False, nonzero
    # read the decomposition back: each c_lam is the coefficient of J_G(a)
    # at lam, and the regular orbits of the lam, |W| points each, cover
    # its support
    if len(dec) * case.order != len(ja.coeffs) or any(
        ja.coeffs.get(scaled(lam, ja.shift.den)) != c for lam, c in dec.items()
    ):
        return False, nonzero
    if not (case.full_division and nonzero):
        return True, nonzero
    d = weyl_denominator(datum)
    q = divide_exact(ja, d)
    return is_scope_invariant(q, datum) and multiply(d, q) == ja, True


check_appendix_c = Row(
    "appendix-c {}", 8, 100, _appendix_c_test,
    setup=_appendix_c_setup,
    cases=zoo_groups,
    draw=_appendix_c_draw,
    detail="{reached} of {trials} inputs reached the check, {nontrivial} with J_G != 0, "
    "{case.mode}",
)


# --- acceptance criterion 9: Spin^c classification --------------------------------


def _spinc_setup(holds, note: str, p) -> SimpleNamespace:
    c = classify(p)
    return SimpleNamespace(p=p, c=c, holds=holds, note=note.format(c=c))


def _torsor_law(p, c) -> bool:
    """gamma + 2X(H) stays c-spinorial, and for semisimple H spin and
    c-spinorial agree."""
    xh = subgroup_character_lattice(p.sub)
    if xh.rank == 0 and c.is_spin != c.is_c_spinorial:
        return False
    if c.gamma is None or not xh.columns:
        return True
    return nu(p, tuple(a + 2 * b for a, b in zip(c.gamma, xh.columns[0]))).is_integral()


def _spinc_cases() -> List[tuple]:
    """(record name, what the classification must satisfy, detail, pair):
    flag manifolds are always Spin^c, the oriented-3-planes model is not,
    a Levi subgroup carries the complex-structure character, and the
    torsor law holds on every pair."""
    pairs = zoo_problems()
    return [
        *((f"spinc-flag-variety {label}", lambda p, c: c.is_c_spinorial,
           "H = T always c-spinorial", p) for label, p in pairs if not p.sub.positive_h),
        ("spinc-so3xso4", lambda p, c: not (c.is_spin or c.is_c_spinorial) and c.gamma is None,
         "Spin(7)/(SO(3)xSO(4)) refuses", zoo_problem("B3:spin", "so3xso4")),
        ("spinc-levi", lambda p, c: c.is_c_spinorial and nu(p, c.gamma) == RationalWeight.zero(2),
         "gamma = {c.gamma}, nu = 0", zoo_problem("A2", "levi1")),
        *((f"spinc-torsor-law {label}", _torsor_law, "gamma + 2X(H) stays c-spinorial", p)
          for label, p in pairs),
    ]


check_spinc = _fixed(
    "{}", 9, lambda case: case.holds(case.p, case.c),
    setup=_spinc_setup, cases=_spinc_cases, show=lambda case: repr(case.c), detail="{case.note}",
)


# --- acceptance criterion 10: duality pairing ---------------------------------------


def _pairing_setup(p, tau_name: str) -> SimpleNamespace:
    basis_a, basis_b, tau = steinberg_pairing_bases(p, tau_name)
    rep = pairing_report(p, tau, basis_a, basis_b)
    # negative control: doubling one basis element keeps its twist and
    # invariance but doubles the determinant, which is then no unit
    doubled = pairing_report(p, tau, [basis_a[0].scale(2)] + basis_a[1:], basis_b)
    return SimpleNamespace(p=p, rep=rep, doubled=doubled, det=rep.determinant_character.terms())


check_pairing = _fixed(
    "pairing-unit {}", 10, lambda case: case.rep.is_unit and not case.doubled.is_unit,
    setup=_pairing_setup,
    cases=lambda: [
        (f"{label} tau={tau}", p, tau)
        for label, p in zoo_problems() if label in ("A1/t", "A2/t") for tau in ("0", "rhoM")
    ],
    detail="det = {case.det}",
)


# --- acceptance criterion 11: the SO(4) twisted-module example (appendix B) ---------


def check_appendix_b(seed: int = 0) -> List[CheckResult]:
    spin4 = build_root_datum("A1xA1", "weight")
    x1 = irreducible_restriction(spin4, RationalWeight([1, 0]))
    x2 = irreducible_restriction(spin4, RationalWeight([0, 1]))
    y1, y2, y3 = multiply(x1, x1), multiply(x2, x2), multiply(x1, x2)
    ok = multiply(y1, y2) == multiply(y3, y3) and multiply(y3, x1) == multiply(y1, x2)
    out = [CheckResult("appendix-b-relations", ok, "y1 y2 = y3^2 and y3 x1 = y1 x2")]
    # level decomposition: supports split by total parity and every product
    # stays Weyl-invariant (the restriction lands in R(T)^W at its level)
    rng = random.Random(seed + 11)
    ok = True
    for _ in range(20):
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        prod = TorusElement.unit(spin4)
        for x in [x1] * r1 + [x2] * r2:
            prod = multiply(prod, x)
        keys = [*prod.coeffs, *extract_highest_weights(spin4, prod).coeffs]
        ok &= is_scope_invariant(prod, spin4) and all((k[0] + k[1] - r1 - r2) % 2 == 0 for k in keys)
    out.append(CheckResult("appendix-b-level-split", ok, "even/odd level decomposition"))
    return out


# --- acceptance criterion 12: Lefschetz fixed-point oracle ------------------------------


def _lefschetz_setup(p) -> SimpleNamespace:
    hodge = multiply(p.euler, dualize(p.euler))
    prime, spinor_at = fixed_point_sides(p, p.euler, irreducible_restriction(p.sub, p.rho_m))
    sides = [spinor_at, fixed_point_sides(p, hodge, TorusElement.unit(p.datum))[1]]
    return SimpleNamespace(p=p, sides=sides, n=len(p.reps.reps), prime=prime, mismatches=[0] * 3)


def _lefschetz_draw(case, rng):
    if len(case.sides) < 3:  # a random invariant, drawn once per case before its first point
        a = random_wh_invariant(case.p, rng, twist=case.p.sigma_rho_m, max_support=2)
        case.sides.append(fixed_point_sides(case.p, case.p.euler, a)[1])
    return torsion_point(case.p, rng)


def _lefschetz_test(case, point):
    values = [at(*point) for at in case.sides]
    # each operator's count so far, for the detail line
    case.mismatches = [m + (l != r) for m, (l, r) in zip(case.mismatches, values)]
    # the Hodge operator's left side is the Euler characteristic |W^H|
    return not any(case.mismatches) and values[1][0] == case.n, True


check_lefschetz = Row(
    "lefschetz {}", 12, 20, _lefschetz_test,
    setup=_lefschetz_setup,
    draw=_lefschetz_draw,
    show=lambda point: f"v = {point[0]}",
    detail="mismatches {case.mismatches[0]}, {case.mismatches[1]}, {case.mismatches[2]} "
    "in F_p, p = {case.prime}",
)


# --- acceptance criterion 13: Weyl character formula self-check -------------------------


def _wcf_test(case, lam):
    # d chi = J(e^rho chi) = J(e^{lam+rho}) read in the chamber (Brauer-Klimyk)
    hw = extract_highest_weights(case.datum, irreducible_restriction(case.datum, lam))
    return hw == GroupElement.from_weights(case.datum, {lam: 1}), True


check_wcf_selfcheck = Row(
    "wcf-selfcheck {}", 13, 50, _wcf_test,
    setup=lambda p: SimpleNamespace(datum=p.datum),
    cases=zoo_groups,
    draw=lambda case, rng: random_dominant_weight(case.datum, rng),
    show=repr,
    detail="{trials} weights",
)


# --- the paper's further identities, outside the thirteen criteria -------------------


check_denominator_factorization = _fixed(
    "charring-denominator-factorization {}", 21,
    lambda case: multiply(dualize(case.p.euler), case.p.d_h) == case.p.d_g,
    detail="e(D)^* d_H = d_G",
)


def _euler_multiplicative(case) -> bool:
    datum, sub = case.p.datum, case.p.sub
    e_big = euler_class_from_complement(datum, datum.positive_roots, datum.rho)
    e_rel = euler_class_from_complement(datum, sub.positive_h, sub.rho_h)
    return multiply(euler_class(sub), e_rel) == e_big


check_euler_multiplicative = _fixed(
    "charring-euler-multiplicative T<H<{}", 22, _euler_multiplicative,
    setup=lambda p, t: SimpleNamespace(p=p),
    cases=lambda: chain_triples(),
    detail="e(G/T) = e(G/H) e(H/T)",
)


def _rank_at_most_3() -> List[tuple]:
    return [(label, p) for label, p in zoo_problems() if p.datum.rank <= 3]


def _rg_linearity_draw(case, rng):
    p = case.p
    b = GroupElement.from_weights(
        p.datum, {random_dominant_weight(p.datum, rng, dim_cap=60): rng.randint(1, 3)}
    )
    return b, random_wh_invariant(p, rng, twist=p.sigma_rho_m, max_support=2, dim_cap=60)


def _rg_linearity_test(case, x):
    b, a = x
    lhs = induce_twisted_spinc(case.p, multiply(b.to_torus(), a))
    return lhs == group_multiply(b, induce_twisted_spinc(case.p, a)), not lhs.is_zero()


check_rg_linearity = Row(
    "induction-rg-linearity {}", 41, 5, _rg_linearity_test,
    cases=_rank_at_most_3,
    draw=_rg_linearity_draw,
    show=lambda x: f"b = {x[0].terms()}, a = {torus_to_text(x[1])}",
    detail=NONTRIVIAL,
)


def _pairing_symmetry(case) -> bool:
    p = case.p
    ba, bb, tau0 = steinberg_pairing_bases(p, "0")
    r1 = pairing_report(p, tau0, ba, bb)
    r2 = pairing_report(p, p.rho_m.residue_mod_one(), bb, ba)
    return all(r1.gram[i][j] == r2.gram[j][i] for i in range(len(ba)) for j in range(len(bb)))


check_pairing_symmetry = _fixed(
    "induction-pairing-symmetry", 42, _pairing_symmetry,
    cases=lambda: [("", zoo_problem("A1", "t"))], detail="gram transposes",
)


def _de_rham_draw(case, rng):
    a = random_wh_invariant(case.p, rng, max_support=2, dim_cap=80)
    return a, random_dominant_weight(case.p.datum, rng, dim_cap=80)


def _de_rham_test(case, x):
    """The de Rham operator's induction: the restriction of i_D(a) is the
    plain orbit sum of a over the coset representatives, and the projection
    formula i_D(i^*(b)) = |W^H| b holds."""
    a, lam = x
    p, reps = case.p, case.p.reps.reps
    a_d = dualize(p.euler)
    ind = induce_between(p.datum, p.sub, multiply(a_d, a))
    orbit = a.replace_coeffs(apply_weyl_sum(reps, [1] * len(reps), a.shift, a.coeffs))
    b = GroupElement.from_weights(p.datum, {lam: 1})
    lhs = induce_between(p.datum, p.sub, multiply(a_d, branch(p, b).to_torus()))
    return ind.to_torus() == orbit and lhs == b.scale(len(reps)), not ind.is_zero()


check_de_rham = Row(
    "induction-de-rham {}", 43, 4, _de_rham_test,
    cases=_rank_at_most_3,
    draw=_de_rham_draw,
    show=lambda x: f"a = {torus_to_text(x[0])}, lambda = {x[1]!r}",
    detail=NONTRIVIAL,
)


# the vanishing mechanism: the augmentation of the dual Euler class is zero
check_euler_augmentation = _fixed(
    "multiplet-euler-augmentation {}", 61,
    lambda case: sum(multiply(case.p.euler, dualize(case.p.euler)).coeffs.values()) == 0
    and sum(dualize(case.p.euler).coeffs.values()) == 0,
    cases=lambda: [(label, p) for label, p in zoo_problems() if p.sub.complement_positive],
    detail="f^* of the Euler class is 0",
)


# --- registry ---------------------------------------------------------------------


SUITES: Dict[str, List[Callable[[int], List[CheckResult]]]] = {
    "weyl": [check_antisymmetrizers],
    "charring": [check_denominator_factorization, check_euler_multiplicative, check_wcf_selfcheck],
    "induction": [
        check_euler_characteristic,
        check_unit_induction,
        check_bwb_agreement,
        check_functoriality,
        check_rg_linearity,
        check_pairing_symmetry,
        check_de_rham,
        check_pairing,
        check_lefschetz,
    ],
    "multiplets": [
        check_gkrs_dimension_sum,
        check_gkrs_identity,
        check_euler_augmentation,
    ],
    "spinc": [check_spinc],
    "appendixB": [check_appendix_b],
    "appendixC": [check_appendix_c],
}


def run_suite(name: str, seed: int = 0) -> List[CheckResult]:
    """The checks of one suite, or of all, in order; a SpinductError raised
    outside a Row's cases is one failing record, and the suite goes on."""
    if name != "all" and name not in SUITES:
        raise SpinductError(f"unknown suite {name!r}")
    out = []
    for key in sorted(SUITES) if name == "all" else [name]:
        for fn in SUITES[key]:
            try:
                out.extend(fn(seed))
            except SpinductError as exc:
                label = fn.name.format("*") if isinstance(fn, Row) else fn.__name__
                out.append(CheckResult(label, False, "raised", f"{exc.code}: {exc}"))
    return out
