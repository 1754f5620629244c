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

A sampled check is a `Row`; calling it with (seed, trials) runs it.  To add
one, write a test (case, input) -> (holds, nontrivial), bind
`check_<name> = Row(name, offset, trials, test, ...)` with whichever of
cases, setup, draw, show and detail differ from the defaults, and list it
in SUITES.
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
    group_multiply,
    induce_between,
    induce_twisted_spinc,
    lefschetz_check,
    make_problem,
    pairing_report,
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
    ZOO_PAIRS,
    chain_triples,
    random_dominant_weight,
    random_torus_element,
    random_wh_invariant,
    steinberg_pairing_bases,
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


# --- acceptance criterion 1: Euler characteristic --------------------------


def check_euler_characteristic(seed: int = 0) -> List[CheckResult]:
    expected = {("A2", "t"): 6, ("G2", "a2long"): 2, ("F4", "b4"): 3}
    out = []
    for (g, h) in ZOO_PAIRS:
        p = zoo_problem(g, h)
        n = len(p.reps.reps)
        got = induce_twisted_spinc(p, dualize(p.euler))
        want = GroupElement.from_weights(
            p.datum, {RationalWeight.zero(p.datum.rank): n}
        )
        ok = got == want and expected.get((g, h), n) == n
        out.append(
            CheckResult(
                f"euler-characteristic {g}/{h}",
                ok,
                f"|W^H| = {n}",
                None if ok else torus_to_text(dualize(p.euler)),
            )
        )
    return out


# --- acceptance criterion 2: unit induction ---------------------------------


def check_unit_induction(seed: int = 0) -> List[CheckResult]:
    out = []
    for (g, h) in ZOO_PAIRS:
        p = zoo_problem(g, h)
        spinor = irreducible_restriction(p.sub, p.rho_m)
        got = induce_twisted_spinc(p, spinor)
        want = GroupElement.from_weights(
            p.datum, {RationalWeight.zero(p.datum.rank): 1}
        )
        ok = got == want
        out.append(
            CheckResult(
                f"unit-induction {g}/{h}", ok, "i_*([V_H(rho_M)]) = 1",
                None if ok else torus_to_text(spinor),
            )
        )
    return out


# --- the sampled checks: each is a Row, run by one loop ------------------------


SKIP = object()  # a draw that reaches no check; its rng calls still happen
NONTRIVIAL = "{nontrivial} of {trials} inputs nontrivial"


def _groups():
    """The first zoo pair of each group, labelled G."""
    firsts: Dict[str, str] = {}
    for g, h in ZOO_PAIRS:
        firsts.setdefault(g, h)
    return [(g, zoo_problem(g, h)) for g, h in firsts.items()]


def _rho_twisted(p, max_support: int = 8, **extra) -> SimpleNamespace:
    """A case whose drawn elements carry the multiplet sources' class
    sigma + [rho_G], which is [rho_G] on the untwisted zoo problems."""
    return SimpleNamespace(p=p, twist=p.sigma_rho_g, max_support=max_support, **extra)


def _draw_element(case, rng: random.Random) -> TorusElement:
    return random_torus_element(case.p, rng, twist=case.twist, max_support=case.max_support)


class Row(NamedTuple):
    """A sampled check, run by calling it with (seed, trials).

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
    # independent dimension oracle (character expansion term count)
    p = zoo_problem("F4", "b4")
    m = multiplet(p, TorusElement.monomial(p.datum, p.datum.rho))
    dims = [dimension(ge) for ge in m.members]
    ok = len(m.members) == 3 and alternating_dimension_sum(m) == 0
    for ge, d in zip(m.members, dims):
        # independent oracle: total weight multiplicity of the expansion
        if sum(ge.to_torus().coeffs.values()) != d:
            ok = False
    out.append(
        CheckResult(
            "gkrs-f4-trivial-multiplet",
            ok,
            f"dims {dims}, signs {list(m.signs)}",
        )
    )
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
    cases=_groups,
    draw=_appendix_c_draw,
    detail="{reached} of {trials} inputs reached the check, {nontrivial} with J_G != 0, "
    "{case.mode}",
)


# --- acceptance criterion 9: Spin^c classification --------------------------------


def check_spinc(seed: int = 0) -> List[CheckResult]:
    out = []
    # (i) flag manifolds are always Spin^c
    ok = True
    for (g, h) in ZOO_PAIRS:
        if h != "t":
            continue
        c = classify(zoo_problem(g, h))
        ok = ok and c.is_c_spinorial
    out.append(CheckResult("spinc-flag-varieties", ok, "H = T always c-spinorial"))
    # (ii) the oriented-3-planes model is not Spin^c
    c = classify(zoo_problem("B3:spin", "so3xso4"))
    out.append(
        CheckResult(
            "spinc-so3xso4",
            (not c.is_spin) and (not c.is_c_spinorial) and c.gamma is None,
            "Spin(7)/(SO(3)xSO(4)) refuses",
        )
    )
    # (iii) Levi subgroups carry the complex-structure character
    p = zoo_problem("A2", "levi1")
    c = classify(p)
    ok = c.is_c_spinorial and nu(p, c.gamma) == RationalWeight.zero(2)
    out.append(CheckResult("spinc-levi", ok, f"gamma = {c.gamma}, nu = 0"))
    # torsor law and semisimple consistency
    ok = True
    for (g, h) in ZOO_PAIRS:
        p = zoo_problem(g, h)
        c = classify(p)
        xh = subgroup_character_lattice(p.sub)
        if xh.rank == 0 and c.is_spin != c.is_c_spinorial:
            ok = False
        if c.gamma is not None and xh.columns:
            chi = xh.columns[0]
            shifted = tuple(a + 2 * b for a, b in zip(c.gamma, chi))
            if not nu(p, shifted).is_integral():
                ok = False
    out.append(CheckResult("spinc-torsor-law", ok, "gamma + 2X(H) stays c-spinorial"))
    return out


# --- acceptance criterion 10: duality pairing ---------------------------------------


def check_pairing(seed: int = 0) -> List[CheckResult]:
    out = []
    for label in ("A1", "A2"):
        p = zoo_problem(label, "t")
        for tau_name in ("0", "rhoM"):
            basis_a, basis_b, tau = steinberg_pairing_bases(p, tau_name)
            rep = pairing_report(p, tau, basis_a, basis_b)
            # negative control: doubling one basis element keeps its twist and
            # invariance but doubles the determinant, which is then no unit
            doubled = pairing_report(p, tau, [basis_a[0].scale(2)] + basis_a[1:], basis_b)
            out.append(
                CheckResult(
                    f"pairing-unit {label}/t tau={tau_name}",
                    rep.is_unit and not doubled.is_unit,
                    f"det = {rep.determinant_character.terms()}",
                )
            )
    return out


# --- acceptance criterion 11: the SO(4) twisted-module example (appendix B) ---------


def check_appendix_b(seed: int = 0) -> List[CheckResult]:
    out = []
    spin4 = build_root_datum("A1xA1", "weight")
    x1 = irreducible_restriction(spin4, RationalWeight([1, 0]))
    x2 = irreducible_restriction(spin4, RationalWeight([0, 1]))
    y1 = multiply(x1, x1)
    y2 = multiply(x2, x2)
    y3 = multiply(x1, x2)
    ok = multiply(y1, y2) == multiply(y3, y3)
    rel = multiply(y3, x1) - multiply(y1, x2)
    ok = ok and rel.is_zero()
    out.append(CheckResult("appendix-b-relations", ok, "y1 y2 = y3^2 and y3 x1 = y1 x2"))
    # level decomposition: supports split by total parity and every product
    # stays Weyl-invariant (the restriction lands in R(T)^W at its level)
    rng = random.Random(seed + 11)
    ok = True
    for _ in range(20):
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        prod = TorusElement.unit(spin4)
        for _ in range(r1):
            prod = multiply(prod, x1)
        for _ in range(r2):
            prod = multiply(prod, x2)
        parity = (r1 + r2) % 2
        for k in prod.coeffs:
            if (k[0] + k[1]) % 2 != parity:
                ok = False
        if not is_scope_invariant(prod, spin4):
            ok = False
        ge = extract_highest_weights(spin4, prod)
        for k in ge.coeffs:
            if (k[0] + k[1]) % 2 != parity:
                ok = False
    out.append(
        CheckResult("appendix-b-level-split", ok, "even/odd level decomposition")
    )
    return out


# --- acceptance criterion 12: Lefschetz fixed-point oracle ------------------------------


def check_lefschetz(seed: int = 0, trials: int = 20) -> List[CheckResult]:
    rng = random.Random(seed + 12)
    out = []
    for (g, h) in ZOO_PAIRS:
        p = zoo_problem(g, h)
        spinor = irreducible_restriction(p.sub, p.rho_m)
        hodge = multiply(p.euler, dualize(p.euler))
        a = random_wh_invariant(p, rng, twist=p.sigma_rho_m, max_support=2)
        reps = (
            lefschetz_check(p, p.euler, spinor, trials=trials, seed=seed + 1),
            lefschetz_check(p, hodge, TorusElement.unit(p.datum), trials=trials, seed=seed + 2),
            lefschetz_check(p, p.euler, a, trials=trials, seed=seed + 3),
        )
        n = len(p.reps.reps)
        ok = all(r.mismatches == 0 for r in reps)
        ok = ok and all(l == n for l, _ in reps[1].samples)
        primes = ", ".join(map(str, sorted({r.prime for r in reps})))
        detail = f"mismatches {', '.join(str(r.mismatches) for r in reps)} in F_p, p = {primes}"
        out.append(CheckResult(f"lefschetz {g}/{h}", ok, detail))
    return out


# --- acceptance criterion 13: Weyl character formula self-check -------------------------


def _wcf_test(case, lam):
    lhs = multiply(case.d, irreducible_restriction(case.datum, lam))
    rhs = apply_antisymmetrizer("J_G", TorusElement.monomial(case.datum, lam + case.datum.rho))
    return lhs == rhs, True


check_wcf_selfcheck = Row(
    "wcf-selfcheck {}", 13, 50, _wcf_test,
    setup=lambda p: SimpleNamespace(datum=p.datum, d=weyl_denominator(p.datum)),
    cases=_groups,
    draw=lambda case, rng: random_dominant_weight(case.datum, rng),
    show=repr,
    detail="{trials} weights",
)


# --- the paper's further identities, outside the thirteen criteria -------------------


def check_charring_invariants(seed: int = 0) -> List[CheckResult]:
    out = []
    # denominator factorization through subgroups (restricted dual Euler class)
    ok = True
    for (g, h) in ZOO_PAIRS:
        p = zoo_problem(g, h)
        lhs = multiply(dualize(p.euler), p.d_h)
        if lhs != p.d_g:
            ok = False
    out.append(CheckResult("charring-denominator-factorization", ok, "e(D)^* d_H = d_G"))
    # euler multiplicativity along chains
    ok = True
    for name, p, t in chain_triples():
        e_big = euler_class_from_complement(p.datum, p.datum.positive_roots, p.datum.rho)
        e_step = euler_class(p.sub)
        e_rel = euler_class_from_complement(p.datum, p.sub.positive_h, p.sub.rho_h)
        if multiply(e_step, e_rel) != e_big:
            ok = False
    out.append(
        CheckResult("charring-euler-multiplicative", ok, "e(G/T) = e(G/H) e(H/T)")
    )
    return out


def check_induction_invariants(seed: int = 0) -> List[CheckResult]:
    rng = random.Random(seed + 41)
    out = []
    # R(G)-linearity: i_*(j^*(b) a) = b i_*(a)
    ok = True
    for (g, h) in ZOO_PAIRS:
        p = zoo_problem(g, h)
        if p.datum.rank > 3:
            continue
        for _ in range(5):
            b = GroupElement.from_weights(
                p.datum, {random_dominant_weight(p.datum, rng, dim_cap=60): rng.randint(1, 3)}
            )
            a = random_wh_invariant(p, rng, twist=p.sigma_rho_m, max_support=2, dim_cap=60)
            lhs = induce_twisted_spinc(p, multiply(b.to_torus(), a))
            rhs = group_multiply(b, induce_twisted_spinc(p, a))
            if lhs != rhs:
                ok = False
    out.append(CheckResult("induction-rg-linearity", ok, "i_*(j^*(b) a) = b i_*(a)"))
    # pairing gram transpose symmetry
    p = zoo_problem("A1", "t")
    ba, bb, tau0 = steinberg_pairing_bases(p, "0")
    r1 = pairing_report(p, tau0, ba, bb)
    r2 = pairing_report(p, p.rho_m.residue_mod_one(), bb, ba)
    ok = all(
        r1.gram[i][j] == r2.gram[j][i] for i in range(len(ba)) for j in range(len(bb))
    )
    out.append(CheckResult("induction-pairing-symmetry", ok, "gram transposes"))
    # the de Rham operator's induction: restriction of i_D(a) equals the
    # plain orbit sum of a over the coset representatives, and the
    # projection formula i_D(i^*(b)) = i_D(1) b holds
    ok = True
    for (g, h) in ZOO_PAIRS:
        p = zoo_problem(g, h)
        if p.datum.rank > 3:
            continue
        n = len(p.reps.reps)
        a_d = dualize(p.euler)
        for _ in range(4):
            a = random_wh_invariant(p, rng, max_support=2, dim_cap=80)
            ind = induce_between(p.datum, p.sub, multiply(a_d, a))
            reps = p.reps.reps
            orbit = a.replace_coeffs(apply_weyl_sum(reps, [1] * len(reps), a.shift, a.coeffs))
            if ind.to_torus() != orbit:
                ok = False
        lam = random_dominant_weight(p.datum, rng, dim_cap=80)
        b = GroupElement.from_weights(p.datum, {lam: 1})
        lhs = induce_between(p.datum, p.sub, multiply(a_d, branch(p, b).to_torus()))
        rhs = b.scale(n)
        if lhs != rhs:
            ok = False
    out.append(
        CheckResult(
            "induction-de-rham",
            ok,
            "restriction is the W^H orbit sum; i_D(i^*(b)) = |W^H| b",
        )
    )
    return out


def check_multiplet_invariants(seed: int = 0) -> List[CheckResult]:
    out = []
    # the vanishing mechanism: augmentation of the dual Euler class is zero
    ok = True
    for (g, h) in ZOO_PAIRS:
        p = zoo_problem(g, h)
        if not p.sub.complement_positive:
            continue
        if sum(multiply(p.euler, dualize(p.euler)).coeffs.values()) != 0:
            ok = False
        if sum(dualize(p.euler).coeffs.values()) != 0:
            ok = False
    out.append(CheckResult("multiplet-euler-augmentation", ok, "f^* of the Euler class is 0"))
    return out


# --- registry ---------------------------------------------------------------------


SUITES: Dict[str, List[Callable[[int], List[CheckResult]]]] = {
    "weyl": [check_antisymmetrizers],
    "charring": [check_charring_invariants, check_wcf_selfcheck],
    "induction": [
        check_euler_characteristic,
        check_unit_induction,
        check_bwb_agreement,
        check_functoriality,
        check_induction_invariants,
        check_pairing,
        check_lefschetz,
    ],
    "multiplets": [
        check_gkrs_dimension_sum,
        check_gkrs_identity,
        check_multiplet_invariants,
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
