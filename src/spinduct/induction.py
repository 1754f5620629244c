"""Induction maps for a maximal-rank pair (G, H): the chamber-collection
operators, twisted Spin^c induction and its classical specializations,
Borel-Weil-Bott closed form, branching, the duality pairing, and the
fixed-point oracle, exact over a finite field."""

from __future__ import annotations

import math
import random
from functools import cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import kernels
from .charring import (
    GroupElement,
    TorusElement,
    euler_class,
    is_scope_invariant,
    multiply,
    weyl_denominator,
)
from .errors import (
    BadTwist,
    BadTwistPairing,
    DatumMismatch,
    InexactDivision,
    InternalInconsistency,
    NotCSpinorial,
    NotHDominant,
    NotLevi,
    NotSpin,
    NotWHInvariant,
    ShiftNotStable,
    WrongBasisSize,
)
from .rootdata import (
    RationalWeight,
    RootDatum,
    Scope,
    SubgroupDatum,
    Weight,
    dot,
    rescale,
    scaled,
    scope_state,
)
from .spinc import nu
from .weyl import (
    CosetReps,
    check_stable,
    coset_representatives,
    generate_weyl,
    to_dominant_chamber,
)


class InductionProblem:
    """The standing data of a pair (G, H) with a G-side twist sigma whose
    class W keeps (BadTwist otherwise): the Weyl groups and W^H, read from
    the scopes' scope_state entries, and the two twist classes its
    operations check, as canonical residues: `sigma` (zero by default),
    `sigma_rho_m` = sigma + [rho_M] for inputs of twisted induction and
    weights of BWB, and `sigma_rho_g` = sigma + [rho_G] for multiplet
    sources.  W's elements, the denominators and the Euler class are built
    only when first read.  make_problem keeps the problem in the subgroup's
    entry, so forget_scopes drops it with them."""

    def __init__(
        self, datum: RootDatum, sub: SubgroupDatum, sigma: Optional[RationalWeight] = None
    ):
        self.datum = datum
        self.sub = sub
        self.sigma = datum.zero_twist if sigma is None else sigma.residue_mod_one()
        try:
            check_stable(datum, self.sigma)
        except ShiftNotStable as exc:
            raise BadTwist(str(exc))
        self.sigma_rho_m = (self.sigma + sub.rho_m).residue_mod_one()
        self.sigma_rho_g = (self.sigma + datum.rho).residue_mod_one()
        self.weyl = generate_weyl(datum)
        self.weyl_h = generate_weyl(sub)
        self.reps: CosetReps = coset_representatives(self.weyl, sub)
        self.rho_m = sub.rho_m

    @property
    def d_g(self) -> TorusElement:
        return weyl_denominator(self.datum)

    @property
    def d_h(self) -> TorusElement:
        return weyl_denominator(self.sub)

    @property
    def euler(self) -> TorusElement:
        return euler_class(self.sub)

    def __repr__(self):
        return (
            f"InductionProblem({self.datum.cartan_label}, |W^H|={len(self.reps.reps)})"
        )


def make_problem(
    datum: RootDatum, sub: SubgroupDatum, sigma: Optional[RationalWeight] = None
) -> InductionProblem:
    """The InductionProblem of (datum, sub, sigma), one per sigma in the
    subgroup's scope_state, however the arguments are passed; no sigma is
    the zero twist."""
    if sub.parent != datum:
        raise DatumMismatch("subgroup belongs to a different datum")
    sigma = datum.zero_twist if sigma is None else sigma
    problems = scope_state(sub).problems
    if sigma not in problems:
        problems[sigma] = InductionProblem(datum, sub, sigma)
    return problems[sigma]


# --- chamber collection (the partial / boundary operators) -----------------


def _check_partial_twist(scope: Scope, shift: RationalWeight) -> None:
    """The shifted-module typing: the shift must be stable under the scope
    group and pair integrally with scope coroots.  Passing shifts are kept
    in the scope's scope_state; a failing shift raises on every call."""
    chambered = scope_state(scope).chambered
    if shift in chambered:
        return
    try:
        check_stable(scope, shift)
    except ShiftNotStable as exc:
        raise BadTwist(str(exc))
    if any(dot(cv, shift.nums) % shift.den for cv in scope.basis_coroots):
        raise BadTwist(
            "shift pairs non-integrally with a scope coroot; the module has no chamber structure"
        )
    chambered.add(shift)


def collect_to_chamber(scope: Scope, a: TorusElement) -> GroupElement:
    """Per-monomial Borel-Weil-Bott reduction: drop singular monomials and
    send regular e^mu to det(w) times the class of w(mu) - rho.

    This is the operator a -> J(a)/d in the highest-weight basis."""
    _check_partial_twist(scope, a.shift)
    rho = scope.rho_vec
    den = math.lcm(a.shift.den, rho.den)
    collected = kernels.dominant_collect(
        rescale(a.coeffs, a.shift.den, den), scope.basis, scope.basis_coroots,
        len(scope.positive),
    )
    out_shift = (a.shift - rho).residue_mod_one()
    return _highest_weights(scope, out_shift, collected, scaled(rho, den), den)


def _highest_weights(
    scope: Scope, shift: RationalWeight, collected: Dict[Weight, int], rho: Weight, den: int
) -> GroupElement:
    """The element of highest weights lam, of the class shift + X(T) (shift
    a canonical residue), given the chamber images lam + rho_S held as keys
    den * (lam + rho_S) and rho = den * rho_S."""
    keys = {tuple([x - y for x, y in zip(k, rho)]): c for k, c in collected.items()}
    return GroupElement(scope, shift, rescale(keys, den, shift.den))


def partial(problem: InductionProblem, scope: str, a: TorusElement) -> GroupElement:
    """The boundary operator: restriction-then-induction through T,
    computed monomial by monomial.  `scope` is "G" or "H"."""
    sc = scope.upper()
    if sc == "G":
        return collect_to_chamber(problem.datum, a)
    if sc == "H":
        return collect_to_chamber(problem.sub, a)
    raise ValueError(f"partial scope must be G or H, got {scope!r}")


# --- twisted Spin^c induction ------------------------------------------------


def induce_between(big: Scope, small: Scope, a: TorusElement) -> GroupElement:
    """Twisted Spin^c induction from the small scope to the big one:
    i_*(a) = collect_big(e^{rho_small} a), for W_small-invariant a.

    This is collect_big(d_small a) / |W_small| without the product: d_small
    a is the sum of det(w) w(e^{rho_small} a) over W_small, and each of
    those terms collects to the same class."""
    if not is_scope_invariant(a, small):
        raise NotWHInvariant("input is not W_H-invariant")
    return collect_to_chamber(big, multiply(TorusElement.monomial(a.datum, small.rho_vec), a))


def induce_twisted_spinc(problem: InductionProblem, a: TorusElement) -> GroupElement:
    """i_*: R(H, sigma + omega_M) -> R(G, sigma)."""
    if a.shift != problem.sigma_rho_m:
        raise BadTwist(
            f"input twist {a.shift.nums}/{a.shift.den} is not sigma + [rho_M]"
        )
    return induce_between(problem.datum, problem.sub, a)


def induce_classical(
    problem: InductionProblem,
    kind: str,
    a: TorusElement,
    gamma: Optional[Weight] = None,
) -> GroupElement:
    """Holomorphic, Spin, or Spin^c(gamma) induction of an untwisted class.

    Each case multiplies by the generator of the shifted module singled
    out by the geometry and applies twisted induction."""
    if any(a.shift.nums):
        raise BadTwist("classical induction expects an untwisted input")
    kind = kind.lower()
    datum = problem.datum
    if kind == "holomorphic":
        if not problem.sub.is_levi:
            raise NotLevi("holomorphic induction needs a Levi subgroup")
        m = TorusElement.monomial(datum, problem.rho_m)
    elif kind == "spin":
        if not problem.rho_m.is_integral():
            raise NotSpin("rho_M is not a character; no invariant Spin structure")
        m = TorusElement.monomial(datum, problem.rho_m.residue_mod_one())
    elif kind == "spinc":
        if gamma is None:
            raise NotCSpinorial("spinc induction needs a character gamma")
        if not nu(problem, gamma).is_integral():
            raise NotCSpinorial("gamma is not c-spinorial: nu(gamma) not in X(T)")
        m = TorusElement.monomial(datum, RationalWeight(gamma, 2))
    else:
        raise ValueError(f"unknown classical induction kind {kind!r}")
    return induce_twisted_spinc(problem, multiply(m, a))


def bwb_irreducible(problem: InductionProblem, mu: RationalWeight) -> GroupElement:
    """Closed form of i_* on a single irreducible with highest weight mu:
    zero when mu + rho_H is singular, otherwise det(w) times the class of
    w(mu + rho_H) - rho_G."""
    sub = problem.sub
    for cv in sub.basis_h_coroots:
        p = dot(cv, mu.nums)
        if p % mu.den or p < 0:
            raise NotHDominant(f"{mu} is not H-dominant")
    if mu.residue_mod_one() != problem.sigma_rho_m:
        raise BadTwist("mu is not in the sigma + [rho_M] coset")
    lam = mu + sub.rho_h
    res = to_dominant_chamber(problem.datum, lam)
    if res is None:
        return GroupElement.zero(problem.datum, lam - problem.datum.rho)
    hw = res.image - problem.datum.rho
    return GroupElement.from_weights(problem.datum, {hw: res.w.det})


# --- branching ---------------------------------------------------------------


def extract_highest_weights(
    scope: Scope, t: TorusElement, allow_negative: bool = True
) -> GroupElement:
    """Decompose a scope-invariant torus element into highest-weight
    classes by Brauer-Klimyk: collect(e^rho t) = t in the highest-weight
    basis, as J(e^rho chi_lam) = d chi_lam = J(e^{lam + rho}).

    Virtual elements extract with signed coefficients; pass
    allow_negative=False when the input is an honest module, where a
    negative multiplicity proves an inconsistency."""
    if not is_scope_invariant(t, scope):
        raise InternalInconsistency("extraction input is not scope-invariant")
    out = collect_to_chamber(scope, multiply(TorusElement.monomial(t.datum, scope.rho_vec), t))
    if not allow_negative and any(c < 0 for c in out.coeffs.values()):
        raise InternalInconsistency("negative extraction multiplicity")
    return out


def branch(problem: InductionProblem, a: GroupElement) -> GroupElement:
    """Restriction R(G, sigma) -> R(H, sigma): expand over T and extract
    H-highest weights; multiplicities are exact.  Branching an honest
    module (all coefficients positive) must never produce a negative
    intermediate, and that is enforced."""
    if a.scope != problem.datum:
        raise DatumMismatch("branch expects a G-side element")
    honest = all(c > 0 for c in a.coeffs.values())
    return extract_highest_weights(problem.sub, a.to_torus(), allow_negative=not honest)


def group_multiply(x: GroupElement, y: GroupElement) -> GroupElement:
    """Product in R(G, .): expand both factors over T and re-extract."""
    if x.scope != y.scope:
        raise DatumMismatch("product of elements over different scopes")
    return extract_highest_weights(x.scope, multiply(x.to_torus(), y.to_torus()))


# --- exact Laurent division ---------------------------------------------------


def divide_exact(a: TorusElement, b: TorusElement) -> TorusElement:
    """Exact division in the shifted Laurent modules; raises
    InexactDivision when b does not divide a."""
    if b.is_zero():
        raise InexactDivision("division by zero")
    den = math.lcm(a.shift.den, b.shift.den)
    ra = rescale(a.coeffs, a.shift.den, den).copy()
    rb = rescale(b.coeffs, b.shift.den, den)
    ltb = max(rb)
    cb = rb[ltb]
    q: Dict[Weight, int] = {}
    steps = 0
    # quotients can be much larger than both operands, so this is a plain
    # resource bound; an inexact division descends forever otherwise
    cap = 2_000_000
    while ra:
        steps += 1
        if steps > cap:
            raise InexactDivision("division did not terminate; not divisible")
        lta = max(ra)
        ca = ra[lta]
        if ca % cb:
            raise InexactDivision("leading coefficient does not divide")
        qc = ca // cb
        qk = tuple(x - y for x, y in zip(lta, ltb))
        q[qk] = q.get(qk, 0) + qc
        for k, c in rb.items():
            nk = tuple(x + y for x, y in zip(qk, k))
            v = ra.get(nk, 0) - qc * c
            if v:
                ra[nk] = v
            elif nk in ra:
                del ra[nk]
    out_shift = a.shift - b.shift
    return TorusElement(a.datum, out_shift, rescale(q, den, out_shift.den))


# --- duality pairing -----------------------------------------------------------


class PairingReport(NamedTuple):
    basis_a: Tuple[TorusElement, ...]
    basis_b: Tuple[TorusElement, ...]
    gram: Tuple[Tuple[GroupElement, ...], ...]
    determinant_character: TorusElement
    is_unit: bool


def pairing_report(
    problem: InductionProblem,
    tau: RationalWeight,
    basis_a: Sequence[TorusElement],
    basis_b: Sequence[TorusElement],
) -> PairingReport:
    """Gram matrix of the induction pairing P(a, b) = i_*(ab) and the
    unit test for its determinant expanded over T.  The a-side basis has
    the twist class tau (a canonical residue), the b-side basis [rho_M] -
    tau."""
    n = len(problem.reps.reps)
    if len(basis_a) != n or len(basis_b) != n:
        raise WrongBasisSize(f"bases must have size |W^H| = {n}")
    if any(problem.sigma.nums):
        raise BadTwistPairing("the pairing is defined for sigma = 0")
    # at sigma = 0, sigma_rho_m is [rho_M]
    b_side = (problem.sigma_rho_m - tau).residue_mod_one()
    for x in basis_a:
        if x.shift != tau:
            raise BadTwistPairing("a-side basis has wrong twist")
    for y in basis_b:
        if y.shift != b_side:
            raise BadTwistPairing("b-side basis has wrong twist")
    for x in list(basis_a) + list(basis_b):
        if not is_scope_invariant(x, problem.sub):
            raise NotWHInvariant("pairing basis elements must be W_H-invariant")
    gram = tuple(
        tuple(induce_twisted_spinc(problem, multiply(x, y)) for y in basis_b)
        for x in basis_a
    )
    tor = [[entry.to_torus() for entry in row] for row in gram]
    det = _torus_determinant(problem.datum, tor)
    is_unit = _is_unit_character(problem.datum, det)
    return PairingReport(tuple(basis_a), tuple(basis_b), gram, det, is_unit)


def _torus_determinant(datum: RootDatum, m: List[List[TorusElement]]) -> TorusElement:
    """Determinant of a matrix of torus elements by memoized Laplace
    expansion along rows."""
    n = len(m)
    if n == 0:
        return TorusElement.unit(datum)
    memo: Dict[Tuple[int, ...], TorusElement] = {}

    def minor(cols: Tuple[int, ...]) -> TorusElement:
        row = n - len(cols)
        if not cols:
            return TorusElement.unit(datum)
        got = memo.get(cols)
        if got is not None:
            return got
        acc: Optional[TorusElement] = None
        for idx, col in enumerate(cols):
            sub = minor(tuple(c for c in cols if c != col))
            term = multiply(m[row][col], sub)
            if idx % 2:
                term = term.scale(-1)
            acc = term if acc is None else acc + term
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


def _is_unit_character(datum: RootDatum, det: TorusElement) -> bool:
    """Units of R(G) restricted to T: plus or minus a single monomial whose
    exponent is fixed by the whole Weyl group."""
    if len(det.coeffs) != 1:
        return False
    (key, c), = det.coeffs.items()
    if c not in (1, -1):
        return False
    return all(dot(cv, key) == 0 for cv in datum.simple_coroots)


# --- Lefschetz fixed-point oracle ----------------------------------------------

# N, the order of the sample points: a prime above the 120 positive roots of
# E8, the most of any group under RANK_CAP, so regular points exist
TORSION_ORDER = 1009
# bases that decide primality exactly below 3.3e23 (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below 3.3e23."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _torsion_field(order: int) -> Tuple[int, int]:
    """(p, zeta): the least prime p = 1 mod order above 2^61, and zeta in
    F_p of exact multiplicative order `order`."""
    p = ((1 << 61) // order + 1) * order + 1
    while not _is_prime(p):
        p += order
    factors = [q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)]
    g = 2
    while True:
        zeta = pow(g, (p - 1) // order, p)
        if all(pow(zeta, order // q, p) != 1 for q in factors):
            return p, zeta
        g += 1


class LefschetzReport(NamedTuple):
    trials: int
    mismatches: int
    prime: int
    samples: Tuple[Tuple[int, int], ...] = ()


def torsion_point(
    problem: InductionProblem, rng: random.Random
) -> Tuple[List[int], List[List[int]]]:
    """A random v in (Z/N)^rank and its images u = M^T v under the W^H
    representatives, such that no root of M pairs to 0 mod N with any
    image; a point that fails is redrawn."""
    n = TORSION_ORDER
    while True:
        v = [rng.randrange(n) for _ in range(problem.datum.rank)]
        images = [[dot(col, v) for col in zip(*e.matrix)] for e in problem.reps.reps]
        if all(dot(alpha, u) % n for u in images for alpha in problem.sub.complement_positive):
            return v, images


def fixed_point_sides(
    problem: InductionProblem, euler: TorusElement, a: TorusElement
) -> Tuple[int, Callable[[Sequence[int], List[List[int]]], Tuple[int, int]]]:
    """(p, at) for the fixed-point formula of `a` under the operator with
    Euler class `euler`: `at(*torsion_point(problem, rng))` gives in F_p
    the symbolic induction i_*(a_D a), computed here once, and the sum over
    W^H, sum_w w(e^{-rho_M} a_D a / prod_{alpha in R_M^+} (1 - e^{-alpha})),
    a_D = euler / e(Dirac), at the torsion point t = exp(2 pi i v/N).

    Both sides lie in Q(zeta_L), L = D N with D the lcm of the
    denominators; zeta in F_p of exact order L stands for exp(2 pi i/L),
    so e^{k/den} at the image u = M^T v of a W^H element is
    zeta^{<k,u> D/den}.  At such a point every 1 - zeta^e is a unit, so a
    correct induction agrees there, and a mismatch is a wrong answer."""
    payload = multiply(divide_exact(euler, problem.euler), a)
    lhs = induce_twisted_spinc(problem, payload).to_torus()
    rho = problem.rho_m
    d = math.lcm(payload.shift.den, lhs.shift.den, rho.den)
    order = d * TORSION_ORDER
    prime, zeta = _torsion_field(order)

    def value(x: TorusElement, u: Sequence[int]) -> int:
        s = d // x.shift.den
        return sum(c * pow(zeta, dot(k, u) * s % order, prime) for k, c in x.coeffs.items())

    def at(v: Sequence[int], images: List[List[int]]) -> Tuple[int, int]:
        rhs = 0
        for u in images:
            den = 1
            for alpha in problem.sub.complement_positive:
                den = den * (1 - pow(zeta, -dot(alpha, u) * d % order, prime)) % prime
            shift = pow(zeta, -dot(rho.nums, u) * (d // rho.den) % order, prime)
            rhs += shift * value(payload, u) * pow(den, -1, prime)
        return value(lhs, v) % prime, rhs % prime

    return prime, at


def lefschetz_check(
    problem: InductionProblem,
    euler: TorusElement,
    a: TorusElement,
    trials: int = 20,
    seed: int = 0,
) -> LefschetzReport:
    """Compare the two sides of the fixed-point formula (`fixed_point_sides`)
    exactly at `trials` torsion points drawn from random.Random(seed)."""
    prime, at = fixed_point_sides(problem, euler, a)
    rng = random.Random(seed)
    samples = tuple(at(*torsion_point(problem, rng)) for _ in range(trials))
    return LefschetzReport(trials, sum(l != r for l, r in samples), prime, samples)
