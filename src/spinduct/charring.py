"""Arithmetic in R(T), in shifted modules Z[delta + X(T)], and in the
highest-weight picture of R(G) and R(H).

A twist class is the canonical residue of its rational shift modulo X(T),
the RationalWeight `residue_mod_one()` gives, with every coordinate in
[0,1); twist classes are compared as these residues.  Every weight w of a
class delta + X(T) has the denominator den of delta, and an element of the
shifted module holds w as the integer key den * w.  The Weyl group acts on
those keys by its matrices, linearly, and chamber walks and orbit replays
read them as they are.  TorusElement (a character of T) and GroupElement
(a combination of irreducibles by highest weight) share one immutable
body, `_Shifted`, whose constructor makes every element's shift its
residue.
Coefficients are exact integers throughout.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, ne
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import kernels
from .errors import (
    BadTwist,
    DatumMismatch,
    InternalInconsistency,
    NotAntiInvariant,
    NotDominant,
)
from .rootdata import (
    Covector,
    RationalWeight,
    RootDatum,
    Scope,
    SubgroupDatum,
    Weight,
    dot,
    ratio_text,
    rescale,
    scaled,
    scope_state,
    vneg,
)
from .weyl import check_stable, generate_weyl


class _Shifted:
    """An element of a shifted module: integer coefficients at weights w of
    the class shift + X(T), over a scope (a root datum or a subgroup), each
    held at the key den * w, den = shift.den.

    The constructor replaces the shift by its residue in [0,1)^rank (its
    twist class), which has the same denominator, so no key moves, and
    drops zero coefficients.  It raises BadTwist for a shift
    that is not a RationalWeight of the scope's rank, for a key of another
    length, and at den > 1 for a key outside the class (k not congruent to
    shift.nums mod den); a GroupElement raises NotDominant for a key outside
    the scope's dominant chamber.  `coeffs` is a read-only view, so an
    element never changes after construction and cached elements can be
    handed to every caller."""

    __slots__ = ("scope", "shift", "coeffs")
    _by_highest_weight = False

    def __init__(self, scope: Scope, shift: RationalWeight, coeffs: Mapping[Weight, int]):
        rank = scope.datum.rank
        if not isinstance(shift, RationalWeight) or len(shift.nums) != rank:
            raise BadTwist(f"shift {shift!r} is not a rational weight of rank {rank}")
        # a lowest-terms shift is its own residue exactly when every
        # numerator lies in [0, den)
        den = shift.den
        if min(shift.nums) < 0 or max(shift.nums) >= den:
            shift = shift.residue_mod_one()
        kept = dict(coeffs)
        if 0 in kept.values():
            kept = {k: c for k, c in kept.items() if c}
        if den > 1:
            # a key's residues mod den must be the residue shift's
            # numerators; a key of the wrong length fails the comparison too
            for k in kept:
                if tuple([x % den for x in k]) != shift.nums:
                    raise BadTwist(f"key {k} is not in the class {shift}")
        elif {*map(len, kept)} - {rank}:
            raise BadTwist(f"keys {[k for k in kept if len(k) != rank]} are not of length {rank}")
        if self._by_highest_weight:
            _check_dominant(scope, kept, den)
        self.scope = scope
        self.shift = shift
        self.coeffs = MappingProxyType(kept)

    @classmethod
    def zero(cls, scope: Scope, twist: Optional[RationalWeight] = None):
        """The zero of the class twist + X(T), by default of X(T) itself."""
        return cls(scope, scope.datum.zero_twist if twist is None else twist, {})

    @classmethod
    def from_weights(cls, scope: Scope, weights: Mapping[RationalWeight, int]):
        """The element sum c e^w over the given weights, which must lie in
        the coset of X(T) of the first (BadTwist otherwise); each weight's
        key is its numerator."""
        if not weights:
            return cls.zero(scope)
        shift = next(iter(weights))
        coeffs: Dict[Weight, int] = {}
        for w, c in weights.items():
            # the constructor checks the numerators against the shift
            if w.den != shift.den:
                raise BadTwist(f"{w} is not in the coset of {shift}")
            coeffs[w.nums] = coeffs.get(w.nums, 0) + c
        return cls(scope, shift, coeffs)

    def replace_coeffs(self, coeffs: Mapping[Weight, int]):
        """The element with the same scope and shift and these keys."""
        return type(self)(self.scope, self.shift, coeffs)

    # --- views -------------------------------------------------------------

    @property
    def datum(self) -> RootDatum:
        return self.scope.datum

    def weight_of(self, key: Weight) -> RationalWeight:
        return RationalWeight(key, self.shift.den)

    def terms(self) -> List[Tuple[RationalWeight, int]]:
        return [(self.weight_of(k), c) for k, c in sorted(self.coeffs.items())]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.scope == other.scope
            and self.shift == other.shift
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return (
            f"{type(self).__name__}({len(self.coeffs)} terms, "
            f"twist={self.shift.nums}/{self.shift.den})"
        )

    # --- module operations --------------------------------------------------

    def _check_compatible(self, other: "_Shifted") -> None:
        if type(other) is not type(self) or self.scope != other.scope:
            raise DatumMismatch("elements live over different scopes")

    def __add__(self, other):
        self._check_compatible(other)
        if self.shift != other.shift:
            raise DatumMismatch("cannot add elements of different twists")
        out = self.coeffs.copy()
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return self.replace_coeffs(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, n: int):
        return self.replace_coeffs({k: n * c for k, c in self.coeffs.items()})


class TorusElement(_Shifted):
    """Finitely supported integer combination of e^w over the weights w of
    one class shift + X(T); models elements of R(T, tau) = Z[delta + X(T)].
    The scope is the root datum, also reached as `datum`."""

    __slots__ = ()

    @classmethod
    def unit(cls, datum: RootDatum) -> "TorusElement":
        return cls(datum, datum.zero_twist, {(0,) * datum.rank: 1})

    @classmethod
    def monomial(cls, datum: RootDatum, weight: RationalWeight, coeff: int = 1) -> "TorusElement":
        return cls(datum, weight, {weight.nums: coeff})


def multiply(a: TorusElement, b: TorusElement) -> TorusElement:
    """Convolution product; twists add.  Both factors' keys are brought to
    a common denominator, and the product's to that of its shift."""
    a._check_compatible(b)
    da, db = a.shift.den, b.shift.den
    den = math.lcm(da, db)
    prod = kernels.convolve(rescale(a.coeffs, da, den), rescale(b.coeffs, db, den))
    shift = a.shift + b.shift
    return TorusElement(a.datum, shift, rescale(prod, den, shift.den))


def dualize(a: TorusElement) -> TorusElement:
    """The duality map e^mu -> e^(-mu); negates the twist."""
    return TorusElement(a.datum, -a.shift, {vneg(k): c for k, c in a.coeffs.items()})


def is_scope_invariant(a: TorusElement, scope: Scope) -> bool:
    """Whether a is fixed by the scope's Weyl group, that is by each simple
    reflection s: k -> k - <alpha^vee, k> alpha, once check_stable has
    passed.  s is injective, so s(a) = a iff every term c e^k has
    coefficient c at s(k); the first miss decides."""
    check_stable(scope, a.shift)
    coeffs = a.coeffs
    for al, av in zip(scope.basis, scope.basis_coroots):
        for k, c in coeffs.items():
            p = sum(map(mul, av, k))
            if p and coeffs.get(tuple([x - p * y for x, y in zip(k, al)])) != c:
                return False
    return True


def _check_dominant(scope: Scope, keys: Mapping[Weight, int], den: int) -> None:
    """Raise NotDominant when a key pairs negatively with a simple scope
    coroot, with the error irreducible_restriction gives for the first
    failing weight in order."""
    coroots = scope.basis_coroots
    for k in keys:
        for cv in coroots:
            if sum(map(mul, cv, k)) < 0:
                for key in sorted(keys):
                    _scope_pairings_ok(scope, RationalWeight(key, den))


# --- denominators and Euler classes ----------------------------------------


def euler_class_from_complement(
    datum: RootDatum, complement_positive: Sequence[Weight], rho_m: RationalWeight
) -> TorusElement:
    """e^(-rho_M) * prod over R_M^+ of (1 - e^alpha): the torus restriction
    of the Euler class of the twisted Dirac operator, with the level shift
    normalized away."""
    zero = (0,) * datum.rank
    prod = {zero: 1}
    for a in complement_positive:
        prod = kernels.convolve(prod, {zero: 1, a: -1})
    return multiply(
        TorusElement(datum, datum.zero_twist, prod),
        TorusElement.monomial(datum, -rho_m),
    )


def euler_class(sub: SubgroupDatum) -> TorusElement:
    """Euler class of the twisted Dirac operator of G/H, restricted to T."""
    state = scope_state(sub)
    if state.euler is None:
        state.euler = euler_class_from_complement(sub.parent, sub.complement_positive, sub.rho_m)
    return state.euler


def weyl_denominator(scope: Scope) -> TorusElement:
    """d = e^rho * prod over positive roots of (1 - e^(-alpha)): the dual of
    euler_class_from_complement over the scope's own positive roots and rho.
    Anti-invariant under the scope's Weyl group; twist class [rho]."""
    state = scope_state(scope)
    if state.denominator is None:
        product = euler_class_from_complement(scope.datum, scope.positive, scope.rho_vec)
        state.denominator = dualize(product)
    return state.denominator


# --- highest-weight elements -------------------------------------------------


class GroupElement(_Shifted):
    """Virtual module in R(G, sigma) or R(H, tau), stored by highest weight.

    Each highest weight is held at its key, as in TorusElement; every
    supported weight is scope-dominant, which the constructor checks."""

    __slots__ = ()

    _by_highest_weight = True

    def to_torus(self) -> TorusElement:
        """Restriction to T: expand every class through its full character."""
        acc: Dict[Weight, int] = {}
        for k, c in sorted(self.coeffs.items()):
            ch = irreducible_restriction(self.scope, self.weight_of(k))
            for key, m in ch.coeffs.items():
                acc[key] = acc.get(key, 0) + c * m
        return TorusElement(self.scope.datum, self.shift, acc)


# --- Weyl dimension formula ---------------------------------------------------


def _weight_dimension(scope: Scope, lam: RationalWeight) -> int:
    """Weyl dimension formula, the product over positive roots a of
    <lam + rho, a^vee> / <rho, a^vee>: one integer product for each side
    (both scaled by a common denominator) and one exact division.  The
    coroots and the rho side are per-scope constants."""
    rho = scope.rho_vec
    den = math.lcm(lam.den, rho.den)
    f, g = den // rho.den, den // lam.den
    lam_rho = [g * u + f * v for u, v in zip(lam.nums, rho.nums)]
    num = 1
    for cv in scope.positive_coroots:
        num *= sum(map(mul, cv, lam_rho))
    div = scope.rho_pairing * f ** len(scope.positive_coroots)
    q, r = divmod(num, div)
    if r or q <= 0:
        raise NotDominant(f"dimension formula gave {num}/{div} for weight {lam}")
    return q


def dimension(a: GroupElement) -> int:
    """Z-linear extension of the Weyl dimension formula (the forgetful
    augmentation at a point)."""
    total = 0
    for k, c in a.coeffs.items():
        total += c * _weight_dimension(a.scope, a.weight_of(k))
    return total


# --- characters of irreducibles (Freudenthal) ---------------------------------


def _scope_pairings_ok(scope: Scope, lam: RationalWeight) -> None:
    for cv in scope.basis_coroots:
        p = dot(cv, lam.nums)
        if p % lam.den:
            raise NotDominant(
                f"weight {lam} has non-integral pairing {ratio_text(p, lam.den)} with a scope coroot"
            )
        if p < 0:
            raise NotDominant(f"weight {lam} is not dominant for the scope")


def _dominant_weights(
    scope: Scope, lam: Weight, den: int
) -> Dict[Weight, Covector]:
    """The dominant weights below the dominant weight lam (both scaled by
    den), each with the covector sum of len2(beta) * beta^vee over the
    positive roots beta taken off lam to reach it.

    Every dominant mu < lam is reached from lam by subtracting positive
    roots through dominant weights (Stembridge, The partial order of
    dominant weights, 1998), so a breadth-first search that keeps only
    dominant results finds them all.  The covector is linear in lam - mu,
    so the path taken does not matter."""
    datum = scope.datum
    coroots = scope.basis_coroots
    steps = [
        (tuple(den * v for v in a), tuple(datum.len2(a) * v for v in datum.coroot(a)))
        for a in scope.positive
    ]
    found: Dict[Weight, Covector] = {lam: (0,) * datum.rank}
    frontier = [lam]
    while frontier:
        nxt = []
        for x in frontier:
            cx = found[x]
            for a, c in steps:
                y = tuple(u - v for u, v in zip(x, a))
                if y not in found and all(dot(cv, y) >= 0 for cv in coroots):
                    found[y] = tuple(u + v for u, v in zip(cx, c))
                    nxt.append(y)
        frontier = nxt
    return found


def _freudenthal(
    scope: Scope, dominants: Dict[Weight, Covector], den: int
) -> Dict[Weight, int]:
    """Multiplicities of the dominant weights of an irreducible, scaled by
    den, by the Freudenthal recursion downward by height from the highest
    weight lam:

        ((lam+rho)^2 - (mu+rho)^2) m(mu) = 2 sum_{alpha>0, k>=1} (mu+k alpha, alpha) m(mu+k alpha)

    Inner products are doubled ((alpha,alpha) = len2), so the left factor is
    the carried covector of `dominants` paired with lam + mu + 2 rho."""
    datum = scope.datum
    basis = scope.basis
    coroots = scope.basis_coroots
    cap = len(scope.positive)
    steps = [
        (tuple(den * v for v in a), datum.coroot(a), datum.len2(a)) for a in scope.positive
    ]
    hvec = [0] * datum.rank
    for _, cv, l2 in steps:
        for j in range(datum.rank):
            hvec[j] += l2 * cv[j]
    order = sorted(dominants, key=lambda x: (-dot(hvec, x), x))
    mult: Dict[Weight, int] = {order[0]: 1}
    rho = scaled(scope.rho_vec, den)
    lam_rho = [a + b for a, b in zip(order[0], rho)]
    for x in order[1:]:
        s = [a + b + c for a, b, c in zip(lam_rho, x, rho)]  # D*(lam + mu + 2 rho)
        denom = dot(dominants[x], s)
        num = 0
        for a_scaled, cv, l2 in steps:
            k = 1
            while True:
                y = tuple(u + k * v for u, v in zip(x, a_scaled))
                m = mult.get(kernels.dominant_walk(y, basis, coroots, cap)[0])
                if m is None:
                    break
                num += m * l2 * dot(cv, y)
                k += 1
        q, r = divmod(2 * num, denom)
        if r:
            raise InternalInconsistency("Freudenthal produced a non-integer multiplicity")
        mult[x] = q
    return mult


def irreducible_restriction(scope: Scope, lam: RationalWeight) -> TorusElement:
    """Full T-character of the irreducible with highest weight lam: the
    dominant weights by positive-root search, their multiplicities by the
    Freudenthal recursion, then the Weyl orbits; exact multiplicities.

    The result is Weyl-invariant for the scope and has coefficient 1 at
    lam.  Results are kept per weight in the scope's scope_state.
    """
    characters = scope_state(scope).characters
    if lam in characters:
        return characters[lam]
    _scope_pairings_ok(scope, lam)
    # everything is scaled by a common denominator D, so weights are integral
    den = math.lcm(lam.den, scope.rho_vec.den)
    mult = _freudenthal(scope, _dominant_weights(scope, scaled(lam, den), den), den)
    expanded = kernels.orbit_expand(
        list(mult.items()), scope.basis, scope.basis_coroots, generate_weyl(scope).orbit_trees
    )
    characters[lam] = TorusElement(scope.datum, lam, rescale(expanded, den, lam.den))
    return characters[lam]


# --- anti-invariants ------------------------------------------------------------


def anti_invariant_decompose(
    a: TorusElement, scope: Optional[Scope] = None
) -> Dict[RationalWeight, int]:
    """Coefficients c_lam with a = sum of c_lam J(e^lam) over strictly
    dominant lam, in sorted order; exact and unique.  Raises
    NotAntiInvariant when a is not anti-invariant (or has the wrong twist
    class).

    The input is peeled one orbit at a time, on a working copy of its keys.
    A regular W-orbit meets the open dominant chamber exactly once
    (Humphreys, Reflection Groups and Coxeter Groups, 1.12), and the orbits
    of distinct strictly dominant lam are disjoint, so a is such a sum iff
    each monomial lies in the orbit of a strictly dominant lam of the
    support, every point of which carries det(w) c_lam.  Any remaining key
    is walked into the chamber; a key on a wall, or an image lam outside the
    support, raises.  J(e^lam) is then replayed once and each of its points
    popped against it, so every monomial is popped exactly once.  The
    result comes sorted by key, which is the order of the weights."""
    scope = scope or a.datum
    if a.shift != scope.rho_vec.residue_mod_one():
        raise NotAntiInvariant("twist class must be [rho] for decomposition")
    w = generate_weyl(scope)
    keys = a.coeffs.copy()
    basis, coroots, cap = scope.basis, scope.basis_coroots, len(scope.positive)
    trees = w.orbit_trees
    found: Dict[Weight, int] = {}
    while keys:
        lam, _, regular = kernels.dominant_walk(next(iter(keys)), basis, coroots, cap)
        c = keys.get(lam) if regular else None
        if c is None:
            raise NotAntiInvariant("a monomial's orbit has no strictly dominant term")
        # the regular tree's table, once an earlier orbit has walked the tree
        packed = w.packed_orbit if () in trees else None
        orbit = kernels.signed_orbit([(lam, c)], basis, coroots, trees, packed)
        if any(map(ne, map(keys.pop, orbit, repeat(None)), orbit.values())):
            raise NotAntiInvariant("element is not in the span of J(e^lambda)")
        found[lam] = c
    return {a.weight_of(lam): found[lam] for lam in sorted(found)}
