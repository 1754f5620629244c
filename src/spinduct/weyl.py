"""Weyl groups as integer matrices, minimal coset representatives, chamber
reduction, and the antisymmetrizer operators."""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import kernels, rootdata
from .errors import DatumMismatch, InternalInconsistency, OrderCapExceeded, ShiftNotStable
from .intlinalg import identity, matvec
from .rootdata import RationalWeight, Scope, SubgroupDatum, Weight, scope_state

Matrix = Tuple[Tuple[int, ...], ...]


def _rank_one(m: Matrix, col: Sequence[int], row: Sequence[int]) -> Matrix:
    """m - col (x) row; the rows where col is zero are kept as they are."""
    return tuple(tuple([x - c * y for x, y in zip(r, row)]) if c else r for r, c in zip(m, col))


class WeylElement(NamedTuple):
    """A Weyl group element stored as its integer matrix on X(T): an
    immutable (matrix, length) pair, equal and hashed by both.  It acts on
    weight keys den * w by the matrix alone."""

    matrix: Matrix
    length: int

    @property
    def det(self) -> int:
        return -1 if self.length % 2 else 1

    def apply(self, v: Sequence[int]) -> Weight:
        return matvec(self.matrix, v)


def _closure(scope: Scope, avoid: FrozenSet[Weight] = frozenset()) -> Tuple[tuple, tuple]:
    """The elements w of the scope's Weyl group with w(R_H^+) in R^+, R_H^+
    the positive roots in `avoid`, and their inverses, both sorted by
    length, then matrix.  A walk by length over left descents: l(s w) > l(w)
    iff U_s = w^{-1}(alpha_s) > 0 (Humphreys, Reflection Groups and Coxeter
    Groups, 1.6-1.7), and s w keeps R_H^+ positive iff U_s is not in R_H^+,
    as s makes only alpha_s negative.  Each w carries U_t for every simple
    root t; s w is taken only from its canonical parent, s its least left
    descent, so it is reached once: t is a left descent of s w iff
    U_t - <alpha_s^vee, alpha_t> U_s < 0.  An accepted s w costs two
    rank-one updates, s m = m - alpha_s (x) U_s^vee (alpha_s^vee^T m is the
    coroot of U_s) and m^{-1} s = m^{-1} - U_s (x) alpha_s^vee."""
    basis, coroots = scope.basis, scope.basis_coroots
    pos, coroot = frozenset(scope.positive), scope.datum.coroot
    cartan = [[rootdata.dot(av, a) for a in basis] for av in coroots]
    one = WeylElement(identity(scope.datum.rank), 0)
    elements, inverses, level = [one], [one], [(one, one, basis)]
    while level:
        nxt = []
        for e, inv, us in level:
            ascent = [u in pos for u in us]
            for s, (a, av, u, cs) in enumerate(zip(basis, coroots, us, cartan)):
                if not ascent[s] or u in avoid:
                    continue
                vs = []
                for t, (ut, c) in enumerate(zip(us, cs)):
                    if c:
                        ut = tuple([x - c * y for x, y in zip(ut, u)])
                    if t < s and not (ut in pos if c else ascent[t]):
                        break
                    vs.append(ut)
                else:
                    m, mi = _rank_one(e.matrix, a, coroot(u)), _rank_one(inv.matrix, u, av)
                    nxt.append((WeylElement(m, e.length + 1), WeylElement(mi, e.length + 1), vs))
        nxt.sort()
        elements += [e for e, _, _ in nxt]
        inverses += [inv for _, inv, _ in nxt]
        level = nxt
        if len(elements) > rootdata.WEYL_ORDER_CAP:
            raise OrderCapExceeded("Weyl group enumeration exceeded cap")
    return tuple(elements), tuple(inverses)


class WeylGroup:
    """A (sub)system's Weyl group.  Its order is the scope's `weyl_order`,
    from the root heights, for a root datum and a subgroup alike, with
    nothing enumerated.  The elements are enumerated on first use, ordered
    by length, then lexicographic matrix order."""

    def __init__(self, scope: Scope):
        self.scope = scope
        self.datum = scope.datum
        self.order = scope.weyl_order
        # the orbit walk's tree per stabilizer type (the walls of a dominant
        # weight), filled by orbit_expand and signed_orbit as types appear
        self.orbit_trees: Dict[Tuple[int, ...], kernels.OrbitTree] = {}

    @cached_property
    def packed_orbit(self) -> Optional[kernels.PackedOrbit]:
        """The regular orbit tree packed across its points, for signed_orbit;
        built on first use, once the tree has been walked (None for a
        one-point orbit or matrices too large to pack)."""
        scope = self.scope
        tree = self.orbit_trees[()]
        return kernels.pack_orbit(tree, scope.basis, scope.basis_coroots, self.datum.rank)

    @cached_property
    def _walk(self) -> Tuple[Tuple[WeylElement, ...], Tuple[WeylElement, ...]]:
        found = _closure(self.scope)
        if len(found[0]) != self.order:
            raise InternalInconsistency("Weyl group enumeration disagrees with the order formula")
        return found

    @cached_property
    def elements(self) -> Tuple[WeylElement, ...]:
        return self._walk[0]

    @cached_property
    def inverses(self) -> Tuple[WeylElement, ...]:
        """The inverse of each element, in element order, from the same walk."""
        return self._walk[1]


def generate_weyl(scope: Scope) -> WeylGroup:
    """The Weyl group of a RootDatum or SubgroupDatum, one per scope (kept in
    its scope_state); its elements are enumerated only when first read."""
    state = scope_state(scope)
    if state.weyl is None:
        state.weyl = WeylGroup(scope)
    return state.weyl


class _Cosets(NamedTuple):
    reps: Tuple[WeylElement, ...]
    subgroup: SubgroupDatum
    inverses: Tuple[WeylElement, ...]


class CosetReps(_Cosets):
    """The minimal representatives W^H = {w : w(R_H^+) in R_G^+}, with
    their inverses in the same order; equal and hashed by these three
    fields, which cannot be assigned."""

    @cached_property
    def packed_inverses(self) -> Optional[kernels.PackedOrbit]:
        """pack_matrices of the inverses and H's simple coroots, built on
        first use and shared by every problem of the pair."""
        return kernels.pack_matrices([e.matrix for e in self.inverses], self.subgroup.basis_coroots)


def coset_representatives(w: WeylGroup, sub: SubgroupDatum) -> CosetReps:
    """W^H by the descent walk of `_closure` with R_H^+ avoided, kept in the
    subgroup's scope_state (w must be W of its parent; a mismatched pair,
    or one over the order cap, raises and stores nothing).  Each coset w W_H
    has one element in W^H, as W_H acts simply transitively on the positive
    systems of R_H (Humphreys 1.8).  If w is in W^H and l(s w) < l(w), then
    w^{-1}(alpha_s) < 0 is not in R_H^+, so s w is in W^H too: the walk
    reaches all of W^H, each element once."""
    if w.scope != sub.parent:
        raise DatumMismatch("subgroup does not belong to this Weyl group")
    state = scope_state(sub)
    if state.cosets is None:
        reps, inverses = _closure(w.scope, sub.roots_h)
        if len(reps) * generate_weyl(sub).order != w.order:
            raise InternalInconsistency("coset count mismatch")
        state.cosets = CosetReps(reps, sub, inverses)
    return state.cosets


class Regular(NamedTuple):
    w: WeylElement
    image: RationalWeight


def to_dominant_chamber(scope: Scope, mu: RationalWeight) -> Optional[Regular]:
    """Unique strictly dominant representative of a regular weight.

    Returns Regular(w, w(mu)) with w in the scope's Weyl group, or None
    when mu lies on a wall of the scope system.  One chamber walk, no group
    enumeration: w is the product of the reflections on the path, one
    rank-one left multiplication each, and its length is the number of steps."""
    image, path, regular = kernels.dominant_walk(
        mu.nums, scope.basis, scope.basis_coroots, len(scope.positive)
    )
    if not regular:
        return None
    mat = identity(scope.datum.rank)
    for i in path:
        mat = _rank_one(mat, scope.basis[i], matvec(tuple(zip(*mat)), scope.basis_coroots[i]))
    return Regular(WeylElement(mat, len(path)), RationalWeight(image, mu.den))


def check_stable(scope: Scope, shift: RationalWeight) -> None:
    """Raise ShiftNotStable unless the scope's Weyl group keeps the class
    shift + X(T): s_i(delta) - delta = -<delta, alpha_i^vee> alpha_i must
    lie in X(T) for every simple root alpha_i (stable under the simple
    reflections iff under W).  Passing shifts are remembered in the scope's
    scope_state; a failing shift raises on every call."""
    stable = scope_state(scope).stable
    if shift not in stable:
        for a, av in zip(scope.basis, scope.basis_coroots):
            p = rootdata.dot(av, shift.nums)
            if any(p * x % shift.den for x in a):
                raise _not_stable(shift)
        stable.add(shift)


def _not_stable(shift: RationalWeight) -> ShiftNotStable:
    return ShiftNotStable(f"shift class {shift.nums}/{shift.den} is not stable under the group")


def apply_weyl_sum(
    elements: Sequence[WeylElement],
    dets: Sequence[int],
    shift: RationalWeight,
    coeffs: Mapping[Weight, int],
) -> Dict[Weight, int]:
    """Sum of det(w) * w(.) over the listed elements, each acting on the
    weight keys of the class shift + X(T) by its matrix; raises
    ShiftNotStable when one of them moves the class (none can at den 1)."""
    mats = [e.matrix for e in elements]
    nums, den = shift.nums, shift.den
    if den > 1 and any(any((x - y) % den for x, y in zip(matvec(m, nums), nums)) for m in mats):
        raise _not_stable(shift)
    return kernels.weyl_sum(mats, dets, [(0,) * len(m) for m in mats], coeffs)


def antisymmetrize(
    scope: Scope, shift: RationalWeight, coeffs: Mapping[Weight, int]
) -> Dict[Weight, int]:
    """Sum of det(w) * w(.) over the scope's Weyl group, acting on the weight
    keys of the class shift + X(T), without enumerating the group.

    The shift class is checked by check_stable.  Each monomial is collected
    to the strictly dominant chamber with sign det(w), since J(e^(w nu)) =
    det(w) J(e^nu); singular ones drop out, as J kills them.  Each strictly
    dominant nu then expands to its signed orbit J(e^nu)."""
    check_stable(scope, shift)
    w = generate_weyl(scope)
    basis, coroots = scope.basis, scope.basis_coroots
    keys = kernels.dominant_collect(coeffs, basis, coroots, len(scope.positive))
    # the regular tree's table, once an earlier call has walked the tree
    packed = w.packed_orbit if keys and () in w.orbit_trees else None
    return kernels.signed_orbit(list(keys.items()), basis, coroots, w.orbit_trees, packed)


def apply_antisymmetrizer(kind: str, a, sub: Optional[SubgroupDatum] = None):
    """Apply J_G, J_H, J_M or J_M_op to a TorusElement.

    J_G is the full Weyl group's antisymmetrizer, computed by `antisymmetrize`
    without enumerating W.  J_H, J_M and J_M_op are matrix sums of det(w) w
    over the subgroup's Weyl group, the minimal coset representatives W^H and
    their inverses; they stay independent of J_G, so that J_G = J_M J_H =
    J_H J_M_op compares different algorithms.  The shift class of `a` must be
    stable under every element applied.
    """
    kind = kind.upper()
    if kind == "J_G":
        return a.replace_coeffs(antisymmetrize(a.datum, a.shift, a.coeffs))
    if kind not in ("J_H", "J_M", "J_M_OP"):
        raise ValueError(f"unknown antisymmetrizer kind {kind!r}")
    if sub is None:
        raise DatumMismatch(f"{kind} needs a SubgroupDatum")
    if kind == "J_H":
        elements = generate_weyl(sub).elements
    else:
        cosets = coset_representatives(generate_weyl(a.datum), sub)
        elements = cosets.reps if kind == "J_M" else cosets.inverses
    out = apply_weyl_sum(elements, [e.det for e in elements], a.shift, a.coeffs)
    return a.replace_coeffs(out)
