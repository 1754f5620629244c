"""GKRS multiplets at a point: the W^H-tuple of boundary images of a
shifted class, the vanishing alternating dimension sum, and the commuting
operator identity behind it."""

from __future__ import annotations

import math
from functools import cached_property
from typing import Tuple

from . import kernels
from .charring import (
    GroupElement,
    TorusElement,
    dimension,
    dualize,
    multiply,
)
from .errors import BadTwist
from .induction import (
    InductionProblem,
    _check_partial_twist,
    _highest_weights,
    partial,
)
from .rootdata import rescale, scaled
from .weyl import WeylElement, apply_antisymmetrizer


class Multiplet:
    """Members a_w indexed by the coset representatives, with signs det(w);
    member order follows the deterministic W^H enumeration.  Immutable, and
    equal and hashed by its four fields."""

    def __init__(self, source: TorusElement, reps: Tuple[WeylElement, ...],
                 members: Tuple[GroupElement, ...], signs: Tuple[int, ...]):
        vars(self).update(source=source, reps=reps, members=members, signs=signs)

    def __setattr__(self, *a):
        raise AttributeError("Multiplet is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return (self.source, self.reps, self.members, self.signs)

    def __eq__(self, other) -> bool:
        if type(other) is not Multiplet:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def dimensions(self) -> Tuple[int, ...]:
        """dim(a_w) for each member, computed once."""
        return tuple(dimension(g) for g in self.members)


def _check_source_twist(problem: InductionProblem, a: TorusElement) -> None:
    if a.shift != problem.sigma_rho_g:
        raise BadTwist("multiplet source must carry the [rho_G] twist class")


def multiplet(problem: InductionProblem, a: TorusElement) -> Multiplet:
    """The multiplet generated by a: member at w is the H-side boundary
    image of w^{-1}(a).

    One pass over W^H: the twist checks run once, the source's keys are
    brought once to the denominator of rho_H, and kernels.collect_images
    takes each key to all its images at once through the pair's packed
    table of inverses, walking only images outside the H chamber.  Each
    member is read as highest weights; every zero member is one shared
    element."""
    _check_source_twist(problem, a)
    sub = problem.sub
    _check_partial_twist(sub, a.shift)
    rho = sub.rho_h
    den = math.lcm(a.shift.den, rho.den)
    keys = list(rescale(a.coeffs, a.shift.den, den).items())
    out_shift = (a.shift - rho).residue_mod_one()
    rho_key = scaled(rho, den)
    cosets = problem.reps
    collected = kernels.collect_images(
        keys, [e.matrix for e in cosets.inverses], cosets.packed_inverses,
        sub.basis, sub.basis_coroots, len(sub.positive),
    )
    zero = GroupElement(sub, out_shift, {})
    members = tuple(
        _highest_weights(sub, out_shift, d, rho_key, den) if d else zero for d in collected
    )
    return Multiplet(a, cosets.reps, members, tuple(e.det for e in cosets.reps))


def alternating_dimension_sum(m: Multiplet) -> int:
    """Sum of det(w) * dim(a_w); zero whenever H is a proper subgroup.

    Returned rather than asserted so harnesses can report the value."""
    return sum(s * d for s, d in zip(m.signs, m.dimensions))


def gkrs_identity_sides(
    problem: InductionProblem, a: TorusElement
) -> Tuple[TorusElement, TorusElement]:
    """Both sides of the commuting square relating the two boundary
    operators `partial`: multiplication by the dual Euler class after the
    G-side boundary, e(D)^* collect_G(a), and the H-side boundary after the
    opposite relative antisymmetrizer, collect_H(J_M^op a).  GKRS says they
    are equal; they are returned so a caller can compare and count them."""
    _check_source_twist(problem, a)
    dual_euler = dualize(problem.euler)
    lhs = multiply(dual_euler, partial(problem, "G", a).to_torus())
    rhs = partial(problem, "H", apply_antisymmetrizer("J_M_OP", a, problem.sub)).to_torus()
    return lhs, rhs
