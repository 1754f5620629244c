"""GKRS multiplets at a point: the W^H-tuple of boundary images of a
shifted class, the vanishing alternating dimension sum, and the commuting
operator identity behind it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from .charring import (
    GroupElement,
    TorusElement,
    TwistClass,
    dimension,
    dualize,
    multiply,
)
from .errors import BadTwist
from .induction import InductionProblem, collect_to_chamber
from .weyl import WeylElement, apply_weyl_sum


@dataclass(frozen=True)
class Multiplet:
    """Members a_w indexed by the coset representatives, with signs det(w);
    member order follows the deterministic W^H enumeration."""

    source: TorusElement
    reps: Tuple[WeylElement, ...]
    members: Tuple[GroupElement, ...]
    signs: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def dimensions(self) -> Tuple[int, ...]:
        """dim(a_w) for each member, computed once."""
        return tuple(dimension(g) for g in self.members)


def _check_source_twist(problem: InductionProblem, a: TorusElement) -> None:
    expected = problem.sigma + TwistClass.of(problem.datum.rho)
    if TwistClass(a.shift) != expected:
        raise BadTwist("multiplet source must carry the [rho_G] twist class")


def _apply_element(a: TorusElement, e: WeylElement) -> TorusElement:
    out = apply_weyl_sum([e], [1], a.shift, a.coeffs)
    return a.replace_coeffs(out)


def multiplet(problem: InductionProblem, a: TorusElement) -> Multiplet:
    """The multiplet generated by a: member at w is the H-side boundary
    image of w^{-1}(a)."""
    _check_source_twist(problem, a)
    cosets = problem.reps
    members = []
    signs = []
    for e, inv in zip(cosets.reps, cosets.inverses):
        aw = _apply_element(a, inv)
        members.append(collect_to_chamber(problem.sub, aw))
        signs.append(e.det)
    return Multiplet(a, cosets.reps, tuple(members), tuple(signs))


def alternating_dimension_sum(m: Multiplet) -> int:
    """Sum of det(w) * dim(a_w); zero whenever H is a proper subgroup.

    Returned rather than asserted so harnesses can report the value."""
    return sum(s * d for s, d in zip(m.signs, m.dimensions))


def gkrs_identity_check(problem: InductionProblem, a: TorusElement) -> bool:
    """Exact check of the commuting square relating the two boundary
    operators: multiplication by the dual Euler class after the G-side
    boundary equals the H-side boundary after the opposite relative
    antisymmetrizer."""
    _check_source_twist(problem, a)
    dual_euler = dualize(problem.euler)
    lhs = multiply(dual_euler, collect_to_chamber(problem.datum, a).to_torus())
    inverses = problem.reps.inverses
    jmop = a.replace_coeffs(
        apply_weyl_sum(inverses, [e.det for e in inverses], a.shift, a.coeffs)
    )
    rhs = collect_to_chamber(problem.sub, jmop).to_torus()
    return lhs == rhs
