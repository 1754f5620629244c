"""Classification of invariant Spin^c structures on G/H by character-lattice
arithmetic: spinoriality, c-spinorial characters, and their Euler classes."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .charring import TorusElement, euler_class, multiply
from .errors import LengthMismatch, NotCSpinorial, NotInXH
from .intlinalg import reduce_mod_lattice
from .rootdata import (
    Lattice,
    RationalWeight,
    Weight,
    solve_in_lattice,
    subgroup_character_lattice,
)

if TYPE_CHECKING:  # induction imports nu from here
    from .induction import InductionProblem


class SpincClassification(NamedTuple):
    """Answer record: is G/H spin, is it Spin^c, and a witness character.

    When nonempty, the full set of c-spinorial characters is the coset
    gamma + 2 X(H), recorded in `torsor_note` for reporting."""

    rho_m: RationalWeight
    is_spin: bool
    is_c_spinorial: bool
    gamma: Optional[Weight]
    torsor_note: str


def classify(problem: InductionProblem) -> SpincClassification:
    """Decide invariant Spin and Spin^c structures on G/H.

    Spin iff rho_M is a character of T; Spin^c iff 2 rho_M lies in
    X(H) + 2 X(T), decided exactly by lattice arithmetic.  The witness is
    deterministic: gamma = 0 in the Spin case, the complex-structure
    character 2 rho_M when it restricts from H (so nu(gamma) = 0),
    otherwise the canonical residue modulo 2 X(H)."""
    sub = problem.sub
    rank = sub.parent.rank
    rho_m = sub.rho_m
    is_spin = rho_m.is_integral()
    xh = subgroup_character_lattice(sub)
    two_xt = Lattice.full(rank, 2)
    gamma = solve_in_lattice(rho_m.scale(2), xh, two_xt)
    if gamma is not None:
        two_rho_m = rho_m.scale(2).ints()
        if is_spin:
            gamma = (0,) * rank
        elif xh.contains(two_rho_m):
            gamma = two_rho_m
        elif xh.columns:
            two_xh = [[2 * col[i] for col in xh.columns] for i in range(rank)]
            gamma = reduce_mod_lattice(gamma, two_xh)
        note = "witness set is gamma + 2X(H)"
    else:
        note = "no c-spinorial character exists"
    return SpincClassification(
        rho_m=rho_m,
        is_spin=is_spin,
        is_c_spinorial=gamma is not None,
        gamma=gamma,
        torsor_note=note,
    )


def nu(problem: InductionProblem, gamma: Sequence[int]) -> RationalWeight:
    """nu(gamma) = gamma/2 - rho_M; gamma is c-spinorial iff this lands in
    X(T)."""
    sub = problem.sub
    xh = subgroup_character_lattice(sub)
    g = tuple(int(v) for v in gamma)
    if len(g) != sub.parent.rank:
        raise NotInXH("gamma has wrong length")
    if not xh.contains(g):
        raise NotInXH(f"{g} does not annihilate the coroots of H")
    return RationalWeight(g, 2) - sub.rho_m


def euler_class_for_character(
    problem: InductionProblem, gamma: Sequence[int]
) -> TorusElement:
    """Euler class of the Spin^c Dirac operator attached to gamma:
    e^(nu(gamma)) times the product of (1 - e^alpha) over R_M^+.

    An untwisted element; equals e^(gamma/2) times the twisted Dirac Euler
    class under the level-shift bookkeeping."""
    v = nu(problem, gamma)
    if not v.is_integral():
        raise NotCSpinorial(f"nu(gamma) = {v} is not in X(T)")
    half = RationalWeight(tuple(int(x) for x in gamma), 2)
    return multiply(TorusElement.monomial(problem.datum, half), euler_class(problem.sub))


def almost_complex_character(
    problem: InductionProblem, signs: Sequence[int]
) -> RationalWeight:
    """Torus restriction of the Spin^c character induced by an invariant
    almost complex structure with the given orientation signs on R_M^+."""
    comp = problem.sub.complement_positive
    if len(signs) != len(comp):
        raise LengthMismatch(
            f"need {len(comp)} signs for |R_M+|, got {len(signs)}"
        )
    total = [0] * problem.datum.rank
    for s, alpha in zip(signs, comp):
        if s not in (1, -1):
            raise LengthMismatch("signs must be +1 or -1")
        for j, x in enumerate(alpha):
            total[j] += s * x
    return RationalWeight.from_ints(total)
