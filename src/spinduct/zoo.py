"""Built-in datum zoo and seeded random generators used by the verify
suites and the tests.

Subgroup presets are stored as simple-root coordinates of their generating
roots, so they are independent of the lattice choice.  Random weights for
rank 4 data are kept small: character expansions are capped by the Weyl
dimension formula so the full verification run stays desk-scale.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from . import kernels
from .charring import TorusElement, _weight_dimension, multiply
from .errors import DegenerateSample, NotDominant, SchemaViolation, UnknownSeries
from .induction import InductionProblem, make_problem
from .rootdata import (
    RationalWeight,
    RootDatum,
    SubgroupDatum,
    build_root_datum,
    subgroup_from_roots,
)
from .serialize import is_int, is_int_vector
from .weyl import generate_weyl

# subgroup presets: name -> (simple-root coordinates of generators)
_PRESETS: Dict[Tuple[str, str], Tuple[Tuple[int, ...], ...]] = {
    ("A2", "levi1"): ((1, 0),),
    ("A2", "levi2"): ((0, 1),),
    ("G2", "a2long"): ((0, 1), (3, 1)),
    ("B3", "so3xso4"): ((1, 1, 1), (0, 1, 0), (0, 1, 2)),
    ("C2", "a1xa1"): ((0, 1), (2, 1)),
    ("F4", "b4"): ((0, 1, 2, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
}


def parse_group_spec(spec: str) -> RootDatum:
    """Parse "LABEL" or "LABEL:lattice" (lattice: weight, root, spin, sc)."""
    label, _, lattice = spec.partition(":")
    return build_root_datum(label, lattice or "weight")


def subgroup_by_name(datum: RootDatum, name: str) -> SubgroupDatum:
    """Resolve a named preset, "t" for the torus, or "g" for H = G."""
    name = name.lower()
    if name in ("t", "torus"):
        return subgroup_from_roots(datum, [])
    if name in ("g", "full"):
        return subgroup_from_roots(datum, list(datum.roots))
    key = (datum.cartan_label, name)
    if key not in _PRESETS:
        raise UnknownSeries(
            f"no subgroup preset {name!r} for {datum.cartan_label}"
        )
    gens = [datum.root_from_simple_coordinates(sc) for sc in _PRESETS[key]]
    return subgroup_from_roots(datum, gens)


def subgroup_from_spec(datum: RootDatum, spec) -> SubgroupDatum:
    """Subgroup from a preset name, a list of simple-root coordinate
    vectors, or a list of indices into the positive-root enumeration."""
    if isinstance(spec, str):
        return subgroup_by_name(datum, spec)
    if not isinstance(spec, list):
        raise SchemaViolation("subgroup must be a name or a list", pointer="/subgroup")
    gens = []
    for i, item in enumerate(spec):
        if is_int(item):
            if not 0 <= item < len(datum.positive_roots):
                raise SchemaViolation(
                    f"root index {item} out of range", pointer=f"/subgroup/{i}"
                )
            gens.append(datum.positive_roots[item])
        elif is_int_vector(item, datum.rank):
            gens.append(datum.root_from_simple_coordinates(tuple(item)))
        else:
            raise SchemaViolation(
                f"a subgroup item is a root index or {datum.rank} simple-root coordinates",
                pointer=f"/subgroup/{i}",
            )
    return subgroup_from_roots(datum, gens)


# the standing zoo of (group spec, subgroup name) pairs
ZOO_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("A1", "t"),
    ("A2", "t"),
    ("A2", "levi1"),
    ("A1xA1", "t"),
    ("B2", "t"),
    ("G2", "a2long"),
    ("B3", "so3xso4"),
    ("C2", "a1xa1"),
    ("F4", "b4"),
)


def zoo_problem(group: str, subgroup: str) -> InductionProblem:
    datum = parse_group_spec(group)
    sub = subgroup_by_name(datum, subgroup)
    return make_problem(datum, sub)


def zoo_problems() -> List[Tuple[str, InductionProblem]]:
    return [(f"{g}/{h}", zoo_problem(g, h)) for g, h in ZOO_PAIRS]


def zoo_groups() -> List[Tuple[str, InductionProblem]]:
    """The first zoo pair of each group, labelled G."""
    firsts: Dict[str, str] = {}
    for g, h in ZOO_PAIRS:
        firsts.setdefault(g, h)
    return [(g, zoo_problem(g, h)) for g, h in firsts.items()]


# --- seeded random generators -------------------------------------------------

# expansion caps keep Freudenthal runs desk-scale on the rank-4 data
def _dim_cap(rank: int) -> int:
    return {1: 60, 2: 4000, 3: 2500}.get(rank, 600)


def _coord_bound(rank: int) -> int:
    return 3 if rank <= 3 else 2


def random_torus_element(
    problem: InductionProblem,
    rng: random.Random,
    twist: Optional[RationalWeight] = None,
    max_support: int = 12,
    max_coeff: int = 9,
) -> TorusElement:
    """Seeded random element of a shifted module: support <= 12, integer
    coefficients in [-9, 9], the twist (a canonical residue) times a random
    element of R(T) with weights in a small box around the origin."""
    datum = problem.datum
    rank = datum.rank
    shift = RationalWeight.zero(rank) if twist is None else twist
    bound = _coord_bound(rank)
    coeffs = {}
    # randrange(a, b + 1) is randint(a, b) by definition, one call shallower
    for _ in range(rng.randrange(1, max_support + 1)):
        key = tuple(rng.randrange(-bound, bound + 1) for _ in range(rank))
        c = rng.randrange(1, max_coeff + 1) * rng.choice((1, -1))
        coeffs[key] = coeffs.get(key, 0) + c
    if shift.den == 1:  # the residue of an integral shift is 0
        return TorusElement(datum, shift, coeffs)
    untwisted = TorusElement(datum, RationalWeight.zero(rank), coeffs)
    return multiply(TorusElement.monomial(datum, shift), untwisted)


def random_wh_invariant(
    problem: InductionProblem,
    rng: random.Random,
    twist: Optional[RationalWeight] = None,
    max_support: int = 4,
    dim_cap: Optional[int] = None,
) -> TorusElement:
    """W_H-invariant random element of the given twist: a sum of full
    irreducible H-characters at random dominant weights (dimension-capped)."""
    from .charring import irreducible_restriction

    datum = problem.datum
    rank = datum.rank
    cap = dim_cap or _dim_cap(rank)
    out = TorusElement.zero(datum, twist)
    for _ in range(rng.randint(1, max_support)):
        mu = random_dominant_weight(problem.sub, rng, twist=twist, dim_cap=cap)
        ch = irreducible_restriction(problem.sub, mu)
        out = out + ch.scale(rng.randint(1, 4) * rng.choice((1, -1)))
    return out


def random_dominant_weight(
    scope,
    rng: random.Random,
    twist: Optional[RationalWeight] = None,
    dim_cap: Optional[int] = None,
    tries: int = 200,
) -> RationalWeight:
    """Random scope-dominant weight in the shifted lattice twist + X(T)
    (twist a canonical residue) whose irreducible has dimension below the
    cap."""
    datum = scope.datum
    rank = datum.rank
    shift = RationalWeight.zero(rank) if twist is None else twist
    bound = _coord_bound(rank)
    cap = dim_cap or _dim_cap(rank)
    best = None
    for _ in range(tries):
        off = tuple(rng.randint(-bound, bound) for _ in range(rank))
        mu = shift + RationalWeight.from_ints(off)
        x, _, _ = kernels.dominant_walk(
            mu.nums, scope.basis, scope.basis_coroots, len(scope.positive)
        )
        mu = RationalWeight(x, mu.den)
        try:
            d = _weight_dimension(scope, mu)
        except NotDominant:
            continue
        if d <= cap:
            return mu
        if best is None or d < best[0]:
            best = (d, mu)
    if best is None:
        raise DegenerateSample("no sampled weight has an integral positive dimension")
    return best[1]


def chain_triples() -> List[Tuple[str, InductionProblem, SubgroupDatum]]:
    """Chains T inside H inside G from the zoo, for functoriality checks."""
    out = []
    for name, p in zoo_problems():
        if p.sub.basis_h and p.sub.roots_h != frozenset(p.datum.roots):
            t = subgroup_from_roots(p.datum, [])
            out.append((name, p, t))
    return out


def steinberg_weights(datum: RootDatum) -> List[RationalWeight]:
    """The weights theta_w = sum of w^{-1}(omega_i) over the descents of
    w^{-1}; the monomials e^(theta_w) form a module basis of R(T) over
    R(G) when pi_1 is torsion-free."""
    pos = set(datum.positive_roots)
    out = []
    for inv in generate_weyl(datum).inverses:
        th = RationalWeight.zero(datum.rank)
        for i, al in enumerate(datum.simple_roots):
            if inv.apply(al) not in pos:
                th = th + RationalWeight.from_ints(inv.apply(_fundamental_weight(datum, i)))
        out.append(th)
    return out


def _fundamental_weight(datum: RootDatum, i: int) -> Tuple[int, ...]:
    """Coordinates of the i-th fundamental weight; requires the weight
    lattice choice (where it is a standard basis vector)."""
    if datum.lattice_choice != "weight":
        raise UnknownSeries(
            "Steinberg basis helper needs the weight lattice choice"
        )
    return tuple(1 if j == i else 0 for j in range(datum.rank))


def steinberg_pairing_bases(
    problem: InductionProblem, tau: str = "0"
) -> Tuple[List[TorusElement], List[TorusElement], RationalWeight]:
    """Monomial bases of the two sides of the induction pairing for H = T:
    (e^theta_w) against (e^(rho_M + theta_w)).

    `tau` labels which side carries the shift: "0" puts the plain basis
    first, "rhoM" the shifted one.  The distinction matters even when
    rho_M is a weight and the two twist classes coincide."""
    datum = problem.datum
    thetas = steinberg_weights(datum)
    plain = [TorusElement.monomial(datum, th) for th in thetas]
    shifted = [TorusElement.monomial(datum, problem.rho_m + th) for th in thetas]
    if tau == "0":
        return plain, shifted, RationalWeight.zero(datum.rank)
    if tau == "rhoM":
        return shifted, plain, problem.rho_m.residue_mod_one()
    raise SchemaViolation("steinberg bases exist for tau = 0 or rhoM only", pointer="/tau")
