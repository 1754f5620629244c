"""spinduct: exact twisted Spin^c induction calculus for compact Lie groups
with maximal-rank subgroups.

Character rings and their shifted twisted modules, induction maps with
their character formulas, Borel-Weil-Bott reduction, the duality pairing,
GKRS multiplets, and the classification of invariant Spin^c structures,
all in exact integer arithmetic.
"""

from .charring import (
    GroupElement,
    TorusElement,
    anti_invariant_decompose,
    dimension,
    dualize,
    euler_class,
    irreducible_restriction,
    multiply,
    weyl_denominator,
)
from .induction import (
    InductionProblem,
    branch,
    bwb_irreducible,
    divide_exact,
    induce_classical,
    induce_twisted_spinc,
    lefschetz_check,
    make_problem,
    pairing_report,
    partial,
)
from .multiplets import Multiplet, alternating_dimension_sum, multiplet
from .rootdata import (
    Lattice,
    RationalWeight,
    RootDatum,
    SubgroupDatum,
    build_root_datum,
    solve_in_lattice,
    subgroup_character_lattice,
    subgroup_from_roots,
)
from .spinc import SpincClassification, almost_complex_character, classify, euler_class_for_character, nu
from .weyl import (
    CosetReps,
    WeylElement,
    WeylGroup,
    apply_antisymmetrizer,
    coset_representatives,
    generate_weyl,
    to_dominant_chamber,
)

__version__ = "0.1.0"

__all__ = [
    "GroupElement",
    "TorusElement",
    "InductionProblem",
    "Multiplet",
    "Lattice",
    "RationalWeight",
    "RootDatum",
    "SubgroupDatum",
    "SpincClassification",
    "CosetReps",
    "WeylElement",
    "WeylGroup",
    "anti_invariant_decompose",
    "alternating_dimension_sum",
    "almost_complex_character",
    "apply_antisymmetrizer",
    "branch",
    "build_root_datum",
    "bwb_irreducible",
    "classify",
    "coset_representatives",
    "dimension",
    "divide_exact",
    "dualize",
    "euler_class",
    "euler_class_for_character",
    "generate_weyl",
    "induce_classical",
    "induce_twisted_spinc",
    "irreducible_restriction",
    "lefschetz_check",
    "make_problem",
    "multiplet",
    "multiply",
    "nu",
    "pairing_report",
    "partial",
    "solve_in_lattice",
    "subgroup_character_lattice",
    "subgroup_from_roots",
    "to_dominant_chamber",
    "weyl_denominator",
]
