"""Root data: exact root systems over a chosen character lattice.

A group is encoded by its root system together with an ordered Z-basis of
the character lattice X(T); all weights are integer coordinate vectors over
that basis, and rational weights carry a single common denominator.  The
basis is the fundamental-weight basis when the lattice choice is "weight";
other intermediate lattices are rebased so coordinates stay integral.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    LatticeNotIntermediate,
    NotARoot,
    NotASubsetOfRoots,
    OrderCapExceeded,
    RankCapExceeded,
    UnknownSeries,
)
from . import intlinalg

Weight = Tuple[int, ...]
Covector = Tuple[int, ...]

RANK_CAP = 8
WEYL_ORDER_CAP = 1 << 21


def vadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def dot(cv: Covector, v: Sequence[int]) -> int:
    return sum(map(mul, cv, v))


def ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms as text: "p/q", or "p" when q is 1."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class RationalWeight:
    """Integer numerator vector with a single positive denominator, in
    lowest terms.  Immutable and hashable."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: Sequence[int], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("RationalWeight denominator is zero")
        nums = [int(x) for x in nums]
        den = int(den)
        if den < 0:
            nums = [-x for x in nums]
            den = -den
        g = den
        for x in nums:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalWeight is immutable")

    @classmethod
    def zero(cls, rank: int) -> "RationalWeight":
        return cls((0,) * rank, 1)

    @classmethod
    def from_ints(cls, v: Sequence[int]) -> "RationalWeight":
        return cls(tuple(v), 1)

    @property
    def rank(self) -> int:
        return len(self.nums)

    def __add__(self, other: "RationalWeight") -> "RationalWeight":
        a, b = self, other
        return RationalWeight(
            [x * b.den + y * a.den for x, y in zip(a.nums, b.nums)], a.den * b.den
        )

    def __sub__(self, other: "RationalWeight") -> "RationalWeight":
        return self + (-other)

    def __neg__(self) -> "RationalWeight":
        return RationalWeight([-x for x in self.nums], self.den)

    def scale(self, num: int, den: int = 1) -> "RationalWeight":
        return RationalWeight([x * num for x in self.nums], self.den * den)

    def is_integral(self) -> bool:
        return self.den == 1

    def ints(self) -> Weight:
        if self.den != 1:
            raise ValueError(f"{self} is not integral")
        return self.nums

    def residue_mod_one(self) -> "RationalWeight":
        """Canonical representative modulo the integer lattice: every
        coordinate lies in [0, 1)."""
        return RationalWeight([x % self.den for x in self.nums], self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalWeight)
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        if self.den == 1:
            return f"RationalWeight({list(self.nums)})"
        return f"RationalWeight({list(self.nums)}, den={self.den})"


# --- weight keys ----------------------------------------------------------------
#
# Chamber walks, orbit replays and the Freudenthal recursion run on integer
# keys: a weight w held as den * w, for a positive integer den that clears
# its denominator.  Multiplying through by den commutes with every
# reflection, and with the Weyl group's matrices.


def scaled(w: RationalWeight, den: int) -> Weight:
    """den * w as an integer vector."""
    return tuple(v * (den // w.den) for v in w.nums)


def rescale(keys: Mapping[Weight, int], old: int, new: int) -> Mapping[Weight, int]:
    """Keys old * w as keys new * w, where one of old and new divides the
    other; the input itself when old == new."""
    if old == new:
        return keys
    if new % old == 0:
        f = new // old
        return {tuple([f * x for x in k]): c for k, c in keys.items()}
    f = old // new
    return {tuple([x // f for x in k]): c for k, c in keys.items()}


class Lattice(NamedTuple):
    """Sublattice of the ambient coordinate lattice Z^rank, held as the
    column-Hermite canonical generating matrix (idempotent normal form)."""

    ambient_rank: int
    columns: Tuple[Weight, ...]

    @classmethod
    def from_columns(cls, ambient_rank: int, cols: Iterable[Sequence[int]]) -> "Lattice":
        cols = [tuple(int(x) for x in c) for c in cols if any(c)]
        for c in cols:
            if len(c) != ambient_rank:
                raise DimensionMismatch("lattice generator has wrong length")
        if not cols:
            return cls(ambient_rank, ())
        mat = intlinalg.transpose(cols)  # rows of length = #cols
        h = intlinalg.hermite_column_form(mat)
        return cls(ambient_rank, tuple(intlinalg.transpose(h)))

    @classmethod
    def full(cls, ambient_rank: int, scale: int = 1) -> "Lattice":
        return cls.from_columns(
            ambient_rank,
            [
                tuple(scale if i == j else 0 for j in range(ambient_rank))
                for i in range(ambient_rank)
            ],
        )

    @property
    def rank(self) -> int:
        return len(self.columns)

    def matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """Generators as a matrix (rows indexed by ambient coordinate)."""
        if not self.columns:
            return tuple(() for _ in range(self.ambient_rank))
        return intlinalg.transpose(self.columns)

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient_rank:
            raise DimensionMismatch("vector has wrong length")
        return intlinalg.lattice_contains(self.matrix(), v)


# --- Cartan data ---------------------------------------------------------

_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


def _cartan_matrix(series: str, n: int) -> List[List[int]]:
    """Cartan matrix with C[i][j] = <alpha_j, alpha_i^vee> (Bourbaki shapes)."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if series == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif series == "B":
        # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
        for i in range(n - 1):
            link(i, i + 1)
        if n >= 2:
            c[n - 1][n - 2] = -2
    elif series == "C":
        # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
        for i in range(n - 1):
            link(i, i + 1)
        if n >= 2:
            c[n - 2][n - 1] = -2
    elif series == "D":
        for i in range(n - 2):
            link(i, i + 1)
        if n >= 3:
            link(n - 3, n - 1)
        # n == 2: two disconnected nodes
    elif series == "E":
        # Bourbaki numbering: chain 1-3-4-5-...-n, node 2 hangs off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    elif series == "F":
        link(0, 1)
        link(2, 3)
        # alpha_3 short: <alpha_2, alpha_3^vee> = -2
        c[1][2] = -1
        c[2][1] = -2
    elif series == "G":
        # alpha_1 short, alpha_2 long
        c[0][1] = -3
        c[1][0] = -1
    else:
        raise UnknownSeries(f"unknown series {series!r}")
    return c


def _symmetrizer(c: List[List[int]]) -> List[int]:
    """Minimal positive integers d with d_i c_ij = d_j c_ji.  Each component
    of the diagram is walked from d = top, the lcm of the nonzero entries,
    setting d_j = d_i c_ij / c_ji; a component has two root lengths at most,
    whose ratio divides top, so every d_j is an integer."""
    n = len(c)
    top = lcm(*(abs(x) for row in c for x in row if x))
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        d[start] = top
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if c[i][j] and not d[j]:
                    d[j] = d[i] * c[i][j] // c[j][i]
                    stack.append(j)
    g = gcd(*d)
    return [x // g for x in d]


_LABEL_RE = re.compile(r"^([A-GT])([0-9]+)$")


def parse_label(label: str) -> List[Tuple[str, int]]:
    """Parse a series descriptor like "A2", "A1xA1", "B3xT1"."""
    blocks = []
    for part in label.replace("*", "x").split("x"):
        m = _LABEL_RE.match(part.strip().upper())
        if not m:
            raise UnknownSeries(f"cannot parse series label {part!r}")
        series, n = m.group(1), int(m.group(2))
        if series == "T":
            if n < 1:
                raise UnknownSeries("torus rank must be >= 1")
        elif series == "A" and n < 1:
            raise UnknownSeries("A_n needs n >= 1")
        elif series in "BC" and n < 2:
            raise UnknownSeries(f"{series}_n needs n >= 2")
        elif series == "D" and n < 2:
            raise UnknownSeries("D_n needs n >= 2")
        elif series == "E" and n not in (6, 7, 8):
            raise UnknownSeries("E_n needs n in 6..8")
        elif series == "F" and n != 4:
            raise UnknownSeries("F_n needs n = 4")
        elif series == "G" and n != 2:
            raise UnknownSeries("G_n needs n = 2")
        blocks.append((series, n))
    return blocks


def _order_from_heights(positive: Sequence[Weight], basis: Sequence[Weight]) -> int:
    """|W| of a (possibly reducible) root system from the heights of its
    positive roots: by Kostant, the number of exponents at least k is the
    number of positive roots of height k, and |W| is the product of the
    exponents plus one.  A non-simple positive root minus some simple root
    is a positive root, which gives the heights one level at a time."""
    height = dict.fromkeys(basis, 1)
    pending = [a for a in positive if a not in height]
    while pending:
        rest = []
        for a in pending:
            for b in basis:
                h = height.get(vsub(a, b))
                if h is not None:
                    height[a] = h + 1
                    break
            else:
                rest.append(a)
        if len(rest) == len(pending):
            raise InternalInconsistency("positive roots not reached from the basis")
        pending = rest
    count = [0] * (max(height.values(), default=0) + 2)
    for h in height.values():
        count[h] += 1
    order = 1
    for k in range(1, len(count) - 1):
        order *= (k + 1) ** (count[k] - count[k + 1])
    return order


class _ScopeConstants:
    """Per-scope constants, computed on first read and kept on the scope
    object: the Weyl group's order, rho, those of the Weyl dimension
    formula and the zero twist.  They are tuples, ints and immutable
    RationalWeights, so no reader can change them.  Every value built from
    a scope (its Weyl group, W^H, denominators, characters, problems)
    lives in the scope's one `scope_state` entry instead.

    Two scopes are equal, and hash alike, when their scope_key()s agree,
    and then share one entry.  Every attribute is a function of the key,
    `lattice_choice` too, as the lattice is named from the key."""

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, _ScopeConstants) and self.scope_key() == other.scope_key()
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.scope_key())

    @cached_property
    def zero_twist(self) -> "RationalWeight":
        """The zero weight of the datum's rank, the residue of the untwisted
        class, held once per scope."""
        return RationalWeight.zero(self.datum.rank)

    @cached_property
    def weyl_order(self) -> int:
        """|W| of the scope's root system, read off its root heights."""
        return _order_from_heights(self.positive, self.basis)

    @cached_property
    def rho_vec(self) -> RationalWeight:
        """rho, half the sum of the scope's positive roots."""
        sums = [sum(col) for col in zip(*self.positive)] if self.positive else [0] * self.datum.rank
        return RationalWeight(sums, 2)

    @cached_property
    def positive_coroots(self) -> Tuple[Covector, ...]:
        """The coroots of the scope's positive roots, in the same order."""
        return tuple(self.datum.coroot(a) for a in self.positive)

    @cached_property
    def rho_pairing(self) -> int:
        """The product over positive roots a of <a^vee, rho.nums>, where
        rho = rho.nums / rho.den; positive, as rho is strictly dominant."""
        return prod(dot(cv, self.rho_vec.nums) for cv in self.positive_coroots)


class RootDatum(_ScopeConstants):
    """A root system plus a chosen character lattice X(T).

    Attributes are read-only by convention; instances are immutable after
    construction and safe to share between threads.
    """

    def __init__(
        self,
        cartan_label: str,
        rank: int,
        simple_roots: Sequence[Weight],
        simple_coroots: Sequence[Covector],
        simple_len2: Sequence[int],
        lattice_choice: str,
    ):
        self.cartan_label = cartan_label
        self.rank = rank
        self.simple_roots = tuple(tuple(a) for a in simple_roots)
        self.simple_coroots = tuple(tuple(a) for a in simple_coroots)
        self.simple_len2 = tuple(simple_len2)
        self.lattice_choice = lattice_choice
        self._generate_roots()
        self.key = (cartan_label, self.simple_roots, self.simple_coroots)
        # the scope protocol, shared with SubgroupDatum
        self.datum, self.basis, self.basis_coroots = self, self.simple_roots, self.simple_coroots
        self.positive = self.positive_roots
        self.rho = self.rho_vec

    def _generate_roots(self) -> None:
        """Reflection closure of the simple roots, carrying coroots, squared
        lengths and simple-root coordinates along each reflection."""
        records: Dict[Weight, Tuple[Covector, int, Weight]] = {}
        work: List[Weight] = []
        k = len(self.simple_roots)
        for i, (a, av, l2) in enumerate(
            zip(self.simple_roots, self.simple_coroots, self.simple_len2)
        ):
            sc = tuple(1 if j == i else 0 for j in range(k))
            records[a] = (av, l2, sc)
            work.append(a)
        while work:
            b = work.pop()
            bv, l2, sc = records[b]
            for i, (a, av) in enumerate(zip(self.simple_roots, self.simple_coroots)):
                n = dot(av, b)
                if n == 0:
                    continue
                nb = tuple(x - n * y for x, y in zip(b, a))
                if nb in records:
                    continue
                m = dot(bv, a)
                nbv = tuple(x - m * y for x, y in zip(bv, av))
                nsc = tuple(x - n * (1 if j == i else 0) for j, x in enumerate(sc))
                records[nb] = (nbv, l2, nsc)
                work.append(nb)
        pos = []
        for b, (bv, l2, sc) in records.items():
            if all(x >= 0 for x in sc) and any(sc):
                pos.append((sum(sc), sc, b))
        pos.sort()
        self.positive_roots: Tuple[Weight, ...] = tuple(b for _, _, b in pos)
        self.roots: Tuple[Weight, ...] = self.positive_roots + tuple(
            vneg(b) for b in self.positive_roots
        )
        self._records = records
        self.root_set: FrozenSet[Weight] = frozenset(records)
        if len(records) != 2 * len(self.positive_roots):
            raise InternalInconsistency("root system not symmetric")

    # --- lookups ---------------------------------------------------------

    def is_root(self, a: Sequence[int]) -> bool:
        return tuple(a) in self.root_set

    def coroot(self, a: Sequence[int]) -> Covector:
        try:
            return self._records[tuple(a)][0]
        except KeyError:
            raise NotARoot(f"{tuple(a)} is not a root of {self.cartan_label}")

    def len2(self, a: Sequence[int]) -> int:
        return self._records[tuple(a)][1]

    def root_from_simple_coordinates(self, sc: Sequence[int]) -> Weight:
        v = (0,) * self.rank
        for c, a in zip(sc, self.simple_roots):
            if c:
                v = tuple(x + c * y for x, y in zip(v, a))
        if v not in self.root_set:
            raise NotARoot(f"simple coordinates {tuple(sc)} do not name a root")
        return v

    def scope_key(self):
        return (self.key, "G")

    def fundamental_group_invariants(self) -> Tuple[int, ...]:
        """Invariant factors of pi_1 = Y(T)/Q(coroots); the free central rank
        appears as zeros.  Torsion-free iff no factor exceeds 1."""
        if not self.simple_coroots:
            return (0,) * self.rank
        d, _, _ = intlinalg.smith_normal_form(list(self.simple_coroots))
        n = self.rank
        m = len(self.simple_coroots)
        facs = [d[i][i] for i in range(min(m, n))]
        facs += [0] * (n - len(facs))
        return tuple(facs)

    @cached_property
    def pi1_invariants(self) -> Tuple[int, ...]:
        """fundamental_group_invariants(), computed once per datum."""
        return self.fundamental_group_invariants()

    def pi1_torsion_free(self) -> bool:
        return all(f <= 1 for f in self.pi1_invariants)

    def __repr__(self):
        return f"RootDatum({self.cartan_label}, lattice={self.lattice_choice})"


def build_root_datum(label: str, lattice_choice="weight") -> RootDatum:
    """Construct a RootDatum for a product of simple series and central tori.

    `lattice_choice` is "weight", "root", or an explicit list of lattice
    generators (integer vectors in fundamental-weight coordinates) spanning
    an intermediate lattice between the root and weight lattices.  Data for
    the named choices are cached; the rank cap is checked before the build,
    the Weyl order cap on the built datum's order, on every call, cache
    hits included.
    """
    blocks = parse_label(label)
    rank = sum(n for _, n in blocks)
    if rank > RANK_CAP:
        raise RankCapExceeded(f"total rank {rank} exceeds cap {RANK_CAP}")
    if isinstance(lattice_choice, str):
        datum = _named_root_datum(tuple(blocks), rank, lattice_choice.lower())
    else:
        datum = _build_root_datum(blocks, rank, lattice_choice)
    if datum.weyl_order > WEYL_ORDER_CAP:
        raise OrderCapExceeded(
            f"projected Weyl order {datum.weyl_order} exceeds cap {WEYL_ORDER_CAP}"
        )
    return datum


def _build_root_datum(blocks, rank: int, lattice_choice) -> RootDatum:
    # simple roots in fundamental-weight coordinates, block by block
    simple_cols: List[List[int]] = []
    simple_covs: List[List[int]] = []
    len2s: List[int] = []
    offset = 0
    for s, n in blocks:
        if s == "T":
            offset += n
            continue
        c = _cartan_matrix(s, n)
        d = _symmetrizer(c)
        for j in range(n):
            col = [0] * rank
            cov = [0] * rank
            for i in range(n):
                col[offset + i] = c[i][j]
            cov[offset + j] = 1
            simple_cols.append(col)
            simple_covs.append(cov)
            len2s.append(2 * d[j])
        offset += n

    # lattice basis matrix B (columns in fundamental-weight coordinates); the
    # root lattice's basis pads the torus coordinates with unit vectors
    weight = [[int(i == j) for i in range(rank)] for j in range(rank)]
    seen = {next(i for i, x in enumerate(cv) if x) for cv in simple_covs}
    root = simple_cols + [weight[i] for i in range(rank) if i not in seen]
    if not isinstance(lattice_choice, str):
        basis_cols = [list(map(int, v)) for v in lattice_choice]
    elif lattice_choice.lower() in ("weight", "spin", "sc", "root"):
        basis_cols = root if lattice_choice.lower() == "root" else weight
    else:
        raise LatticeNotIntermediate(f"unknown lattice choice {lattice_choice!r}")
    if len(basis_cols) != rank:
        raise LatticeNotIntermediate("lattice basis must have full rank")
    b_mat = intlinalg.transpose(basis_cols)  # rows = weight coordinates
    # rebase: roots must stay integral (root lattice inside the new lattice)
    sols = [intlinalg.solve_integer(b_mat, col) for col in simple_cols]
    if None in sols:
        raise LatticeNotIntermediate("chosen lattice does not contain the root lattice")

    def over(cols, simples):
        """The simple roots and coroots over a basis: the datum's key."""
        return [tuple(x) for x in simples], [intlinalg.matvec(cols, cv) for cv in simple_covs]

    new_simples, new_covs = over(basis_cols, sols)
    # the lattice is named from the key, so equal data carry one name; over
    # the root basis the simple roots are unit vectors
    named = {"weight": over(weight, simple_cols), "root": over(root, weight[: len(simple_cols)])}
    choice_name = next((n for n, key in named.items() if key == (new_simples, new_covs)), "custom")

    datum = RootDatum(
        canonical_label(blocks), rank, new_simples, new_covs, len2s, choice_name
    )
    count = sum(_ROOT_COUNTS[s](n) for s, n in blocks if s != "T")
    if len(datum.roots) != count:
        raise InternalInconsistency(
            f"generated {len(datum.roots)} roots for {datum.cartan_label}, expected {count}"
        )
    return datum


_named_root_datum = lru_cache(maxsize=None)(_build_root_datum)


def canonical_label(blocks: List[Tuple[str, int]]) -> str:
    return "x".join(f"{s}{n}" for s, n in blocks)


class SubgroupDatum(_ScopeConstants):
    """A closed maximal-rank subsystem of a RootDatum, with the induced
    positive system and the complement weights R_M^+."""

    def __init__(self, parent: RootDatum, roots: Iterable[Weight]):
        self.parent = parent
        root_set = {tuple(a) for a in roots}
        self.roots_h = frozenset(root_set)
        self.positive_h = tuple(a for a in parent.positive_roots if a in root_set)
        self.complement_positive = tuple(a for a in parent.positive_roots if a not in root_set)
        if len(root_set) != 2 * len(self.positive_h):
            raise InternalInconsistency("subsystem is not symmetric")
        # basis = indecomposable positive elements
        pos_h = set(self.positive_h)
        self.basis_h = tuple(a for a in self.positive_h
                             if not any(vsub(a, b) in pos_h for b in self.positive_h if b != a))
        self.basis_h_coroots = tuple(parent.coroot(a) for a in self.basis_h)
        # the scope protocol, shared with RootDatum
        self.datum, self.basis, self.basis_coroots = parent, self.basis_h, self.basis_h_coroots
        self.positive = self.positive_h
        self.rho_h = self.rho_vec
        self.rho_m = parent.rho - self.rho_h
        self.is_levi = self._levi_test()
        self.key = (parent.key, tuple(sorted(self.positive_h)))

    def _levi_test(self) -> bool:
        """H is a Levi (centralizer of a subtorus) iff its roots are exactly
        the ambient roots inside their rational span."""
        if not self.positive_h:
            return True
        rows = [list(a) for a in self.basis_h]
        rank = intlinalg.rank(rows)
        own = set(self.positive_h)
        return all(
            intlinalg.rank(rows + [list(g)]) > rank
            for g in self.parent.positive_roots
            if g not in own
        )

    def scope_key(self):
        return (self.key, "H")

    @cached_property
    def xh_rank(self) -> int:
        """rank X(H) from subgroup_character_lattice, computed once per
        subgroup."""
        return subgroup_character_lattice(self).rank

    def __repr__(self):
        return (
            f"SubgroupDatum(|R_H|={2 * len(self.positive_h)}, "
            f"|R_M+|={len(self.complement_positive)}, levi={self.is_levi})"
        )


Scope = Union[RootDatum, SubgroupDatum]


class ScopeState:
    """The values built for one scope and kept for the process: its Weyl
    group, denominator, characters by highest weight and the twists that
    passed `check_stable` and the chamber-structure check; for a subgroup
    also W^H, the Euler class and the problems by sigma.  The function that
    returns a value stores it here on its first call; a raising call, never."""

    __slots__ = ("weyl", "cosets", "denominator", "euler", "characters", "problems", "stable", "chambered")

    def __init__(self):
        self.weyl = self.cosets = self.denominator = self.euler = None
        self.characters, self.problems, self.stable, self.chambered = {}, {}, set(), set()


_SCOPES: Dict[Scope, ScopeState] = {}


def scope_state(scope: Scope) -> ScopeState:
    """The scope's entry in the one registry of per-scope values, made on
    first use; equal scopes (one scope_key()) share it."""
    state = _SCOPES.get(scope)
    return state if state is not None else _SCOPES.setdefault(scope, ScopeState())


def forget_scopes() -> None:
    """Drop every scope's entry, and the cached root data and subgroups that
    scopes are built from, so that every value is built again on next use."""
    _SCOPES.clear()
    _named_root_datum.cache_clear()
    _subgroup_closure.cache_clear()


SUBGROUP_CACHE_SIZE = 256


def subgroup_from_roots(datum: RootDatum, generators: Iterable[Weight]) -> SubgroupDatum:
    """The smallest symmetric, additively closed set of roots containing the
    generators (Borel-de Siebenthal subgroups included).

    Such a set is a root subsystem, closed under its own reflections too:
    in a reduced root system the a-string through a root b != +-a is
    unbroken (Bourbaki, Lie VI.1.3), so s_a(b) = b - <b, a^vee> a is
    reached from b by adding a or -a one step at a time, through roots.

    Cached per (datum, generators); the least recently used entry goes once
    the cache holds SUBGROUP_CACHE_SIZE subgroups."""
    return _subgroup_closure(datum, tuple(tuple(a) for a in generators))


@lru_cache(maxsize=SUBGROUP_CACHE_SIZE)
def _subgroup_closure(datum: RootDatum, gens: Tuple[Weight, ...]) -> SubgroupDatum:
    for a in gens:
        if not datum.is_root(a):
            raise NotASubsetOfRoots(f"{a} is not a root of the ambient datum")
    found = list(dict.fromkeys(x for a in gens for x in (a, vneg(a))))
    seen = set(found)
    # a worklist: the pair {found[j], found[i]}, j < i, is visited once, at
    # i; the set stays symmetric, as -(a + b) = (-a) + (-b) is visited too
    i = 0
    while i < len(found):
        a = found[i]
        for b in found[:i]:
            c = vadd(a, b)
            if c in datum.root_set and c not in seen:
                found.append(c)
                seen.add(c)
        i += 1
    return SubgroupDatum(datum, seen)


def subgroup_character_lattice(sub: SubgroupDatum) -> Lattice:
    """X(H) = weights of T annihilating every coroot of H."""
    rank = sub.parent.rank
    if not sub.basis_h:
        return Lattice.full(rank)
    rows = [list(cv) for cv in sub.basis_h_coroots]
    cols = intlinalg.kernel_basis(rows)
    return Lattice.from_columns(rank, cols)


def solve_in_lattice(
    target: RationalWeight, gens: Lattice, modulus: Lattice
) -> Optional[Weight]:
    """Some x in `gens` with x = target modulo `modulus`, or None.

    The decision is exact (Smith normal form); a non-integral target has no
    solution since both lattices are integral.
    """
    if gens.ambient_rank != modulus.ambient_rank:
        raise DimensionMismatch("lattices live in different ambient spaces")
    if target.rank != gens.ambient_rank:
        raise DimensionMismatch("target has wrong length")
    if not target.is_integral():
        return None
    t = target.ints()
    if not gens.columns:
        return (0,) * gens.ambient_rank if modulus.contains(t) else None
    ka = len(gens.columns)
    stacked = tuple(
        tuple(gens.columns[j][i] for j in range(ka))
        + tuple(col[i] for col in modulus.columns)
        for i in range(gens.ambient_rank)
    )
    sol = intlinalg.solve_integer(stacked, t)
    if sol is None:
        return None
    x = [0] * gens.ambient_rank
    for j in range(ka):
        for i in range(gens.ambient_rank):
            x[i] += sol[j] * gens.columns[j][i]
    return tuple(x)
