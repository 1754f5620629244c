import ast
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest

from spinduct.errors import (
    LatticeNotIntermediate,
    NotARoot,
    NotASubsetOfRoots,
    OrderCapExceeded,
    RankCapExceeded,
    UnknownSeries,
)
from spinduct.rootdata import (
    Lattice,
    RationalWeight,
    build_root_datum,
    dot,
    solve_in_lattice,
    subgroup_character_lattice,
    subgroup_from_roots,
    vadd,
    vneg,
    vsub,
)


def naive_reflection_closure(cartan):
    """Independent oracle: reflection closure in simple-root coordinates,
    using only the Cartan matrix pairing <alpha_j, alpha_i^vee> = C[i][j]."""
    n = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]

    def pairing(vec, i):
        # <sum c_j alpha_j, alpha_i^vee> = sum c_j C[i][j]
        return sum(c * cartan[i][j] for j, c in enumerate(vec))

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        b = frontier.pop()
        for i in range(n):
            p = pairing(b, i)
            nb = tuple(
                c - p * (1 if j == i else 0) for j, c in enumerate(b)
            )
            if nb not in roots:
                roots.add(nb)
                frontier.append(nb)
    return roots


def test_known_root_counts():
    for label, count in [
        ("A1", 2), ("A2", 6), ("B2", 8), ("C2", 8), ("G2", 12),
        ("B3", 18), ("A1xA1", 4), ("F4", 48), ("B4", 32), ("D2", 4),
        ("E6", 72), ("A2xT1", 6),
    ]:
        assert len(build_root_datum(label).roots) == count


def test_g2_closure_matches_naive_oracle():
    g2 = build_root_datum("G2")
    oracle = naive_reflection_closure([[2, -3], [-1, 2]])
    # every oracle coordinate names a root (else NotARoot), and they name all
    ours = {g2.root_from_simple_coordinates(sc) for sc in oracle}
    assert ours == set(g2.roots)
    assert len(oracle) == 12


def test_b3_spin_lattice_contains_half_sum():
    # the spin weight (e1+e2+e3)/2 equals the third fundamental weight
    spin7 = build_root_datum("B3", "weight")
    assert len(spin7.roots) == 18
    assert spin7.pi1_torsion_free()
    so7 = build_root_datum("B3", "root")
    assert not so7.pi1_torsion_free()
    assert so7.fundamental_group_invariants()[-1] == 2


def test_cartan_matrix_reproduced():
    for label in ("A2", "B2", "C2", "G2", "F4", "B3"):
        d = build_root_datum(label)
        for i, cv in enumerate(d.simple_coroots):
            for j, a in enumerate(d.simple_roots):
                val = sum(x * y for x, y in zip(cv, a))
                if i == j:
                    assert val == 2


def test_root_system_closed_under_negation_and_reflection():
    for label in ("A2", "B2", "G2", "B3", "C2", "F4"):
        d = build_root_datum(label)
        roots = d.root_set
        for a in d.roots:
            assert vneg(a) in roots
            av = d.coroot(a)
            for b in d.roots:
                n = sum(x * y for x, y in zip(av, b))
                refl = tuple(x - n * y for x, y in zip(b, a))
                assert refl in roots


def test_build_errors():
    with pytest.raises(UnknownSeries):
        build_root_datum("Q7")
    with pytest.raises(UnknownSeries):
        build_root_datum("G3")
    with pytest.raises(RankCapExceeded):
        build_root_datum("A9")
    with pytest.raises(LatticeNotIntermediate):
        # lattice strictly between root and weight does not exist for A1
        # with generator 3; 3Z does not contain the root alpha = 2 omega
        build_root_datum("A1", [[3]])
    # the root lattice itself is fine
    assert len(build_root_datum("A1", [[2]]).roots) == 2


def test_rho_examples():
    a1 = build_root_datum("A1")
    assert a1.rho == RationalWeight([1])
    b3 = build_root_datum("B3")
    sub = subgroup_from_roots(
        b3,
        [b3.root_from_simple_coordinates(sc) for sc in [(1, 1, 1), (0, 1, 0), (0, 1, 2)]],
    )
    # 2 e1 + e2/2 + e3/2 in the fundamental-weight coordinates: the
    # orthogonal presentation maps e1 = w1, e2 = w2 - w1, e3 = 2 w3 - w2
    e1 = (1, 0, 0)
    e2 = (-1, 1, 0)
    e3 = (0, -1, 2)
    expect = RationalWeight(
        [4 * a + b + c for a, b, c in zip(e1, e2, e3)], 2
    )
    assert sub.rho_m == expect
    assert b3.rho - sub.rho_h == sub.rho_m


def test_rho_defining_identity_everywhere():
    from spinduct.zoo import zoo_problems

    for name, p in zoo_problems():
        sub = p.sub
        assert sub.parent.rho - sub.rho_h == sub.rho_m, name
        assert sub.rho_m.scale(2).is_integral(), name
        # the twist classes add up as the weights do
        m, h = sub.rho_m.residue_mod_one(), sub.rho_h.residue_mod_one()
        assert (m + h).residue_mod_one() == sub.parent.rho.residue_mod_one(), name


def pair(datum, lam, alpha):
    """The coroot pairing <lam, alpha^vee> as an exact rational."""
    return Fraction(dot(datum.coroot(alpha), lam.nums), lam.den)


def test_pair_examples():
    a1 = build_root_datum("A1")
    assert pair(a1, a1.rho, a1.simple_roots[0]) == 1
    assert pair(a1, RationalWeight.zero(1), a1.simple_roots[0]) == 0
    g2 = build_root_datum("G2")
    # the highest coroot pairs with rho to the Coxeter number minus one;
    # it is the coroot of the highest short root (simple coords (2, 1))
    short_high = g2.root_from_simple_coordinates((2, 1))
    assert pair(g2, g2.rho, short_high) == 5
    # the maximal-height (long) root pairs to the dual Coxeter number - 1
    assert pair(g2, g2.rho, g2.positive_roots[-1]) == 3
    with pytest.raises(NotARoot):
        pair(g2, g2.rho, (5, 5))


def test_pair_linearity():
    g2 = build_root_datum("G2")
    rng = random.Random(0)
    for _ in range(30):
        a = rng.choice(g2.roots)
        l1 = RationalWeight([rng.randint(-4, 4), rng.randint(-4, 4)])
        l2 = RationalWeight([rng.randint(-4, 4), rng.randint(-4, 4)])
        assert pair(g2, l1 + l2, a) == pair(g2, l1, a) + pair(g2, l2, a)


def test_subgroup_examples():
    a2 = build_root_datum("A2")
    t = subgroup_from_roots(a2, [])
    assert t.positive_h == () and len(t.complement_positive) == 3

    g2 = build_root_datum("G2")
    sub = subgroup_from_roots(
        g2,
        [g2.root_from_simple_coordinates((0, 1)), g2.root_from_simple_coordinates((3, 1))],
    )
    assert len(sub.roots_h) == 6
    assert 2 * len(sub.complement_positive) == 6

    b3 = build_root_datum("B3")
    sub = subgroup_from_roots(
        b3,
        [b3.root_from_simple_coordinates(sc) for sc in [(1, 1, 1), (0, 1, 0), (0, 1, 2)]],
    )
    assert len(sub.roots_h) == 6
    assert len(sub.complement_positive) == 6
    with pytest.raises(NotASubsetOfRoots):
        subgroup_from_roots(a2, [(7, 7)])


def test_subgroup_invariants():
    for label, gens in [
        ("G2", [(0, 1), (3, 1)]),
        ("B3", [(1, 1, 1), (0, 1, 0), (0, 1, 2)]),
        ("F4", [(0, 1, 2, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]),
    ]:
        d = build_root_datum(label)
        sub = subgroup_from_roots(d, [d.root_from_simple_coordinates(sc) for sc in gens])
        roots = sub.roots_h
        for a in roots:
            assert vneg(a) in roots
            for b in roots:
                s = vadd(a, b)
                if d.is_root(s):
                    assert s in roots
        # R_M splits evenly into R_M^+ and its negative
        comp = set(sub.complement_positive)
        assert not comp & {vneg(a) for a in comp}
        assert len(d.roots) - len(roots) == 2 * len(comp)


def test_additive_closure_forces_full_b2():
    b2 = build_root_datum("B2")
    e2 = b2.simple_roots[1]
    e1 = b2.root_from_simple_coordinates((1, 1))
    assert len(subgroup_from_roots(b2, [e1, e2]).roots_h) == 8


def test_levi_flag():
    a2 = build_root_datum("A2")
    assert subgroup_from_roots(a2, [a2.simple_roots[0]]).is_levi
    theta = vadd(a2.simple_roots[0], a2.simple_roots[1])
    assert subgroup_from_roots(a2, [theta]).is_levi
    g2 = build_root_datum("G2")
    long_a2 = subgroup_from_roots(
        g2,
        [g2.root_from_simple_coordinates((0, 1)), g2.root_from_simple_coordinates((3, 1))],
    )
    assert not long_a2.is_levi
    assert subgroup_from_roots(a2, []).is_levi


def test_character_lattice():
    a2 = build_root_datum("A2")
    t = subgroup_from_roots(a2, [])
    assert subgroup_character_lattice(t).rank == 2
    levi = subgroup_from_roots(a2, [a2.simple_roots[0]])
    xh = subgroup_character_lattice(levi)
    assert xh.rank == 1
    assert xh.contains((0, 1))
    b3 = build_root_datum("B3")
    sub = subgroup_from_roots(
        b3,
        [b3.root_from_simple_coordinates(sc) for sc in [(1, 1, 1), (0, 1, 0), (0, 1, 2)]],
    )
    assert subgroup_character_lattice(sub).rank == 0


def test_character_lattice_monotone():
    a2 = build_root_datum("A2")
    chain = [
        subgroup_from_roots(a2, []),
        subgroup_from_roots(a2, [a2.simple_roots[0]]),
        subgroup_from_roots(a2, list(a2.roots)),
    ]
    ranks = [subgroup_character_lattice(s).rank for s in chain]
    assert ranks == sorted(ranks, reverse=True)


def test_solve_in_lattice_examples():
    b3 = build_root_datum("B3")
    sub = subgroup_from_roots(
        b3,
        [b3.root_from_simple_coordinates(sc) for sc in [(1, 1, 1), (0, 1, 0), (0, 1, 2)]],
    )
    xh = subgroup_character_lattice(sub)
    two_xt = Lattice.full(3, 2)
    # 2 rho_M is not reachable: X(H) = 0 and rho_M is not a weight
    assert solve_in_lattice(sub.rho_m.scale(2), xh, two_xt) is None
    # zero target always solves
    assert solve_in_lattice(RationalWeight.zero(3), xh, two_xt) == (0, 0, 0)
    # 2 rho_G against the full lattice always solves
    assert solve_in_lattice(b3.rho.scale(2), Lattice.full(3), two_xt) is not None


def test_solve_in_lattice_brute_force_agreement():
    rng = random.Random(5)
    for _ in range(60):
        r = rng.randint(1, 3)
        gens = Lattice.from_columns(
            r, [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(0, r))]
        )
        modulus = Lattice.from_columns(
            r, [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        )
        target = RationalWeight([rng.randint(-4, 4) for _ in range(r)])
        got = solve_in_lattice(target, gens, modulus)
        # brute force over small combinations
        found = None
        gcols = list(gens.columns)
        mcols = list(modulus.columns)

        def combos(cols, bound):
            if not cols:
                yield (0,) * r
                return
            idx = [-bound] * len(cols)
            while True:
                v = [0] * r
                for c, col in zip(idx, cols):
                    for i in range(r):
                        v[i] += c * col[i]
                yield tuple(v)
                j = 0
                while j < len(idx):
                    idx[j] += 1
                    if idx[j] <= bound:
                        break
                    idx[j] = -bound
                    j += 1
                else:
                    break

        tgt = target.nums if target.is_integral() else None
        if tgt is not None:
            for u in combos(gcols, 3):
                for w in combos(mcols, 3):
                    if all(a == b + c for a, b, c in zip(u, tgt, w)):
                        found = u
                        break
                if found:
                    break
        if found is not None:
            assert got is not None, (target, gens.columns, modulus.columns)
        if got is not None:
            # verify the returned witness exactly
            assert gens.contains(got)
            diff = [a - b * target.den for a, b in zip([x * target.den for x in got], target.nums)]
            # recompute: got - target must lie in the modulus
            assert target.is_integral()
            assert modulus.contains(tuple(a - b for a, b in zip(got, target.ints())))


def test_lattice_canonical_idempotent():
    rng = random.Random(6)
    for _ in range(40):
        r = rng.randint(1, 4)
        cols = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(1, 4))]
        lat = Lattice.from_columns(r, cols)
        again = Lattice.from_columns(r, lat.columns)
        assert lat == again


def test_root_datum_cache_rechecks_caps(monkeypatch):
    import spinduct.rootdata as rd

    assert build_root_datum("E6") is build_root_datum("E6")
    monkeypatch.setattr(rd, "WEYL_ORDER_CAP", 100)
    with pytest.raises(OrderCapExceeded):
        build_root_datum("E6")
    monkeypatch.setattr(rd, "WEYL_ORDER_CAP", 1 << 21)
    monkeypatch.setattr(rd, "RANK_CAP", 5)
    with pytest.raises(RankCapExceeded):
        build_root_datum("E6")


# |W| of each simple series in closed form (Bourbaki, Lie IV-VI, Plates
# I-IX): an oracle for the root-height formula that shares no code with it
_WEYL_ORDERS = {
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: math.factorial(n) << n,
    "C": lambda n: math.factorial(n) << n,
    "D": lambda n: math.factorial(n) << (n - 1) if n > 1 else 2,
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
    "T": lambda n: 1,
}


def test_weyl_order_from_heights_equals_the_closed_forms(monkeypatch):
    """Every label the rank cap admits, with the order cap raised: each
    series at each rank, the exceptional groups, a product and a torus
    factor."""
    import spinduct.rootdata as rd

    monkeypatch.setattr(rd, "WEYL_ORDER_CAP", 1 << 30)
    labels = [
        f"{s}{n}" for s, low in (("A", 1), ("B", 2), ("C", 2), ("D", 2))
        for n in range(low, rd.RANK_CAP + 1)
    ]
    labels += ["E6", "E7", "E8", "F4", "G2", "B3xG2", "A2xT3"]
    for label in labels:
        want = math.prod(_WEYL_ORDERS[s](n) for s, n in rd.parse_label(label))
        assert build_root_datum(label).weyl_order == want, label


def test_order_cap_is_checked_against_the_built_datum(monkeypatch):
    """The message names the datum's order; a bad lattice is refused before
    the cap, since the order is read off the built datum."""
    import spinduct.rootdata as rd

    with pytest.raises(OrderCapExceeded, match="^projected Weyl order 2903040 exceeds cap 2097152$"):
        build_root_datum("E7")
    monkeypatch.setattr(rd, "WEYL_ORDER_CAP", 1)
    with pytest.raises(LatticeNotIntermediate):
        build_root_datum("A1", [[3]])


def test_explicit_lattices_are_built_afresh():
    gens = [[1, 0], [0, 1]]
    assert build_root_datum("A2", gens) is not build_root_datum("A2", gens)


@pytest.mark.parametrize("label, lattice, name", [
    ("A2", [[1, 0], [0, 1]], "weight"),
    ("A2", [[2, -1], [-1, 2]], "root"),
    ("A2", [[1, 0], [1, 1]], "custom"),
    # another basis of the weight lattice that gives the same roots and coroots
    ("A1xT1", [[1, 0], [0, -1]], "weight"),
    ("A1xT1", "root", "root"),
    # a torus's root lattice basis is the identity
    ("T1", "root", "weight"),
])
def test_equal_data_carry_one_lattice_name(label, lattice, name):
    d = build_root_datum(label, lattice)
    assert d.lattice_choice == name
    if name != "custom":
        assert d == build_root_datum(label, name)


def test_cached_data_are_immutable():
    d = build_root_datum("A2")
    with pytest.raises(AttributeError):
        d.root_set.add((9, 9))
    assert d.is_root(d.simple_roots[0]) and not d.is_root((9, 9))


def test_subgroup_cache_is_keyed_and_bounded(monkeypatch):
    import spinduct.rootdata as rd

    d = build_root_datum("B3")
    a, b = d.positive_roots[0], d.positive_roots[1]
    assert subgroup_from_roots(d, [a]) is subgroup_from_roots(d, (a,))
    assert subgroup_from_roots(d, [a]) is not subgroup_from_roots(d, [a, b])
    assert rd.SUBGROUP_CACHE_SIZE == 256
    rd.forget_scopes()
    d = build_root_datum("B3")
    # every closure that runs (a miss) checks that its generators are roots
    misses = []
    is_root = rd.RootDatum.is_root
    monkeypatch.setattr(
        rd.RootDatum, "is_root", lambda self, g: misses.append(g) or is_root(self, g)
    )
    gens = list(itertools.product(d.roots, repeat=2))[: rd.SUBGROUP_CACHE_SIZE + 1]
    for g in gens[:-1]:
        subgroup_from_roots(d, g)
    assert len(misses) == 2 * 256
    first = subgroup_from_roots(d, gens[0])
    # a full cache drops the least recently used entry, gens[1], not gens[0]
    subgroup_from_roots(d, gens[-1])
    assert subgroup_from_roots(d, gens[0]) is first
    assert len(misses) == 2 * 257
    subgroup_from_roots(d, gens[1])
    assert len(misses) == 2 * 258
    # so it held 256 entries: gens[0], gens[2:] and gens[-1], and now gens[1]
    # in place of gens[2], while gens[0] and gens[-1] stay
    assert subgroup_from_roots(d, gens[0]) is first
    subgroup_from_roots(d, gens[-1])
    assert len(misses) == 2 * 258
    with pytest.raises(NotASubsetOfRoots):
        subgroup_from_roots(d, [(9, 9, 9)])
    assert len(misses) == 2 * 258 + 1
    with pytest.raises(NotASubsetOfRoots):
        subgroup_from_roots(d, [(9, 9, 9)])
    assert len(misses) == 2 * 258 + 2


def test_scopes_compare_by_key():
    """The weight, spin and sc lattices of B3 give three datums that are
    equal, hash alike and share one Weyl group; a datum is never equal to a
    subgroup, even H = G."""
    from spinduct.weyl import generate_weyl

    ds = [build_root_datum("B3", lattice) for lattice in ("weight", "spin", "sc")]
    assert len({id(d) for d in ds}) == 3
    assert ds[0] == ds[1] == ds[2]
    assert len({hash(d) for d in ds}) == 1
    assert generate_weyl(ds[0]) is generate_weyl(ds[1]) is generate_weyl(ds[2])
    full = subgroup_from_roots(ds[0], ds[0].roots)
    assert ds[0] != full and full != ds[0]
    assert full == subgroup_from_roots(ds[1], list(reversed(ds[1].roots)))


def _functools_caches(tree):
    """The names a module binds, at its top level, to a functools cache or
    lru_cache, by decorator or by assignment, under any imported alias."""
    caches = {"cache", "lru_cache"}
    aliases = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module == "functools" for a in node.names if a.name in caches}
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [(node.name, d) for d in node.decorator_list]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [(t.id, node.value) for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name, expr in bound:
            for sub in ast.walk(expr):
                if (isinstance(sub, ast.Name) and sub.id in aliases) or (
                    isinstance(sub, ast.Attribute) and sub.attr in caches
                ):
                    found.add(name)
    return found


def test_per_scope_values_have_no_module_level_cache():
    """Every value built from a scope lives in its scope_state entry; the
    only functools caches left at module level build scopes (root data,
    subgroups) or hold what no scope owns (the torsion field, the parser)."""
    import spinduct

    found = set()
    for path in pathlib.Path(spinduct.__file__).parent.glob("*.py"):
        found |= _functools_caches(ast.parse(path.read_text(encoding="utf-8")))
    assert found == {"_named_root_datum", "_subgroup_closure", "_torsion_field", "build_parser"}


def test_the_guard_sees_each_way_of_binding_a_cache():
    tree = ast.parse(
        "import functools\nfrom functools import cache as memo, lru_cache\n"
        "@memo\ndef a(): pass\n@functools.lru_cache(maxsize=2)\ndef b(): pass\n"
        "c = lru_cache(maxsize=None)(len)\nd: object = functools.cache(len)\n"
        "@staticmethod\ndef e(): pass\nf = len\n"
    )
    assert _functools_caches(tree) == {"a", "b", "c", "d"}


# E6 > A2xA2xA2: the extended Dynkin diagram of E6 minus its centre, in
# simple-root coordinates
_E6_A2_CUBED = ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1), (1, 2, 2, 3, 2, 1))


@pytest.mark.parametrize("group, subgroup, levi", [
    ("A1", "t", True), ("A2", "t", True), ("A2", "levi1", True), ("A1xA1", "t", True),
    ("B2", "t", True), ("G2", "a2long", False), ("B3", "so3xso4", False),
    ("C2", "a1xa1", False), ("F4", "b4", False), ("A2", "g", True),
    ("A2", "alpha1", True), ("E6", "a2cubed", False),
])
def test_levi_flag_known_answers(group, subgroup, levi):
    from spinduct.zoo import parse_group_spec, subgroup_by_name

    datum = parse_group_spec(group)
    if subgroup == "alpha1":
        sub = subgroup_from_roots(datum, [datum.simple_roots[0]])
    elif subgroup == "a2cubed":
        sub = subgroup_from_roots(datum, [datum.root_from_simple_coordinates(sc)
                                          for sc in _E6_A2_CUBED])
    else:
        sub = subgroup_by_name(datum, subgroup)
    assert sub.is_levi is levi


def fixpoint_closure(datum, gens):
    """Oracle: the former closure, which re-scans every pair of the growing
    set until nothing changes, adding reflections and sums each time."""
    s = set()
    for a in gens:
        s.add(a)
        s.add(vneg(a))
    changed = True
    while changed:
        changed = False
        current = list(s)
        for a in current:
            av = datum.coroot(a)
            for b in current:
                r = vsub(b, tuple(dot(av, b) * x for x in a))
                if r not in s:
                    s.add(r)
                    changed = True
                c = vadd(a, b)
                if c in datum.root_set and c not in s:
                    s.add(c)
                    s.add(vneg(c))
                    changed = True
    return s


def _closure_cases():
    from spinduct.zoo import ZOO_PAIRS, parse_group_spec, subgroup_by_name

    for group, name in ZOO_PAIRS + (("B3:root", "so3xso4"),):
        datum = parse_group_spec(group)
        yield datum, subgroup_by_name(datum, name).positive_h
    e6 = build_root_datum("E6")
    yield e6, tuple(e6.root_from_simple_coordinates(sc) for sc in _E6_A2_CUBED)
    yield build_root_datum("A2"), ()
    rng = random.Random(20111)
    for label in ("A3", "B3", "C3", "G2", "F4", "D4", "E6"):
        datum = build_root_datum(label)
        for _ in range(40):
            yield datum, tuple(rng.sample(datum.roots, rng.randint(1, 3)))


def test_additive_closure_matches_fixpoint_oracle():
    """The one-pass additive closure gives the same subsystem as the old
    fixpoint loop on every zoo pair, E6 > A2^3, B3 on its root lattice, no
    generators, and 280 seeded random sets of one to three roots."""
    from spinduct.rootdata import SubgroupDatum

    for datum, gens in _closure_cases():
        ours = subgroup_from_roots(datum, gens)
        oracle = SubgroupDatum(datum, fixpoint_closure(datum, gens))
        assert ours.roots_h == oracle.roots_h, (datum.cartan_label, gens)
        assert ours.positive_h == oracle.positive_h
        assert ours.basis_h == oracle.basis_h
        assert ours.key == oracle.key


def test_additive_closure_visits_each_pair_once(monkeypatch):
    import spinduct.rootdata as rd

    rd.forget_scopes()  # so the closure runs, not a cached subgroup
    sums = []
    monkeypatch.setattr(rd, "vadd", lambda a, b: sums.append((a, b)) or vadd(a, b))
    f4 = build_root_datum("F4")
    gens = [f4.root_from_simple_coordinates(sc)
            for sc in [(0, 1, 2, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]]
    sub = subgroup_from_roots(f4, gens)
    n = len(sub.roots_h)
    assert n == 32 and len(sums) == n * (n - 1) // 2
    assert len({frozenset(p) for p in sums}) == len(sums)
