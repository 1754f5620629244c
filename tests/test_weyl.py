import random

import pytest

from spinduct.errors import DatumMismatch, OrderCapExceeded, ShiftNotStable
from spinduct.charring import TorusElement, is_scope_invariant, weyl_denominator
from spinduct.induction import make_problem
from spinduct.intlinalg import determinant, identity, matmul, matvec
from spinduct import kernels, weyl
from spinduct.rootdata import (
    RationalWeight,
    build_root_datum,
    dot,
    forget_scopes,
    subgroup_from_roots,
)
from spinduct.weyl import (
    Regular,
    WeylElement,
    WeylGroup,
    antisymmetrize,
    apply_antisymmetrizer,
    apply_weyl_sum,
    coset_representatives,
    generate_weyl,
    to_dominant_chamber,
)
from spinduct.zoo import zoo_problem, zoo_problems


def test_orders():
    for label, order in [
        ("A1", 2), ("A2", 6), ("G2", 12), ("B2", 8), ("B3", 48),
        ("A1xA1", 4), ("C2", 8), ("B4", 384), ("F4", 1152),
    ]:
        assert len(generate_weyl(build_root_datum(label)).elements) == order


def test_subgroup_order_from_root_heights():
    """A subsystem's order from its root heights equals its enumerated size
    on every zoo subgroup (and H = G), and reading it enumerates nothing."""
    from spinduct.weyl import WeylGroup

    problems = [p for _, p in zoo_problems()] + [_d4_a1_four()]
    subs = [p.sub for p in problems]
    subs += [subgroup_from_roots(p.datum, p.datum.roots) for p in problems]
    for sub in subs:
        w = WeylGroup(sub)
        order = w.order
        assert "elements" not in vars(w)
        assert order == len(w.elements)
    e6 = build_root_datum("E6")
    w = WeylGroup(subgroup_from_roots(e6, e6.roots))
    assert w.order == 51840
    assert "elements" not in vars(w)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_root_datum("E8")


def determinants_consistent(elements) -> bool:
    """Whether each element's det, read off its length, is the determinant
    of its matrix."""
    return all(e.det == determinant(e.matrix) for e in elements)


def test_element_invariants():
    rng = random.Random(21)
    for label in ("A2", "G2", "B3"):
        d = build_root_datum(label)
        w = generate_weyl(d)
        roots = d.root_set
        by_matrix = {e.matrix: e for e in w.elements}
        assert determinants_consistent(w.elements)
        for e in w.elements:
            for a in d.roots:
                assert e.apply(a) in roots
        for _ in range(40):
            e1, e2 = rng.choice(w.elements), rng.choice(w.elements)
            assert by_matrix[matmul(e1.matrix, e2.matrix)].det == e1.det * e2.det


def test_determinant_check_catches_wrong_matrix():
    w = generate_weyl(build_root_datum("A2"))
    assert determinants_consistent(w.elements)
    # a rotation passed off as a reflection: the length parity still says
    # det = -1, so only the matrix determinant exposes it
    rotation = next(e for e in w.elements if e.length == 2)
    bad = WeylElement(rotation.matrix, 1)
    assert bad.det == (-1) ** (bad.length % 2) == -1
    assert determinant(bad.matrix) == 1
    assert not determinants_consistent(list(w.elements) + [bad])


def test_deterministic_ordering():
    d = build_root_datum("G2")
    w1 = generate_weyl(d)
    w2 = generate_weyl(build_root_datum("G2"))
    assert [e.matrix for e in w1.elements] == [e.matrix for e in w2.elements]
    lengths = [e.length for e in w1.elements]
    assert lengths == sorted(lengths)


def test_coset_representatives_counts():
    assert len(coset_representatives(
        generate_weyl(build_root_datum("A2")),
        subgroup_from_roots(build_root_datum("A2"), []),
    ).reps) == 6
    p = zoo_problem("G2", "a2long")
    assert len(p.reps.reps) == 2
    p = zoo_problem("F4", "b4")
    assert len(p.reps.reps) == 3
    for e in p.reps.reps:
        pos = set(p.datum.positive_roots)
        for a in p.sub.basis_h:
            assert e.apply(a) in pos


def test_coset_unique_factorization():
    for name, p in zoo_problems():
        wh = generate_weyl(p.sub)
        by_matrix = {e.matrix: e for e in p.weyl.elements}
        seen = set()
        for rep in p.reps.reps:
            for u in wh.elements:
                prod = tuple(
                    tuple(
                        sum(rep.matrix[i][k] * u.matrix[k][j] for k in range(len(u.matrix)))
                        for j in range(len(u.matrix))
                    )
                    for i in range(len(u.matrix))
                )
                assert prod not in seen
                seen.add(prod)
                assert by_matrix[prod].length >= rep.length
        assert len(seen) == p.weyl.order


def test_mismatched_datum():
    """A mismatched pair raises even once the matching pair is stored, as
    the check runs before the subgroup's entry is read, and a raising call
    stores nothing."""
    a2 = build_root_datum("A2")
    w = generate_weyl(a2)
    own = subgroup_from_roots(a2, [])
    assert coset_representatives(w, own) is coset_representatives(w, own)
    sub = subgroup_from_roots(build_root_datum("B2"), [])
    for _ in range(2):
        with pytest.raises(DatumMismatch):
            coset_representatives(w, sub)


def test_chamber_examples():
    a1 = build_root_datum("A1")
    assert to_dominant_chamber(a1, RationalWeight([0])) is None
    r = to_dominant_chamber(a1, RationalWeight([-1]))
    assert isinstance(r, Regular)
    assert r.image == RationalWeight([1]) and r.w.det == -1
    a2 = build_root_datum("A2")
    r = to_dominant_chamber(a2, a2.rho)
    assert r.w.length == 0 and r.image == a2.rho


def _walk_scopes():
    for label in ("A2", "B2", "G2", "B3"):
        yield label, build_root_datum(label)
    for pair in (("G2", "a2long"), ("B3", "so3xso4")):
        yield "/".join(pair), zoo_problem(*pair).sub


def test_chamber_uniqueness_exhaustive():
    """The chamber walk and to_dominant_chamber against the whole orbit:
    the walls-allowed image is the orbit's one dominant member, the walk
    takes at most |R^+| steps, and for a regular weight the matrix and the
    length are those of the unique w with w(mu) strictly dominant."""
    rng = random.Random(11)
    for name, scope in _walk_scopes():
        d = scope.datum
        coroots = scope.basis_coroots
        elements = generate_weyl(scope).elements
        for trial in range(40):
            x = [rng.randint(-5, 5) for _ in range(d.rank)]
            if trial % 3 == 0:
                # onto the wall of a random positive root beta: 2x - <beta^vee, x> beta
                beta = rng.choice(scope.positive)
                p = dot(d.coroot(beta), x)
                x = [2 * u - p * b for u, b in zip(x, beta)]
            image, path, regular = kernels.dominant_walk(
                x, scope.basis, coroots, len(scope.positive)
            )
            orbit = {e.apply(x) for e in elements}
            dominant = [y for y in orbit if all(dot(cv, y) >= 0 for cv in coroots)]
            assert dominant == [image], name
            assert len(path) <= len(scope.positive)
            strict = [e for e in elements if all(dot(cv, e.apply(x)) > 0 for cv in coroots)]
            assert regular == bool(strict)
            den = rng.choice((1, 2))
            res = to_dominant_chamber(scope, RationalWeight(x, den))
            if not strict:
                assert res is None
            else:
                assert len(strict) == 1
                w = strict[0]
                assert res.image == RationalWeight(w.apply(x), den)
                assert (res.w.matrix, res.w.length, res.w.det) == (w.matrix, w.length, w.det)
                assert len(path) == w.length


def test_antisymmetrizer_small_examples():
    a1 = build_root_datum("A1")
    e = TorusElement.monomial(a1, RationalWeight([1]))
    j = apply_antisymmetrizer("J_G", e)
    assert j == e - TorusElement.monomial(a1, RationalWeight([-1]))
    # anti-invariant inputs scale by the group order
    d = weyl_denominator(build_root_datum("A2"))
    assert apply_antisymmetrizer("J_G", d) == d.scale(6)


def _so7_root_lattice():
    # B3 on its root lattice: rho is genuinely half-integral there
    so7 = build_root_datum("B3", "root")
    gens = [(1, 1, 1), (0, 1, 0), (0, 1, 2)]
    return make_problem(so7, subgroup_from_roots(so7, [so7.root_from_simple_coordinates(g) for g in gens]))


def test_j_g_by_signed_orbits_matches_matrix_sum():
    """antisymmetrize (chamber collection plus signed orbits) against the
    matrix sum of det(w) w over the enumerated group, on every zoo group and
    subgroup scope, untwisted, at rho of the group and at rho of the scope;
    A2 > levi1 and B3 on its root lattice give non-integral shifts."""
    from spinduct.zoo import random_torus_element

    rng = random.Random(8)
    problems = [p for _, p in zoo_problems()] + [_so7_root_lattice()]
    shifts_seen = set()
    for p in problems:
        for scope in (p.datum, p.sub):
            elements = generate_weyl(scope).elements
            dets = [e.det for e in elements]
            for delta in (RationalWeight.zero(p.datum.rank), p.datum.rho, scope.rho_vec):
                twist = delta.residue_mod_one()
                shifts_seen.add(twist.den)
                for _ in range(4):
                    a = random_torus_element(p, rng, twist=twist, max_support=8)
                    oracle = apply_weyl_sum(elements, dets, a.shift, a.coeffs)
                    assert antisymmetrize(scope, a.shift, a.coeffs) == oracle
                    if scope is p.datum:
                        assert apply_antisymmetrizer("J_G", a).coeffs == oracle
    assert shifts_seen == {1, 2}


def test_e6_j_g_never_enumerates_w():
    from spinduct.charring import anti_invariant_decompose

    e6 = build_root_datum("E6")
    j = apply_antisymmetrizer("J_G", TorusElement.monomial(e6, e6.rho))
    assert len(j.coeffs) == 51840
    assert sorted(set(j.coeffs.values())) == [-1, 1]
    assert sum(j.coeffs.values()) == 0
    assert anti_invariant_decompose(j) == {e6.rho: 1}
    assert "elements" not in vars(generate_weyl(e6))
    # the regular orbit's tree is kept on the group; another regular weight
    # replays it
    trees = generate_weyl(e6).orbit_trees
    tree = trees[()]
    assert len(tree.parity) == 51840
    j2 = apply_antisymmetrizer("J_G", TorusElement.monomial(e6, e6.rho.scale(2)))
    assert trees[()] is tree
    assert len(j2.coeffs) == 51840 and sorted(set(j2.coeffs.values())) == [-1, 1]
    assert "elements" not in vars(generate_weyl(e6))


def test_shift_stability_error():
    a1 = build_root_datum("A1")
    bad = TorusElement.monomial(a1, RationalWeight([1], 3))
    # a failing (scope, shift) pair is never remembered
    for _ in range(2):
        with pytest.raises(ShiftNotStable):
            apply_antisymmetrizer("J_G", bad)
        with pytest.raises(ShiftNotStable):
            is_scope_invariant(bad, a1)
    # A2 > levi1 at omega_1 / 3: s_1 moves the class, and s_1 lies in W_H and
    # in W, so J_H and J_M refuse it as J_G does
    p = zoo_problem("A2", "levi1")
    bad = TorusElement.monomial(p.datum, RationalWeight([1, 0], 3))
    for kind in ("J_G", "J_H", "J_M", "J_M_OP"):
        for _ in range(2):
            with pytest.raises(ShiftNotStable):
                apply_antisymmetrizer(kind, bad, p.sub)


def test_weyl_elements_carry_no_instance_dict():
    """A Weyl element is its (matrix, length) pair and nothing else, so the
    cached elements of a group hold no per-element state."""
    w = generate_weyl(build_root_datum("B3"))
    for e in w.elements[:5] + w.inverses[-5:]:
        assert not hasattr(e, "__dict__")
        assert e == WeylElement(e.matrix, e.length) and hash(e) == hash(tuple(e))


def _filtered_cosets(p):
    """Oracle for W^H: filter the whole enumerated group."""
    pos = set(p.datum.positive_roots)
    return [e for e in p.weyl.elements if all(e.apply(a) in pos for a in p.sub.basis_h)]


def _d4_a1_four():
    # D4 > A1^4: the extended Dynkin diagram minus its centre node
    d = build_root_datum("D4")
    gens = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 2, 1, 1)]
    return make_problem(d, subgroup_from_roots(d, [d.root_from_simple_coordinates(g) for g in gens]))


def test_coset_bfs_matches_filter_oracle():
    problems = [p for _, p in zoo_problems()] + [_d4_a1_four()]
    for p in problems:
        oracle = _filtered_cosets(p)
        cosets = p.reps
        assert [(e.matrix, e.length, e.det) for e in cosets.reps] == [
            (e.matrix, e.length, e.det) for e in oracle
        ]
        assert len(cosets.reps) * p.weyl_h.order == len(p.weyl.elements)
        assert len(cosets.inverses) == len(cosets.reps)
        ident = identity(p.datum.rank)
        for e, inv in zip(cosets.reps, cosets.inverses):
            assert matmul(e.matrix, inv.matrix) == ident
            assert inv.length == e.length
    assert len(problems[-1].reps.reps) == 12


def test_e6_problem_does_not_enumerate_w():
    d = build_root_datum("E6")
    gens = [
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1), (1, 2, 2, 3, 2, 1),
    ]
    p = make_problem(d, subgroup_from_roots(d, [d.root_from_simple_coordinates(g) for g in gens]))
    assert p.weyl.order == 51840
    assert p.weyl_h.order == 216
    assert len(p.reps.reps) == 240
    # the elements are a cached property: absent until first read
    assert "elements" not in vars(p.weyl)


def _count_coset_walks(monkeypatch):
    """The W^H walks from now on, one (G scope key, R_H) entry each: the
    descent walk given roots to avoid, which only coset_representatives
    asks for."""
    walks = []
    closure = weyl._closure

    def counting(scope, *avoid):
        if avoid:
            walks.append((scope.scope_key(), avoid[0]))
        return closure(scope, *avoid)

    monkeypatch.setattr(weyl, "_closure", counting)
    return walks


def test_antisymmetrizer_check_searches_each_pair_once(monkeypatch):
    from spinduct.verify import check_antisymmetrizers
    from spinduct.zoo import ZOO_PAIRS

    forget_scopes()
    walks = _count_coset_walks(monkeypatch)
    # every trial applies J_M and J_M_op; a few trials per pair suffice
    assert all(r.passed for r in check_antisymmetrizers(0, trials=3))
    assert len(walks) == len(set(walks)) == len(ZOO_PAIRS)


def test_forgotten_scopes_leave_no_stale_owner(monkeypatch):
    """After forget_scopes a problem holds the very Weyl groups and W^H that
    generate_weyl and coset_representatives return, and each pair's W^H is
    walked once, whether the problem or the cosets are asked for first."""
    from spinduct.zoo import ZOO_PAIRS, parse_group_spec, subgroup_by_name

    walks = _count_coset_walks(monkeypatch)
    for problem_first in (True, False):
        forget_scopes()
        for g, h in ZOO_PAIRS:
            d = parse_group_spec(g)
            sub = subgroup_by_name(d, h)
            reps = None if problem_first else coset_representatives(generate_weyl(d), sub)
            p = make_problem(d, sub)
            assert p.weyl is generate_weyl(d) and p.weyl_h is generate_weyl(sub)
            assert p.reps is coset_representatives(generate_weyl(d), sub)
            assert problem_first or p.reps is reps
    assert len(walks) == 2 * len(set(walks)) == 2 * len(ZOO_PAIRS)


def _simple_reflections(scope):
    """The matrices of the scope's simple reflections, x -> x - <alpha^vee, x>
    alpha, in basis order."""
    rank = scope.datum.rank
    return [
        tuple(tuple(int(r == c) - a[r] * av[c] for c in range(rank)) for r in range(rank))
        for a, av in zip(scope.basis, scope.basis_coroots)
    ]


def _matrix_product_bfs(gens, rank, keep):
    """The enumeration the descent walk replaced, kept as its oracle: a
    breadth-first search from the identity, multiplying by the generator
    matrices on the left and keeping the new matrices `keep` accepts, the inverse
    carried along as (s w)^{-1} = w^{-1} s.  (matrix, inverse, length,
    length) rows sorted by length, then matrix."""
    ident = identity(rank)
    found = {ident: (0, ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            length, inv = found[m]
            for g in gens:
                nm = matmul(g, m)
                if nm not in found and keep(nm):
                    found[nm] = (length + 1, matmul(inv, g))
                    nxt.append(nm)
        frontier = nxt
    rows = [(m, inv, length, length) for m, (length, inv) in found.items()]
    return sorted(rows, key=lambda row: (row[2], row[0]))


def _walked(elements, inverses):
    """The walk's output as oracle rows; every inverse checked by a product."""
    ident = identity(len(elements[0].matrix))
    for e, inv in zip(elements, inverses, strict=True):
        assert matmul(e.matrix, inv.matrix) == ident
    return [(e.matrix, inv.matrix, e.length, inv.length) for e, inv in zip(elements, inverses)]


def _e6_a2_cubed():
    # E6 > A2^3: the extended Dynkin diagram of E6 minus its centre node
    d = build_root_datum("E6")
    gens = [
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1), (1, 2, 2, 3, 2, 1),
    ]
    return make_problem(d, subgroup_from_roots(d, [d.root_from_simple_coordinates(g) for g in gens]))


def _oracle_problems():
    problems = [p for _, p in zoo_problems()]
    return problems + [zoo_problem("B3:root", "so3xso4"), _d4_a1_four(), _e6_a2_cubed()]


def test_descent_walk_matches_matrix_product_bfs_on_cosets():
    """W^H: the same reps, inverses and lengths, in the same order, on every
    zoo pair, B3:root > so3xso4, D4 > A1^4 and E6 > A2^3."""
    for p in _oracle_problems():
        pos = set(p.datum.positive_roots)
        keep = lambda m: all(matvec(m, a) in pos for a in p.sub.basis_h)  # noqa: E731
        oracle = _matrix_product_bfs(_simple_reflections(p.datum), p.datum.rank, keep)
        cosets = coset_representatives(p.weyl, p.sub)
        assert _walked(cosets.reps, cosets.inverses) == oracle, p.datum.cartan_label
    assert len(oracle) == 240


def test_descent_walk_matches_matrix_product_bfs_on_whole_groups():
    for label in ("A1", "A2", "B2", "G2", "B3", "C3", "D4", "F4"):
        w = WeylGroup(build_root_datum(label))
        oracle = _matrix_product_bfs(_simple_reflections(w.scope), w.datum.rank, lambda m: True)
        assert _walked(w.elements, w.inverses) == oracle, label
        assert len(oracle) == w.order


def test_descent_walk_matches_matrix_product_bfs_on_subgroups():
    """W_H is walked over H's own simple and positive roots."""
    subs = [p.sub for p in _oracle_problems()]
    # H = G as a subgroup scope, on G2 and on B3 with the root lattice
    subs += [subgroup_from_roots(d, d.roots) for d in (build_root_datum("G2"), subs[-4].parent)]
    for sub in subs:
        w = WeylGroup(sub)
        oracle = _matrix_product_bfs(_simple_reflections(sub), sub.parent.rank, lambda m: True)
        assert _walked(w.elements, w.inverses) == oracle, sub.key
        assert len(oracle) == w.order


def test_coset_search_over_the_cap_raises_and_stores_nothing(monkeypatch):
    import spinduct.rootdata as rd

    p = _e6_a2_cubed()
    assert len(p.reps.reps) == 240
    # the pair again from nothing; the datum is built under the real cap
    forget_scopes()
    d = build_root_datum("E6")
    sub = subgroup_from_roots(d, p.sub.positive_h)
    walks = _count_coset_walks(monkeypatch)
    monkeypatch.setattr(rd, "WEYL_ORDER_CAP", 239)
    for _ in range(2):
        with pytest.raises(OrderCapExceeded):
            coset_representatives(generate_weyl(d), sub)
    # each refused search walked, and stored nothing for a later call to find
    assert len(walks) == 2
    monkeypatch.setattr(rd, "WEYL_ORDER_CAP", 240)
    reps = coset_representatives(generate_weyl(d), sub)
    assert reps == p.reps and len(walks) == 3
    assert coset_representatives(generate_weyl(d), sub) is reps and len(walks) == 3
    monkeypatch.undo()
    assert rd.WEYL_ORDER_CAP == 1 << 21
