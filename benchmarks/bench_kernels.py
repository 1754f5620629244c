#!/usr/bin/env python3
"""Time the kernels alone.

Workloads mirror the hot paths of the verification suite on the largest
zoo datum (F4 with its rank-4 subgroup), including the decomposition of
an F4 J_G output against the filter-and-rebuild form it replaced, time
the subgroup closure of F4 > B4 and E6 > A2xA2xA2, time the descent walks
for W^H of E6 > A2xA2xA2 and for the whole of W(F4), then compare the
one-pass GKRS multiplet with the per-member algorithm on E6 > A2xA2xA2.
Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import random
import time

from spinduct import kernels
from spinduct.charring import (
    TorusElement,
    anti_invariant_decompose,
    irreducible_restriction,
    weyl_denominator,
)
from spinduct.errors import NotAntiInvariant
from spinduct.induction import collect_to_chamber, make_problem
from spinduct.multiplets import multiplet
from spinduct.rootdata import (
    RationalWeight,
    _subgroup_closure,
    build_root_datum,
    dot,
    subgroup_from_roots,
)
from spinduct.weyl import (
    antisymmetrize,
    apply_weyl_sum,
    coset_representatives,
    generate_weyl,
)
from spinduct.zoo import zoo_problem


def timed(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench(name, fn, repeat=3):
    t, _ = timed(fn, repeat)
    print(f"{name:24s}      {t*1e3:9.2f} ms")


def main():
    rng = random.Random(0)
    f4 = build_root_datum("F4")
    p = zoo_problem("F4", "b4")
    w = generate_weyl(f4)
    mats = [e.matrix for e in w.elements]
    dets = [e.det for e in w.elements]
    shifts = [(0, 0, 0, 0)] * len(mats)

    d_g = dict(weyl_denominator(f4).coeffs)
    chi = dict(irreducible_restriction(f4, RationalWeight([0, 0, 0, 1])).coeffs)
    support = {
        tuple(rng.randint(-3, 3) for _ in range(4)): rng.randint(-9, 9) or 1
        for _ in range(12)
    }
    d_h = dict(weyl_denominator(p.sub).coeffs)
    collect_input = kernels.convolve(d_h, support)
    # a chamber walk takes at most |R^+| steps
    cap = len(f4.positive_roots)
    doms = [
        (tuple(rng.randint(0, 3) for _ in range(4)), rng.randint(1, 4))
        for _ in range(8)
    ]

    print(f"workloads on F4 (|W| = {w.order}, |W_H| = {p.weyl_h.order})\n")
    bench("convolve d_G * chi_26", lambda: kernels.convolve(d_g, chi))
    bench("weyl_sum J_G, 12 terms", lambda: kernels.weyl_sum(mats, dets, shifts, support))
    bench(
        "dominant_collect d_H*a",
        lambda: kernels.dominant_collect(collect_input, f4.simple_roots, f4.simple_coroots, cap),
    )
    # orbits along the tree table: cold walks the first weight of each
    # stabilizer type and records its tree, warm replays every orbit
    t_cold, out_cold = timed(lambda: kernels.orbit_expand(doms, f4.simple_roots, f4.simple_coroots, {}))
    trees = {}
    kernels.orbit_expand(doms, f4.simple_roots, f4.simple_coroots, trees)
    t_warm, out_warm = timed(
        lambda: kernels.orbit_expand(doms, f4.simple_roots, f4.simple_coroots, trees)
    )
    assert out_cold == out_warm
    print(
        f"{'orbit by tree':24s} cold {t_cold*1e3:9.2f} ms   warm {t_warm*1e3:9.2f} ms"
        f"   ({len(trees)} trees)"
    )

    # J_G as the matrix sum over the enumerated W, against chamber collection
    # and signed orbits, with no W
    zero = RationalWeight.zero(4)
    t_sum, out_sum = timed(lambda: apply_weyl_sum(w.elements, dets, zero, support))
    print(f"{'apply_weyl_sum J_G':24s}      {t_sum*1e3:9.2f} ms")
    t_orbit, out_orbit = timed(lambda: antisymmetrize(f4, zero, support))
    assert out_orbit == out_sum
    print(f"{'J_G by signed orbits':24s}      {t_orbit*1e3:9.2f} ms")
    # J(e^nu) for regular nu along the regular tree: node by node, and packed
    # from the tree's 16-bit table (built once, timed apart)
    regular = [(tuple(rng.randint(1, 4) for _ in range(4)), rng.randint(1, 4)) for _ in range(8)]
    basis, coroots = f4.simple_roots, f4.simple_coroots
    trees = {}
    kernels.signed_orbit(regular[:1], basis, coroots, trees)
    t_build, packed = timed(lambda: kernels.pack_orbit(trees[()], basis, coroots, 4))
    assert packed is not None
    t_node, out_node = timed(lambda: kernels.signed_orbit(regular, basis, coroots, trees))
    t_packed, out_packed = timed(
        lambda: kernels.signed_orbit(regular, basis, coroots, trees, packed)
    )
    assert list(out_packed.items()) == list(out_node.items())
    print(
        f"J(e^nu) F4 packed vs node: node by node {t_node*1e3:.2f} ms, packed {t_packed*1e3:.2f} ms"
        f" (8 orbits; table {t_build*1e3:.2f} ms)"
    )
    # the decomposition of J_G of the seeded terms above: one filter per
    # simple coroot over every monomial and a rebuild, against one walk and
    # one packed replay per orbit
    ja = TorusElement(f4, zero, antisymmetrize(f4, zero, {**support, **dict(regular)}))
    t_filter, dec_filter = timed(lambda: filter_then_rebuild(ja))
    t_peel, dec_peel = timed(lambda: anti_invariant_decompose(ja))
    assert list(dec_peel.items()) == list(dec_filter.items())
    print(
        f"anti_invariant_decompose F4: filter and rebuild {t_filter*1e3:.2f} ms,"
        f" orbit by orbit {t_peel*1e3:.2f} ms ({len(dec_peel)} orbits, {len(ja.coeffs)} terms)"
    )
    bench_subgroup_closure()
    bench_weyl_walks()
    bench_e6_multiplet()


def filter_then_rebuild(a):
    """anti_invariant_decompose before it peeled orbits: read each c_lam off
    the strictly dominant monomials, rebuild sum c_lam J(e^lam) and compare."""
    strict = list(a.coeffs)
    for cv in a.datum.basis_coroots:
        strict = [k for k in strict if dot(cv, k) > 0]
    key_coeffs = {k: a.coeffs[k] for k in sorted(strict)}
    if antisymmetrize(a.datum, a.shift, key_coeffs) != a.coeffs:
        raise NotAntiInvariant("element is not in the span of J(e^lambda)")
    return {a.weight_of(k): c for k, c in key_coeffs.items()}


# E6 > A2xA2xA2: the extended Dynkin diagram of E6 minus its centre
E6_A2_CUBED = ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
               (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1), (1, 2, 2, 3, 2, 1))
# F4 > B4, the zoo's preset
F4_B4 = ((0, 1, 2, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def bench_subgroup_closure():
    """Each closure cold: the subgroup cache is cleared before every call,
    the root datum stays built."""
    parts = []
    for label, coords, size in (("F4 > B4", F4_B4, 32), ("E6 > A2^3", E6_A2_CUBED, 18)):
        d = build_root_datum(label.split()[0])
        gens = [d.root_from_simple_coordinates(sc) for sc in coords]

        def cold():
            _subgroup_closure.cache_clear()
            return subgroup_from_roots(d, gens)

        t, sub = timed(cold)
        assert len(sub.roots_h) == size, (label, len(sub.roots_h))
        parts.append(f"{label} {t*1e3:.2f} ms ({size} roots)")
    print(f"{'subgroup closure':24s} cold " + ", ".join(parts))


def bench_weyl_walks():
    """Each walk cold: its cache is cleared before every call, the root data
    and the subgroup stay built."""
    e6 = build_root_datum("E6")
    sub = subgroup_from_roots(e6, [e6.root_from_simple_coordinates(sc) for sc in E6_A2_CUBED])
    w = generate_weyl(e6)

    def cosets():
        coset_representatives.cache_clear()
        return coset_representatives(w, sub).reps

    f4 = build_root_datum("F4")

    def whole():
        generate_weyl.cache_clear()
        return generate_weyl(f4).elements

    for name, fn, size in (("coset search E6 > A2xA2xA2", cosets, 240), ("Weyl group F4", whole, 1152)):
        t, out = timed(fn)
        assert len(out) == size, (name, len(out))
        print(f"{name:24s} cold {t*1e3:9.2f} ms ({size} elements)")


def per_member_multiplet(p, a, inverses):
    """The multiplet member by member: w^{-1}(a) by apply_weyl_sum, then the
    H-side collect_to_chamber for each representative."""
    return tuple(
        collect_to_chamber(p.sub, a.replace_coeffs(apply_weyl_sum([inv], [1], a.shift, a.coeffs)))
        for inv in inverses
    )


def bench_e6_multiplet():
    """Cold is the first call of each algorithm in the process (the one pass
    runs first and checks the twist); warm is the best of three later calls."""
    e6 = build_root_datum("E6")
    p = make_problem(e6, subgroup_from_roots(
        e6, [e6.root_from_simple_coordinates(sc) for sc in E6_A2_CUBED]))
    a = TorusElement.monomial(e6, e6.rho + RationalWeight([1, 0, 1, 0, 0, 1]))
    t0 = time.perf_counter()
    one_pass = multiplet(p, a).members
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle = per_member_multiplet(p, a, p.reps.inverses)
    o_cold = time.perf_counter() - t0
    assert one_pass == oracle, "one pass and per-member multiplets disagree"
    t_warm, warm = timed(lambda: multiplet(p, a).members)
    o_warm, owarm = timed(lambda: per_member_multiplet(p, a, p.reps.inverses))
    assert warm == owarm == one_pass
    print(f"\nE6 > A2^3, |W^H| = {len(p.reps.reps)}")
    print(
        f"{'E6 multiplet':24s} per-member cold {o_cold*1e3:7.2f} ms  warm {o_warm*1e3:7.2f} ms"
        f"   one pass cold {t_cold*1e3:7.2f} ms  warm {t_warm*1e3:7.2f} ms"
    )


if __name__ == "__main__":
    main()
