import itertools
import random

from spinduct.intlinalg import (
    determinant,
    hermite_column_form,
    kernel_basis,
    lattice_contains,
    matmul,
    matvec,
    rank,
    reduce_mod_lattice,
    smith_normal_form,
    solve_integer,
    transpose,
)


def random_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_determinant_against_leibniz():
    def leibniz(a):
        n = len(a)
        total = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            term = (-1) ** inversions
            for i in range(n):
                term *= a[i][perm[i]]
            total += term
        return total

    rng = random.Random(11)
    assert determinant([]) == 1
    for _ in range(300):
        n = rng.randint(1, 5)
        # small entries with many zeros exercise the pivot swaps
        a = random_matrix(rng, n, n, -2, 2)
        assert determinant(a) == leibniz(a)
        b = random_matrix(rng, n, n, -2, 2)
        assert determinant(matmul(a, b)) == determinant(a) * determinant(b)


def test_smith_normal_form_properties():
    rng = random.Random(0)
    for _ in range(250):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        d, u, v = smith_normal_form(a)
        assert matmul(u, matmul(a, v)) == d
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            if x:
                assert y % x == 0
            else:
                assert y == 0


def test_solve_integer_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = matvec(a, x)
        s = solve_integer(a, b)
        assert s is not None
        assert matvec(a, s) == tuple(b)


def test_solve_integer_unsolvable():
    assert solve_integer([[2]], [1]) is None
    assert solve_integer([[2, 0], [0, 2]], [1, 0]) is None
    assert solve_integer([[0]], [3]) is None


def test_kernel_basis():
    rng = random.Random(2)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        for col in kernel_basis(a):
            assert matvec(a, col) == tuple([0] * m)
    # full kernel of the zero map
    assert len(kernel_basis([[0, 0]])) == 2


def test_hermite_idempotent_and_membership():
    rng = random.Random(3)
    for _ in range(150):
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        gens = random_matrix(rng, m, k)
        h = hermite_column_form(gens)
        if h and h[0]:
            assert hermite_column_form(h) == h
        for j in range(k):
            col = [gens[i][j] for i in range(m)]
            if any(col):
                assert lattice_contains(h, col)


def test_reduce_mod_lattice_well_defined():
    rng = random.Random(4)
    for _ in range(150):
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        gens = random_matrix(rng, m, k)
        v = [rng.randint(-9, 9) for _ in range(m)]
        w = list(v)
        for j in range(k):
            c = rng.randint(-3, 3)
            for i in range(m):
                w[i] += c * gens[i][j]
        assert reduce_mod_lattice(v, gens) == reduce_mod_lattice(w, gens)


def test_transpose_empty():
    assert transpose([]) == ()


def test_rank_matches_fraction_elimination():
    from fractions import Fraction

    def rank_over_q(rows):
        rows = [[Fraction(x) for x in r] for r in rows]
        r = 0
        for j in range(len(rows[0]) if rows else 0):
            piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(len(rows)):
                if i != r and rows[i][j]:
                    f = rows[i][j] / rows[r][j]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            r += 1
        return r

    rng = random.Random(5)
    assert rank([]) == 0 and rank([[]]) == 0 and rank([[0, 0], [0, 0]]) == 0
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n, -2, 2)
        if rng.random() < 0.3:
            a.append([x + y for x, y in zip(a[0], a[-1])])
        assert rank(a) == rank_over_q(a)
