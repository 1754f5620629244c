"""Exact linear algebra over Z: Hermite/Smith normal forms, kernels, solvers.

Matrices are lists/tuples of row tuples of Python ints; everything is
arbitrary precision.  Sizes here are tiny (rank <= 8 plus a few columns),
so the textbook algorithms are used without pivot-growth tricks.
"""

from __future__ import annotations

from operator import mul
from typing import List, Optional, Sequence, Tuple

IntMatrix = Tuple[Tuple[int, ...], ...]


def as_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul shape mismatch")
    cols = list(zip(*b)) if b else []
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a)


def matvec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in a])


def transpose(a: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


def determinant(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination: every division below is exact."""
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            _swap_rows(m, k, piv)
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _swap_rows(m: List[List[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _addmul_row(m: List[List[int]], dst: int, src: int, k: int) -> None:
    if k:
        m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]


def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v) with u*a*v = d diagonal, u and v unimodular.

    Diagonal entries are nonnegative and satisfy d[i] | d[i+1].
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]

    def col_op(dst: int, src: int, k: int) -> None:
        # column operation on d mirrors a row operation on v^T
        if k:
            for row in d:
                row[dst] += k * row[src]
            for row in v:
                row[dst] += k * row[src]

    def col_swap(i: int, j: int) -> None:
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        _swap_rows(d, t, pivot[0])
        _swap_rows(u, t, pivot[0])
        col_swap(t, pivot[1])

        while True:
            # clear column t below the pivot
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    _addmul_row(d, i, t, -q)
                    _addmul_row(u, i, t, -q)
                    if d[i][t]:
                        _swap_rows(d, t, i)
                        _swap_rows(u, t, i)
            if any(d[i][t] for i in range(t + 1, m)):
                continue
            # clear row t right of the pivot
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
            if any(d[t][j] for j in range(t + 1, n)) or any(
                d[i][t] for i in range(t + 1, m)
            ):
                continue
            break
        if d[t][t] < 0:
            for j in range(n):
                d[t][j] = -d[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1

    # enforce the divisibility chain d[i] | d[i+1]
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if d[i + 1][i + 1] % d[i][i]:
                # fold entry i+1 into row/column i and re-diagonalize 2x2 block
                col_op(i, i + 1, 1)
                aa, bb = d[i][i], d[i + 1][i]
                # now column i holds (aa, bb); run gcd elimination
                while bb:
                    q = aa // bb
                    _addmul_row(d, i, i + 1, -q)
                    _addmul_row(u, i, i + 1, -q)
                    _swap_rows(d, i, i + 1)
                    _swap_rows(u, i, i + 1)
                    aa, bb = d[i][i], d[i + 1][i]
                # clear fill-in in row i / row i+1
                q = d[i][i + 1] // d[i][i] if d[i][i] else 0
                col_op(i + 1, i, -q)
                if d[i][i] < 0:
                    for j in range(n):
                        d[i][j] = -d[i][j]
                    for j in range(m):
                        u[i][j] = -u[i][j]
                if d[i + 1][i + 1] < 0:
                    for j in range(n):
                        d[i + 1][j] = -d[i + 1][j]
                    for j in range(m):
                        u[i + 1][j] = -u[i + 1][j]
                changed = True
    return as_matrix(d), as_matrix(u), as_matrix(v)


def solve_integer(
    a: Sequence[Sequence[int]], b: Sequence[int]
) -> Optional[Tuple[int, ...]]:
    """Solve a @ x = b over Z; return one solution or None."""
    m = len(a)
    if m == 0:
        return () if not any(b) else None
    n = len(a[0])
    if len(b) != m:
        raise ValueError("solve_integer shape mismatch")
    if n == 0:
        return () if not any(b) else None
    d, u, v = smith_normal_form(a)
    ub = matvec(u, b)
    y = [0] * n
    for i in range(m):
        di = d[i][i] if i < n else 0
        if di:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i]:
            return None
    return matvec(v, y)


def _snf_rank(d: IntMatrix) -> int:
    """The number of nonzero diagonal entries of a Smith normal form."""
    return sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])


def rank(a: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix (over Q), from its Smith normal form."""
    if not a or not a[0]:
        return 0
    return _snf_rank(smith_normal_form(a)[0])


def kernel_basis(a: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Return columns generating {x : a @ x = 0} over Z."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return ()
    if m == 0:
        return tuple(identity(n))
    d, _, v = smith_normal_form(a)
    cols = []
    for j in range(_snf_rank(d), n):
        cols.append(tuple(v[i][j] for i in range(n)))
    return tuple(cols)


def hermite_column_form(a: Sequence[Sequence[int]]) -> IntMatrix:
    """Column-style Hermite normal form (zero columns dropped).

    Columns of the result generate the same lattice as the columns of `a`.
    The form is in column echelon with positive pivots and entries to the
    right of each pivot reduced into [0, pivot); it is a canonical
    generating set, so re-normalizing is the identity.
    """
    # operate on rows of the transpose
    rows = [list(r) for r in transpose(a)]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivot_row = 0
    for col in range(n):
        if pivot_row >= m:
            break
        # gcd elimination in this column among rows >= pivot_row
        while True:
            nz = [i for i in range(pivot_row, m) if rows[i][col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = rows[i][col] // rows[i0][col]
                _addmul_row(rows, i, i0, -q)
        nz = [i for i in range(pivot_row, m) if rows[i][col]]
        if not nz:
            continue
        _swap_rows(rows, pivot_row, nz[0])
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-x for x in rows[pivot_row]]
        p = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // p  # floor reduces into [0, p)
            _addmul_row(rows, i, pivot_row, -q)
        pivot_row += 1
    kept = [r for r in rows[:pivot_row]]
    return transpose(kept)


def lattice_contains(gens: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Whether v lies in the lattice spanned by the columns of gens."""
    if not any(v):
        return True
    if not gens or not gens[0]:
        return False
    return solve_integer(gens, v) is not None


def reduce_mod_lattice(
    v: Sequence[int], gens: Sequence[Sequence[int]]
) -> Tuple[int, ...]:
    """Canonical representative of v modulo the column lattice of gens.

    Uses the Hermite column form and reduces against each pivot in turn;
    the output is deterministic and depends only on v + lattice.
    """
    if not gens or not gens[0]:
        return tuple(int(x) for x in v)
    h = hermite_column_form(gens)
    out = [int(x) for x in v]
    cols = transpose(h)
    for col in cols:
        # pivot = first nonzero entry of this column (echelon structure)
        pi = next(i for i, x in enumerate(col) if x)
        q = out[pi] // col[pi]
        if q:
            for i in range(len(out)):
                out[i] -= q * col[i]
    return tuple(out)
