"""Exact linear algebra over the integers and rationals.

Matrices are row-major tuples of tuples. Everything is pure, deterministic,
and floating-point free.  Inverses stay in ``int``: ``bareiss_adjugate``
returns the determinant and the integer adjugate, and callers build a
``fractions.Fraction`` only where a rational entry is output (linear
plumbing chains skip elimination altogether and take their adjugate from
continuants, see ``plumbing``).  Ranks, kernels and row spans come from
one integer echelon, ``row_echelon_unimodular``.  Only the signature
routine ``symmetric_diagonalize`` works over ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence


class SingularMatrixError(ValueError):
    """Raised when an inverse or exact solve hits a singular matrix."""


def freeze(rows) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m) -> tuple[tuple, ...]:
    return tuple(zip(*m)) if m else ()


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def matmul(a, b) -> tuple[tuple, ...]:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(m, v) -> tuple:
    return tuple(dot(row, v) for row in m)


def vec_mat(v, m) -> tuple:
    return tuple(dot(v, col) for col in transpose(m))


def is_symmetric(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


def bareiss_det(m) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def bareiss_adjugate(m) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Determinant and adjugate of an integer matrix: ``m * adj == det * I``.

    Fraction-free Gauss-Jordan on [m | I]: after the step on column k every
    entry is a (k+1)-minor of the augmented matrix, so each division by the
    previous pivot is exact.  The left block ends as the last pivot times I
    and the right block as the matching multiple of the inverse.  Raises
    SingularMatrixError when m is singular.
    """
    n = len(m)
    a = [[int(x) for x in row] + list(e) for row, e in zip(m, identity(n))]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                raise SingularMatrixError(f"singular at column {k}")
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    # the last pivot is the determinant of the row-swapped matrix
    return sign * prev, freeze([sign * x for x in row[n:]] for row in a)


def symmetric_diagonalize(gram):
    """Congruence-diagonalize a symmetric rational matrix.

    Returns (diag, p) with p * gram * p^T diagonal and diag its diagonal.
    Pivoting rule: first nonzero diagonal entry; if the whole remaining
    diagonal vanishes, a row+column addition manufactures one.  Rows of p
    past the last pivot are radical vectors when zeros remain on diag.
    """
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    p = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        p[i], p[j] = p[j], p[i]

    def add_rowcol(dst, src, f):
        m[dst] = [x + f * y for x, y in zip(m[dst], m[src])]
        for row in m:
            row[dst] += f * row[src]
        p[dst] = [x + f * y for x, y in zip(p[dst], p[src])]

    for i in range(n):
        if m[i][i] == 0:
            k = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if k is not None:
                swap(i, k)
            else:
                off = next(
                    ((a, b) for a in range(i, n) for b in range(a + 1, n) if m[a][b] != 0),
                    None,
                )
                if off is None:
                    break  # remaining block is identically zero
                a, b = off
                add_rowcol(a, b, Fraction(1))
                if a != i:
                    swap(i, a)
        piv = m[i][i]
        for j in range(i + 1, n):
            if m[j][i]:
                add_rowcol(j, i, -m[j][i] / piv)
    return tuple(m[i][i] for i in range(n)), freeze(p)


def row_echelon_unimodular(rows):
    """Integer row echelon form via unimodular row operations.

    Returns (echelon, u) with u * rows == echelon and det(u) = +-1.
    """
    a = [list(map(int, r)) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if a[i][c] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: (abs(a[i][c]), i))
            if best != r:
                a[r], a[best] = a[best], a[r]
                u[r], u[best] = u[best], u[r]
            piv = a[r][c]
            finished = True
            for i in range(r + 1, nrows):
                if a[i][c]:
                    q = a[i][c] // piv
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if a[i][c]:
                        finished = False
            if finished:
                break
        if a[r][c] != 0:
            r += 1
    return freeze(a), freeze(u)


def kernel_rows(a) -> tuple[tuple[int, ...], ...]:
    """Basis of {x in Z^n : a . x = 0} for an integer matrix a (m x n rows).

    The returned rows span a saturated sublattice (unimodular reduction), in
    a deterministic order.
    """
    if not a:
        return ()
    b = transpose(a)
    ech, u = row_echelon_unimodular(b)
    return tuple(u[i] for i in range(len(ech)) if all(x == 0 for x in ech[i]))


def hnf_row_basis(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical basis (Hermite-style) of the integer row span of ``rows``."""
    ech, _ = row_echelon_unimodular(rows)
    basis = [list(r) for r in ech if any(x != 0 for x in r)]
    # normalize: positive pivots, entries above a pivot reduced mod the pivot
    pivots = []
    for row in basis:
        c = next(j for j, x in enumerate(row) if x != 0)
        pivots.append(c)
    for idx, row in enumerate(basis):
        if row[pivots[idx]] < 0:
            basis[idx] = [-x for x in row]
    for idx in range(len(basis) - 1, -1, -1):
        c = pivots[idx]
        piv = basis[idx][c]
        for above in range(idx):
            q = basis[above][c] // piv
            if q:
                basis[above] = [x - q * y for x, y in zip(basis[above], basis[idx])]
    return freeze(basis)
