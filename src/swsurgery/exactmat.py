"""Exact linear algebra over the integers and rationals.

Matrices are row-major tuples of tuples. Everything is pure, deterministic,
and floating-point free.  Determinants and inverses come from one
fraction-free elimination, ``bareiss_adjugate``, which returns the
determinant and the integer adjugate; callers build a ``fractions.Fraction``
only where a rational entry is output (linear plumbing chains take theirs
from continuants instead, see ``plumbing``).  Ranks, kernels and row spans
come from one integer echelon, ``row_echelon_unimodular``; ``kernel_rows``
serves ``lattice.orthogonal_complement``, the one orthogonal complement, and
the radical of a degenerate form.  Signatures come from ``inertia``, the
symmetric form of the same fraction-free elimination.
"""

from __future__ import annotations

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


def is_symmetric(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


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


def inertia(gram) -> tuple[int, int, int]:
    """(b+, b-, nullity) of a symmetric integer matrix.

    Fraction-free symmetric elimination: a pivot d turns each remaining entry
    into (d * m[r][c] - m[r][i] * m[i][c]) / prev, the division exact as in
    ``bareiss_adjugate``.  After a negative pivot the remaining block is
    negated and prev = |d|.  If the whole remaining diagonal vanishes, adding
    row and column b to row and column a makes the pivot 2 * m[a][b]; that
    changes the basis only among the vectors not yet eliminated, so the
    divisions stay exact.  Each step is a congruence times a positive scalar,
    so by Sylvester's law the inertia is kept; the block left all zero at the
    end is the radical.
    """
    m = [[int(x) for x in row] for row in gram]
    signs = []
    prev = 1
    while m:
        n = len(m)
        i = next((k for k in range(n) if m[k][k]), None)
        if i is None:
            off = next(((a, b) for a in range(n) for b in range(a + 1, n) if m[a][b]), None)
            if off is None:
                break  # the remaining block is identically zero
            i, b = off
            m[i] = [x + y for x, y in zip(m[i], m[b])]
            for row in m:
                row[i] += row[b]
        pivot_row = m.pop(i)
        d = pivot_row.pop(i)
        sign = 1 if d > 0 else -1
        column = [row.pop(i) for row in m]
        m = [[sign * (d * x - f * y) // prev for x, y in zip(row, pivot_row)]
             for row, f in zip(m, column)]
        signs.append(sign)
        prev = abs(d)
    return signs.count(1), signs.count(-1), len(m)


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
    """Hermite normal form of the integer row span of ``rows``: positive pivots,
    each entry above a pivot in [0, pivot), one basis for every generating set.
    Taken top down, each pivot row is zero in the earlier pivot columns."""
    ech, _ = row_echelon_unimodular(rows)
    basis = [list(r) for r in ech if any(x != 0 for x in r)]
    for idx, row in enumerate(basis):
        c = next(j for j, x in enumerate(row) if x != 0)
        if row[c] < 0:
            basis[idx] = row = [-x for x in row]
        for above in range(idx):
            q = basis[above][c] // row[c]
            if q:
                basis[above] = [x - q * y for x, y in zip(basis[above], row)]
    return freeze(basis)
