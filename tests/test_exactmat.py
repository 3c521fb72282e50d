import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsurgery import exactmat
from swsurgery.exactmat import (
    SingularMatrixError,
    bareiss_adjugate,
    hnf_row_basis,
    inertia,
    kernel_rows,
    identity,
    matmul,
    transpose,
)

from .oracles import fraction_det, random_unimodular, symmetric_diagonalize


def _det(m):
    """The determinant from ``bareiss_adjugate``, 0 where it finds m singular."""
    try:
        return bareiss_adjugate(m)[0]
    except SingularMatrixError:
        return 0


def test_bareiss_small_cases():
    assert _det(((2,),)) == 2
    assert _det(((1, 2), (3, 4))) == -2
    assert _det(((0, 1), (1, 0))) == -1
    assert _det(((1, 1), (1, 1))) == 0
    assert _det(()) == 1


def test_bareiss_multiplicative_random():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        u = random_unimodular(rng, n)
        assert _det(matmul(u, a)) == _det(u) * _det(a) == fraction_det(matmul(u, a))
        assert _det(u) in (1, -1)


def test_bareiss_adjugate_inverse_and_singular():
    m = ((2, 1), (1, 1))
    det, adj = bareiss_adjugate(m)
    assert (det, adj) == (1, ((1, -1), (-1, 2)))
    inv = tuple(tuple(Fraction(x, det) for x in row) for row in adj)
    assert matmul(m, inv) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    # a zero leading pivot forces a row swap, which flips the sign back
    assert bareiss_adjugate(((0, 1), (1, 0))) == (-1, ((0, -1), (-1, 0)))
    assert bareiss_adjugate(()) == (1, ())
    with pytest.raises(SingularMatrixError):
        bareiss_adjugate(((1, 1), (1, 1)))


def test_bareiss_adjugate_random_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    nonsingular = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        # sparse entries make zero pivots, and so row swaps, common
        m = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        det = int(sympy.Matrix(m).det())
        if det == 0:
            with pytest.raises(SingularMatrixError):
                bareiss_adjugate(m)
            continue
        nonsingular += 1
        d, adj = bareiss_adjugate(m)
        assert abs(d) == abs(det)
        assert matmul(m, adj) == tuple(tuple(d * x for x in row) for row in identity(n))
    assert nonsingular > 150


def test_kernel_rows_saturated():
    # kernel of (2, 4) is generated by the primitive vector (2, -1)
    rows = kernel_rows(((2, 4),))
    assert len(rows) == 1
    assert sorted(map(abs, rows[0])) == [1, 2]
    a = ((1, 1, 1), (0, 1, 2))
    rows = kernel_rows(a)
    assert len(rows) == 1
    x = rows[0]
    assert all(sum(r[i] * x[i] for i in range(3)) == 0 for r in a)
    assert max(map(abs, x)) == 2  # (1, -2, 1) up to sign


def test_kernel_full_and_empty():
    assert kernel_rows(((1, 0), (0, 1))) == ()
    rows = kernel_rows(((0, 0),))
    assert len(rows) == 2


def test_hnf_row_basis_canonical():
    basis = hnf_row_basis(((2, 4), (0, 6), (2, 10)))
    assert basis == ((2, 4), (0, 6))
    # order of generators does not change the canonical basis
    assert hnf_row_basis(((2, 10), (2, 4), (0, 6))) == basis


def _random_rows(rng, k, n):
    return [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]


def test_hnf_row_basis_same_for_two_generating_sets():
    rng = random.Random(29)
    for _ in range(400):
        k, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = _random_rows(rng, k, n)
        # the same lattice: a unimodular change of the generators, plus two
        # integer combinations of them, in a random order
        others = [list(row) for row in matmul(random_unimodular(rng, k), rows)]
        for _ in range(2):
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
            others.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
        rng.shuffle(others)
        assert hnf_row_basis(others) == hnf_row_basis(rows)


def test_hnf_row_basis_is_reduced_above_pivots():
    rng = random.Random(31)
    for _ in range(400):
        basis = hnf_row_basis(_random_rows(rng, rng.randint(1, 5), rng.randint(1, 5)))
        pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
        assert pivots == sorted(set(pivots))
        for idx, c in enumerate(pivots):
            assert basis[idx][c] > 0
            assert all(0 <= basis[above][c] < basis[idx][c] for above in range(idx))


def test_hnf_row_basis_matches_sympy_smith_invariants():
    # an independent oracle: the basis is as many independent rows as the
    # rank of the generators, and it spans their lattice, since it has their
    # nonzero Smith invariants and adding it to them adds none
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    def invariants(rows):
        return tuple(x for x in invariant_factors(Matrix(rows), domain=ZZ) if x)

    rng = random.Random(37)
    for _ in range(150):
        k, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_rows(rng, k, n)
        if rng.random() < 0.3:  # rank deficient, with a common factor
            rows.append([2 * sum(x) for x in zip(*rows)])
        basis = hnf_row_basis(rows)
        rank = Matrix(rows).rank()
        assert len(basis) == rank
        if rank:
            assert Matrix(basis).rank() == rank
            assert invariants(basis) == invariants(rows) == invariants(rows + [list(b) for b in basis])


def test_symmetric_diagonalize_congruence():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
        diag, p = symmetric_diagonalize(g)
        check = matmul(matmul(p, g), transpose(p))
        for i in range(n):
            for j in range(n):
                assert check[i][j] == (diag[i] if i == j else 0)


def test_symmetric_diagonalize_radical():
    diag, p = symmetric_diagonalize(((0, 0), (0, 1)))
    zero_positions = [i for i, d in enumerate(diag) if d == 0]
    assert len(zero_positions) == 1
    radical = p[zero_positions[0]]
    assert any(radical)
    assert all(sum(radical[k] * ((0, 0), (0, 1))[k][j] for k in range(2)) == 0 for j in range(2))


def _oracle_inertia(gram):
    diag, _ = symmetric_diagonalize(gram)
    return (sum(1 for d in diag if d > 0), sum(1 for d in diag if d < 0),
            sum(1 for d in diag if d == 0))


@st.composite
def symmetric_matrices(draw):
    """A random symmetric integer matrix of size 0-9: entries drawn directly,
    with an all-zero diagonal in a third of them (so the first pivot is
    manufactured from an off-diagonal entry), or A D A^T for an n x k matrix
    A with k <= n and a diagonal D that may hold zeros, which makes
    degenerate forms common."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(("entries", "zero diagonal", "A D A^T")))
    if kind == "A D A^T":
        k = draw(st.integers(0, n))
        a = [draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)) for _ in range(n)]
        d = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        return tuple(tuple(sum(x * dk * y for x, dk, y in zip(u, d, v)) for v in a) for u in a)
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -7))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if kind == "zero diagonal" else i, n):
            gram[i][j] = gram[j][i] = draw(entries)
    return tuple(map(tuple, gram))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(symmetric_matrices())
def test_inertia_matches_rational_diagonalization(gram):
    assert inertia(gram) == _oracle_inertia(gram)


def test_inertia_small_cases():
    assert inertia(()) == (0, 0, 0)
    assert inertia(((0, 0), (0, 0))) == (0, 0, 2)
    # all-zero diagonals: the hyperbolic plane, alone and beside a radical
    assert inertia(((0, 1), (1, 0))) == (1, 1, 0)
    assert inertia(((0, 1, 0), (1, 0, 0), (0, 0, 0))) == (1, 1, 1)
    # E(1) = <1> + 9<-1> and the C_3 chain (-5, -2)
    assert inertia(tuple(tuple((1 if i == 0 else -1) * (i == j) for j in range(10))
                         for i in range(10))) == (1, 9, 0)
    assert inertia(((-5, 1), (1, -2))) == (0, 2, 0)


def test_exactmat_works_in_the_integers_only():
    assert "Fraction" not in vars(exactmat)
    assert "fractions" not in vars(exactmat)
