"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own code paths: pairings by explicit
double loops, signatures by Jacobi's leading-minor rule over determinants by
plain ``Fraction`` elimination, inertia by rational congruence
diagonalization, chain determinants by the tridiagonal
recurrence, linear solves by one ``Fraction`` Gauss-Jordan pass, lens-space
boundaries by evaluating the continued fraction, characteristic vectors
mod 2 by trying every 0/1 vector, twist words one letter at a time, the
blowup-pair test by squaring every difference, SW table lookups by a linear
scan, the formal dimension and chamber invariant with the characteristic
test always run and every pairing a double loop, report values by recursing
into every item, products in s^2 term by term, and the knot-surgery
quotient by sympy polynomial division.
"""

from fractions import Fraction
from itertools import islice, permutations, product
from math import gcd

from swsurgery.exactmat import freeze
from swsurgery.lattice import signature_and_betti
from swsurgery.manifold import MinimalityVerdict, NonCharacteristicError, OnWallError


def naive_pair(gram, x, y):
    total = 0
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            total += xi * gram[i][j] * yj
    return total


def naive_is_characteristic(gram, k):
    """k . e_i == e_i . e_i mod 2 for every basis vector, by full rows."""
    n = len(k)
    return all((sum(gram[i][j] * k[j] for j in range(n)) - gram[i][i]) % 2 == 0 for i in range(n))


def characteristic_mod2(gram):
    """Every characteristic vector with entries 0 and 1, by trying all 2^n."""
    return [k for k in product((0, 1), repeat=len(gram)) if naive_is_characteristic(gram, k)]


WORD_GENERATORS = {"a": (1, 1, 0, 1), "b": (1, 0, -1, 1), "A": (1, -1, 0, 1), "B": (1, 0, 1, 1)}


def naive_word_matrix(letters):
    """Product of the generator matrices, one letter at a time, as (a, b, c, d)."""
    a, b, c, d = 1, 0, 0, 1
    for x in letters:
        p, q, r, s = WORD_GENERATORS[x]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return a, b, c, d


def squaring_power(m, n):
    """m^n for the entries (a, b, c, d) of a det-1 matrix, by repeated
    squaring; a negative n powers the inverse."""
    a, b, c, d = m if n >= 0 else (m[3], -m[1], -m[2], m[0])
    result, base, n = (1, 0, 0, 1), (a, b, c, d), abs(n)

    def times(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    while n:
        if n & 1:
            result = times(result, base)
        base = times(base, base)
        n >>= 1
    return result


def naive_parabolic_width(m):
    """gcd of the entries of m - id for trace-2 non-identity m, else None."""
    a, b, c, d = m
    if a + d != 2 or m == (1, 0, 0, 1):
        return None
    return gcd(gcd(abs(a - 1), abs(b)), gcd(abs(c), abs(d - 1)))


def pairwise_minimality(model):
    """Blowup-pair verdict by the pairwise rule: over i < j, a pair has equal
    magnitudes and (k1 - k2)^2 == -4, squared by the naive double loop."""
    gram = model.lattice.gram
    entries = model.sw.entries
    high = {c for c, v in entries if abs(v) >= 2}
    if not high:
        return MinimalityVerdict("inconclusive")
    pairs = []
    for i, (c1, v1) in enumerate(entries):
        for c2, v2 in entries[i + 1:]:
            diff = [x - y for x, y in zip(c1, c2)]
            if abs(v1) == abs(v2) and naive_pair(gram, diff, diff) == -4:
                pairs.append((c1, c2))
    paired = {c for p in pairs for c in p}
    high_pairs = [p for p in pairs if p[0] in high and p[1] in high]
    if not high_pairs:
        return MinimalityVerdict("minimal_certified")
    if high <= paired:
        c1, c2 = high_pairs[0]
        diff = [x - y for x, y in zip(c1, c2)]
        return MinimalityVerdict("blowup_pair_found", (c1, c2), naive_pair(gram, diff, diff) // 4)
    return MinimalityVerdict("inconclusive")


def _same_form(a, b):
    return (a.basis, a.gram) == (b.basis, b.gram)


def naive_value(table, k):
    """``SWTable.value`` by a linear scan of the entries."""
    if not _same_form(k.lattice, table.lattice):
        raise ValueError("class does not live in the table's lattice")
    for coords, v in table.entries:
        if coords == k.coords:
            return v
    return 0


def naive_dimension(model, k):
    """``dimension`` with the characteristic test run on every class and
    k^2 by the double loop."""
    if not _same_form(k.lattice, model.lattice):
        raise ValueError("class does not live in the model lattice")
    gram = model.lattice.gram
    if not naive_is_characteristic(gram, k.coords):
        raise NonCharacteristicError(f"{k.coords} is not characteristic in {model.name!r}")
    return (naive_pair(gram, k.coords, k.coords) - 3 * model.sign - 2 * model.euler) // 4


def naive_chamber_sw(model, k, chamber):
    """``chamber_sw`` with the same checks in the same order, h.k and H.k by
    the double loop and the table value by ``naive_value``."""
    b_plus, _ = signature_and_betti(model.lattice)
    if b_plus != 1:
        raise ValueError(f"chamber invariants require b+ = 1, got b+ = {b_plus}")
    if chamber.model != model:
        raise ValueError("chamber belongs to a different model")
    d = naive_dimension(model, k)
    if d < 0 or d % 2:
        raise ValueError(f"wall crossing needs d(k) >= 0 and even, got {d}")
    gram = model.lattice.gram
    hk = naive_pair(gram, dict(model.marked)["h"], k.coords)
    Hk = naive_pair(gram, chamber.period.coords, k.coords)
    if Hk == 0:
        raise OnWallError(f"period class lies on the wall of {k.coords}")
    if hk == 0:
        raise OnWallError("the reference class h lies on the wall of this class")
    base = naive_value(model.sw, k)
    if (Hk > 0) == (hk > 0):
        return base
    jump = -1 if d % 4 == 0 else 1  # (-1)^(1 + d/2)
    return base + (jump if Hk > 0 else -jump)


def minors_signature(gram):
    """(b+, b-) via Jacobi's rule: with all leading principal minors nonzero,
    the negative index is the number of sign changes along 1, m1, ..., mn.
    Tries basis permutations until the minors are all nonzero."""
    n = len(gram)
    for perm in islice(permutations(range(n)), 50000):
        m = [[gram[i][j] for j in perm] for i in perm]
        minors = [fraction_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        if all(minors):
            seq = [1] + minors
            neg = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
            return (n - neg, neg)
    raise AssertionError("no permutation with nonvanishing leading minors found")


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


def chain_determinant_recurrence(p):
    """det of the order-p chain by the tridiagonal recurrence."""
    d_prev, d = 1, -(p + 2)
    for _ in range(p - 2):
        d_prev, d = d, -2 * d - d_prev
    return d


def fraction_det(matrix):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def gauss_jordan_solve(matrix, rhs):
    """Solve matrix . x = rhs for a nonsingular matrix by one Gauss-Jordan
    pass over [matrix | rhs], exact in ``Fraction``s.  Each pivot row is
    applied through its nonzero entries right of the pivot only, as the
    other entries of a pivot row are already zero."""
    n = len(matrix)
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        pivot = Fraction(a[col][col])
        scaled = [(j, x / pivot) for j, x in enumerate(a[col]) if x and j > col]
        for i, row in enumerate(a):
            f = row[col]
            if f and i != col:
                row[col] = 0
                for j, y in scaled:
                    row[j] -= f * y
    return [Fraction(row[n]) / row[i] for i, row in enumerate(a)]


def continued_fraction(terms):
    """The negative continued fraction [a0, a1, ...] = a0 - 1/(a1 - 1/(...))."""
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a - 1 / value
    return value


def random_unimodular(rng, n, ops=12):
    """Random determinant +-1 integer matrix from elementary row operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-3, 3)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-x for x in m[i]]
    return m


def transformed_gram(p, diag_entries):
    """Gram of a diagonal form in the basis whose vectors are the rows of p."""
    n = len(diag_entries)
    return tuple(
        tuple(sum(p[i][k] * diag_entries[k] * p[j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def congruent_gram(rng, diag_entries):
    """Gram of a random basis change applied to a diagonal form."""
    return transformed_gram(random_unimodular(rng, len(diag_entries)), diag_entries)


def recursive_canonical(value):
    """A report value as immutable JSON-ready data (sequences as tuples), one
    recursive call per item."""
    if isinstance(value, (list, tuple)):
        return tuple(recursive_canonical(v) for v in value)
    if isinstance(value, dict):
        return {str(k): recursive_canonical(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    return str(value)


def s_series_product(*series):
    """Product of polynomials in s^2 given as {power: coefficient} maps."""
    out = {0: 1}
    for s in series:
        nxt = {}
        for m1, c1 in out.items():
            for m2, c2 in s.items():
                nxt[m1 + m2] = nxt.get(m1 + m2, 0) + c1 * c2
        out = {m: c for m, c in nxt.items() if c != 0}
    return out


def surgery_table_by_division(polys):
    """(D - D(1)) / (t^(1/2) - t^(-1/2)) for D the product of symmetric
    {t exponent: coefficient} maps, by sympy division in x = t^(1/2).

    Each factor is shifted to a polynomial in x and the quotient by
    x - 1/x = (x^2 - 1) / x is taken with a zero-remainder check; returns
    {doubled exponent: coefficient} over the nonzero terms."""
    import sympy

    x = sympy.Symbol("x")
    shift = sum(max(p) for p in polys)  # D times x^(2 shift) is a polynomial
    product = sympy.Poly(1, x)
    for p in polys:
        product *= sympy.Poly(sum(c * x ** (2 * (k + max(p))) for k, c in p.items()), x)
    numerator = product - sympy.Poly(product.eval(1) * x ** (2 * shift), x)
    quotient, remainder = sympy.div(numerator, sympy.Poly(x ** 2 - 1, x))
    assert remainder.is_zero
    # the quotient is (D - D(1)) / (x - 1/x) times x^(2 shift - 1)
    return {m - 2 * shift + 1: int(c) for (m,), c in quotient.terms() if c}
