"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own code paths: pairings by explicit
double loops, signatures by Jacobi's leading-minor rule, determinants by the
tridiagonal recurrence, linear solves by Cramer's rule, twist words one
letter at a time, the blowup-pair test by squaring every difference.
"""

from fractions import Fraction
from itertools import islice, permutations
from math import gcd

from swsurgery.exactmat import bareiss_det
from swsurgery.manifold import MinimalityVerdict


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


WORD_GENERATORS = {"a": (1, 1, 0, 1), "b": (1, 0, -1, 1), "A": (1, -1, 0, 1), "B": (1, 0, 1, 1)}


def naive_word_matrix(letters):
    """Product of the generator matrices, one letter at a time, as (a, b, c, d)."""
    a, b, c, d = 1, 0, 0, 1
    for x in letters:
        p, q, r, s = WORD_GENERATORS[x]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return a, b, c, d


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


def minors_signature(gram):
    """(b+, b-) via Jacobi's rule: with all leading principal minors nonzero,
    the negative index is the number of sign changes along 1, m1, ..., mn.
    Tries basis permutations until the minors are all nonzero."""
    n = len(gram)
    for perm in islice(permutations(range(n)), 50000):
        m = [[gram[i][j] for j in perm] for i in perm]
        minors = [bareiss_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        if all(minors):
            seq = [1] + minors
            neg = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
            return (n - neg, neg)
    raise AssertionError("no permutation with nonvanishing leading minors found")


def chain_determinant_recurrence(p):
    """det of the order-p chain by the tridiagonal recurrence."""
    d_prev, d = 1, -(p + 2)
    for _ in range(p - 2):
        d_prev, d = d, -2 * d - d_prev
    return d


def cramer_solve(matrix, rhs):
    """Solve matrix . x = rhs by Cramer's rule with integer determinants."""
    n = len(matrix)
    det = bareiss_det(matrix)
    assert det != 0
    xs = []
    for col in range(n):
        replaced = [
            [rhs[i] if j == col else matrix[i][j] for j in range(n)] for i in range(n)
        ]
        xs.append(Fraction(bareiss_det(replaced), det))
    return xs


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
