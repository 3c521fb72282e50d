"""Alexander polynomials of twist knots and the fiber-sum SW rule.

Laurent polynomials live in one variable t with half-integer exponents
allowed; exponents are stored doubled as integers so all arithmetic stays
in Z.  The surgery rule reads SW values for multiples of the fiber off the
exact Laurent quotient (D - D(1)) / (t^(1/2) - t^(-1/2)), where D is the
product of the knots' Alexander polynomials.

``LaurentPolynomial(terms)`` and ``from_doubled`` normalize and validate
outside terms; products build their already-normalized results through
``LaurentPolynomial._trusted``.  Knot surgery builds its SW table and model
trusted as well: every class in the table is an odd multiple j T of the
fiber, characteristic when T is (checked once per class set), the quotient
is antisymmetric under j -> -j, and d(j T) = 0 since T^2 = 0 and
3 sign + 2 euler = 0 are checked.

Each surgery multiplies one polynomial: its model keeps D, the product of
its history, and the next surgery takes D times the new knot's polynomial.
A model without D (E(1), a loaded or renamed one) rebuilds it.  Each
polynomial is checked once, where it enters; a twist knot needs no check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import index
from typing import NamedTuple

from .lattice import HomologyClass, is_characteristic, square
from .manifold import FourManifoldModel, SWTable, _Support


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer Laurent polynomial; terms maps doubled exponents to coefficients."""

    terms: tuple[tuple[int, int], ...]  # (2 * exponent, coefficient), sorted

    def __post_init__(self):
        # operator.index refuses a float, str or Fraction instead of truncating it
        cleaned = tuple(sorted((e, c) for e, c in ((index(e), index(c)) for e, c in self.terms) if c))
        if len({e for e, _ in cleaned}) != len(cleaned):
            raise ValueError("duplicate exponents")
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _trusted(cls, terms) -> "LaurentPolynomial":
        """A polynomial from terms already sorted, int and nonzero; unchecked."""
        self = object.__new__(cls)
        self.__dict__["terms"] = terms
        return self

    @classmethod
    def from_doubled(cls, mapping) -> "LaurentPolynomial":
        return cls(tuple(mapping.items()))

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial._trusted(tuple(sorted((e, c) for e, c in out.items() if c)))

    def mirror(self) -> "LaurentPolynomial":
        """Substitution t -> t^(-1)."""
        return LaurentPolynomial._trusted(tuple((-e, c) for e, c in reversed(self.terms)))

    def is_symmetric(self) -> bool:
        return self == self.mirror()

    def at_one(self) -> int:
        return sum(c for _, c in self.terms)

    def has_half_powers(self) -> bool:
        return any(e % 2 for e, _ in self.terms)

    def __str__(self) -> str:
        text = ""
        for e, c in reversed(self.terms):
            power = "" if e == 0 else f"t^{e // 2}" if e % 2 == 0 else f"t^{e}/2"
            if text:
                text += " - " if c < 0 else " + "
            elif c < 0:
                text = "-"
            text += power if power and abs(c) == 1 else f"{abs(c)}{power}"
        return text or "0"


class TwistKnot(NamedTuple):
    """Genus-one twist knot with n full twists in the clasp; n = 0 is the unknot."""

    n: int

    @property
    def alexander(self) -> LaurentPolynomial:
        return alexander_twist(self.n)

    def __str__(self) -> str:
        return f"T({self.n})"


def alexander_twist(n: int) -> LaurentPolynomial:
    """Alexander polynomial n t - (2n - 1) + n t^(-1) of the n-twist knot."""
    return LaurentPolynomial.from_doubled({2: n, 0: -(2 * n - 1), -2: n})


def _check_alexander(p: LaurentPolynomial) -> None:
    """Refuse a polynomial that is not a normalized Alexander polynomial."""
    if p.has_half_powers():
        raise ValueError("input must have integer exponents")
    if not p.is_symmetric():
        raise ValueError("input polynomial is not symmetric under t -> 1/t")
    if p.at_one() not in (1, -1):
        raise ValueError(f"normalization requires p(1) = +-1, got {p.at_one()}")


def poly_in_s(p: LaurentPolynomial) -> dict[int, int]:
    """Rewrite a symmetric normalized Laurent polynomial in powers of s^2.

    Here s = t^(1/2) - t^(-1/2), so s^2 = t - 2 + t^(-1).  The input must be
    symmetric (p(t) = p(1/t)), have integer exponents, and satisfy p(1) = +-1.
    Returns {m: a_m} with p = sum a_m (s^2)^m; the rewrite is exact and
    invertible.  The top term a t^m is peeled off with
    (s^2)^m = sum_k (-1)^(m-k) C(2m, m-k) t^k, which keeps the rest symmetric.
    """
    _check_alexander(p)
    rest = dict(p.terms)  # doubled exponent -> coefficient, never 0
    out: dict[int, int] = {}
    while rest:
        top = max(rest)
        m = top // 2
        a = out[m] = rest[top]
        for k in range(-m, m + 1):
            c = rest.get(2 * k, 0) - a * (-1) ** (m - k) * comb(2 * m, m - k)
            if c:
                rest[2 * k] = c
            else:
                rest.pop(2 * k, None)
    return dict(sorted(out.items()))


def _as_alexander(knot) -> LaurentPolynomial:
    if isinstance(knot, TwistKnot):
        return knot.alexander
    if isinstance(knot, LaurentPolynomial):
        return knot
    if isinstance(knot, int):
        return alexander_twist(knot)
    raise TypeError(f"expected TwistKnot, int, or LaurentPolynomial, got {type(knot)!r}")


def _product(polys) -> LaurentPolynomial:
    """The product of the Alexander polynomials ``polys``, each checked first."""
    product = LaurentPolynomial._trusted(((0, 1),))
    for p in polys:
        _check_alexander(p)
        product = product * p
    return product


def e1_knot_surgery_sw(knots) -> dict[int, int]:
    """SW data of iterated fiber surgeries on the rational elliptic surface.

    With D the product of the knots' Alexander polynomials, the table is the
    Laurent quotient (D - D(1)) / (t^(1/2) - t^(-1/2)): the coefficient of
    t^(j/2) is the value at the class j T.  The division is exact, and its
    coefficient at each odd doubled exponent j is the sum of the numerator's
    coefficients above j.  The result is antisymmetric under j -> -j.

    Returns {j: value} over the nonzero values, in increasing j.
    """
    return _quotient(_product([_as_alexander(k) for k in knots]))


def _quotient(product: LaurentPolynomial) -> dict[int, int]:
    """{j: value} of ``e1_knot_surgery_sw`` for the product D of the knots."""
    numerator = dict(product.terms)
    numerator[0] = numerator.get(0, 0) - product.at_one()
    top = product.terms[-1][0]  # the product is symmetric, so -top is its bottom
    descending = []
    running = 0
    for j in range(top - 1, -top, -2):
        running += numerator.get(j + 1, 0)
        if running:
            descending.append((j, running))
    return dict(reversed(descending))


@lru_cache(maxsize=64)
def _surgery_support(lattice, fiber, js):
    """The support of {j T: value} over the odd ``js``, and the js in its order;
    it carries (j T)^2 = 0 if T is nonzero and characteristic, as each j T then is."""
    T = HomologyClass._trusted(lattice, fiber)
    if (t2 := square(T)) != 0:
        raise ValueError(f"knot surgery needs a square-zero fiber, got square {t2}")
    classes = sorted((tuple(j * x for x in fiber), j) for j in js)
    carried = 0 if any(fiber) and is_characteristic(T) else None
    return _Support(tuple(c for c, _ in classes), carried), tuple(j for _, j in classes)


def knot_surgery_manifold(X: FourManifoldModel, fiber: HomologyClass, knot) -> FourManifoldModel:
    """Fiber surgery along a square-zero torus at the homology level.

    The lattice, euler characteristic, and signature are unchanged (both glued
    pieces have e = 0 and sign = 0).  The SW table is recomputed from the
    product of every surgered knot's Alexander polynomial (X's product times
    the new one) via the Laurent-quotient rule, which applies to models
    carrying the rational elliptic surface lattice.  Simple connectivity is
    carried through as an asserted input.
    """
    _surgery_support(fiber.lattice, fiber.coords, ())  # raises first unless T^2 = 0
    if fiber != X.marked_class("T"):
        raise ValueError("the fiber must be the marked class T")
    if X.sw.entries and not X.surgery_history:
        raise ValueError(
            "cannot resurgery a model with SW data but no recorded surgery history"
        )
    if 3 * X.sign + 2 * X.euler != 0:
        raise ValueError(
            "the Laurent-quotient SW rule applies to rational-elliptic-surface models "
            f"(needs 3 sign + 2 euler = 0, got {3 * X.sign + 2 * X.euler})"
        )
    polynomial = _as_alexander(knot)
    product = vars(X).get("_alexander") or _product([_as_alexander(k) for k in X.surgery_history])
    if not isinstance(getattr(knot, "n", knot), int):  # not a twist knot
        _check_alexander(polynomial)
    product = product * polynomial
    table = _quotient(product)
    support, js = _surgery_support(fiber.lattice, fiber.coords, tuple(table))
    values = map(table.__getitem__, js)
    if support.square is None:  # T is zero or not characteristic: the constructor judges
        sw = SWTable(X.lattice, tuple(zip(support.coords, values)), X.sw.convention_note)
    else:  # the quotient is antisymmetric in j, and d(j T) = (0 - 0) / 4 = 0
        sw = SWTable._trusted(X.lattice, support, values, X.sw.convention_note)
    return X._replaced(name=f"{X.name}_K", sw=sw,
                       surgery_history=X.surgery_history + (polynomial,), _alexander=product)
