"""Alexander polynomials of twist knots and the fiber-sum SW rule.

Laurent polynomials live in one variable t with half-integer exponents
allowed; exponents are stored doubled as integers so all arithmetic stays
in Z.  The surgery rule rewrites a symmetric Alexander polynomial through
the variable s = t^(1/2) - t^(-1/2) and reads SW values for multiples of
the fiber off the Laurent expansion of (P(s^2) - P(0)) / s.

``LaurentPolynomial(terms)``, ``from_doubled`` and ``parse`` normalize and
validate outside terms; the arithmetic builds its already-normalized results
through ``LaurentPolynomial._trusted``.  The surgery rule builds its SW table
and model trusted as well: every class in the table is an odd multiple j T
of the fiber, characteristic when T is (checked once), the quotient is
antisymmetric under j -> -j, and d(j T) = 0 since T^2 = 0 and
3 sign + 2 euler = 0 are checked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from .lattice import HomologyClass, is_characteristic, square
from .manifold import FourManifoldModel, SWTable


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer Laurent polynomial; terms maps doubled exponents to coefficients."""

    terms: tuple[tuple[int, int], ...]  # (2 * exponent, coefficient), sorted

    def __post_init__(self):
        cleaned = tuple(sorted((int(e), int(c)) for e, c in self.terms if c != 0))
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
    def _from_sums(cls, sums: dict[int, int]) -> "LaurentPolynomial":
        """The polynomial of an int {doubled exponent: coefficient} map."""
        return cls._trusted(tuple(sorted((e, c) for e, c in sums.items() if c)))

    @classmethod
    def constant(cls, c: int) -> "LaurentPolynomial":
        return cls(((0, c),))

    @classmethod
    def from_doubled(cls, mapping) -> "LaurentPolynomial":
        return cls(tuple(mapping.items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = self.as_dict()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial._from_sums(out)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._trusted(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPolynomial._trusted(())
            return LaurentPolynomial._trusted(tuple((e, c * other) for e, c in self.terms))
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial._from_sums(out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def mirror(self) -> "LaurentPolynomial":
        """Substitution t -> t^(-1)."""
        return LaurentPolynomial._trusted(tuple((-e, c) for e, c in reversed(self.terms)))

    def is_symmetric(self) -> bool:
        return self == self.mirror()

    def at_one(self) -> int:
        return sum(c for _, c in self.terms)

    def has_half_powers(self) -> bool:
        return any(e % 2 for e, _ in self.terms)

    def top_doubled_exponent(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[-1][0]

    def coefficient(self, doubled_exponent: int) -> int:
        for e, c in self.terms:
            if e == doubled_exponent:
                return c
        return 0

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for e, c in sorted(self.terms, reverse=True):
            if e == 0:
                body = str(abs(c))
            else:
                if e % 2 == 0:
                    power = f"t^{e // 2}"
                else:
                    power = f"t^{e}/2"
                body = power if abs(c) == 1 else f"{abs(c)}{power}"
            sign = "-" if c < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    _TERM = re.compile(
        r"\s*(?P<sign>[+-])?\s*(?:"
        r"(?P<coeff>\d+)\s*(?P<t1>t(?:\^(?P<exp1>-?\d+)(?P<half1>/2)?)?)?"
        r"|(?P<t2>t(?:\^(?P<exp2>-?\d+)(?P<half2>/2)?)?)"
        r")\s*"
    )

    @classmethod
    def parse(cls, text: str) -> "LaurentPolynomial":
        """Parse the textual syntax, e.g. ``3t^1 - 5 + 3t^-1`` or ``t^1/2``."""
        out: dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(text):
            m = cls._TERM.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse polynomial at position {pos}: {text[pos:]!r}")
            sign = m.group("sign")
            if sign is None and not first:
                raise ValueError(f"missing +/- between terms at position {pos}")
            factor = -1 if sign == "-" else 1
            if m.group("coeff") is not None:
                coeff = factor * int(m.group("coeff"))
                tpart, exp, half = m.group("t1"), m.group("exp1"), m.group("half1")
            else:
                coeff = factor
                tpart, exp, half = m.group("t2"), m.group("exp2"), m.group("half2")
            if tpart is None:
                doubled = 0
            elif exp is None:
                doubled = 2
            else:
                doubled = int(exp) if half else 2 * int(exp)
            out[doubled] = out.get(doubled, 0) + coeff
            pos = m.end()
            first = False
        if first:
            raise ValueError("empty polynomial text")
        return cls.from_doubled(out)


@dataclass(frozen=True)
class TwistKnot:
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


def poly_in_s(p: LaurentPolynomial) -> dict[int, int]:
    """Rewrite a symmetric normalized Laurent polynomial in powers of s^2.

    Here s = t^(1/2) - t^(-1/2), so s^2 = t - 2 + t^(-1).  The input must be
    symmetric (p(t) = p(1/t)), have integer exponents, and satisfy p(1) = +-1.
    Returns {m: a_m} with p = sum a_m (s^2)^m; the rewrite is exact and
    invertible.
    """
    if p.has_half_powers():
        raise ValueError("input must have integer exponents")
    if not p.is_symmetric():
        raise ValueError("input polynomial is not symmetric under t -> 1/t")
    if p.at_one() not in (1, -1):
        raise ValueError(f"normalization requires p(1) = +-1, got {p.at_one()}")
    s_squared = LaurentPolynomial.from_doubled({2: 1, 0: -2, -2: 1})
    out: dict[int, int] = {}
    rest = p
    while not rest.is_zero():
        top = rest.top_doubled_exponent()
        if top < 0:
            raise RuntimeError("asymmetric residual; symmetry check should prevent this")
        m = top // 2
        coeff = rest.coefficient(top)
        out[m] = coeff
        power = LaurentPolynomial.constant(1)
        for _ in range(m):
            power = power * s_squared
        rest = rest - coeff * power
    return {m: c for m, c in sorted(out.items()) if c != 0}


def s_series_product(*series: dict[int, int]) -> dict[int, int]:
    """Product of polynomials in s^2 given as {power: coefficient} maps."""
    out = {0: 1}
    for s in series:
        nxt: dict[int, int] = {}
        for m1, c1 in out.items():
            for m2, c2 in s.items():
                nxt[m1 + m2] = nxt.get(m1 + m2, 0) + c1 * c2
        out = {m: c for m, c in nxt.items() if c != 0}
    return out


def s_odd_part_to_t(series: dict[int, int]) -> LaurentPolynomial:
    """Expand sum_m a_m s^(2m-1) (m >= 1) as a Laurent polynomial in t^(1/2)."""
    out: dict[int, int] = {}
    for m, a in series.items():
        if m == 0:
            continue
        power = 2 * m - 1
        # (t^(1/2) - t^(-1/2))^power; doubled exponent of each term is power - 2j
        for j in range(power + 1):
            e = power - 2 * j
            out[e] = out.get(e, 0) + a * ((-1) ** j) * comb(power, j)
    return LaurentPolynomial._from_sums(out)


def _as_alexander(knot) -> LaurentPolynomial:
    if isinstance(knot, TwistKnot):
        return knot.alexander
    if isinstance(knot, LaurentPolynomial):
        return knot
    if isinstance(knot, int):
        return alexander_twist(knot)
    raise TypeError(f"expected TwistKnot, int, or LaurentPolynomial, got {type(knot)!r}")


def e1_knot_surgery_sw(knots, model: FourManifoldModel | None = None):
    """SW data of iterated fiber surgeries on the rational elliptic surface.

    With P(s^2) the product of the knots' Alexander polynomials rewritten in
    s^2, the table is the Laurent expansion of (P - P(0)) / s: the coefficient
    of t^(j/2) is the value at the class j.T.  The result is antisymmetric
    under j -> -j.

    Returns {j: value}; with ``model`` given (its marked class T is the fiber)
    the same data is attached as an SWTable in the model's lattice.
    """
    polys = [_as_alexander(k) for k in knots]
    series = s_series_product(*[poly_in_s(p) for p in polys])
    quotient = s_odd_part_to_t(series)
    table = {e: c for e, c in quotient.terms}
    if model is None:
        return table
    fiber = model.marked_class("T").coords
    entries = tuple(sorted((tuple(j * x for x in fiber), value) for j, value in table.items()))
    if any(fiber) and is_characteristic(HomologyClass._trusted(model.lattice, fiber)):
        # every j is odd, so each j T is characteristic with T; the classes
        # are distinct as T != 0, and the quotient is antisymmetric in j
        return SWTable._trusted(model.lattice, entries, model.sw.convention_note)
    return SWTable(model.lattice, entries, model.sw.convention_note)


def knot_surgery_manifold(X: FourManifoldModel, fiber: HomologyClass, knot) -> FourManifoldModel:
    """Fiber surgery along a square-zero torus at the homology level.

    The lattice, euler characteristic, and signature are unchanged (both glued
    pieces have e = 0 and sign = 0).  The SW table is recomputed from the full
    sequence of surgered knots via the Laurent-quotient rule, which applies to
    models carrying the rational elliptic surface lattice.  Simple
    connectivity is carried through as an asserted input.
    """
    if square(fiber) != 0:
        raise ValueError(f"knot surgery needs a square-zero fiber, got square {square(fiber)}")
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
    history = X.surgery_history + (_as_alexander(knot),)
    # every class of the new table is j T with d(j T) = (0 - 0) / 4 = 0
    return X._replaced(name=f"{X.name}_K", sw=e1_knot_surgery_sw(history, model=X),
                       surgery_history=history)
