"""Genus-one mapping class group word calculus in SL(2,Z).

Words in the two Dehn twist generators are evaluated through the symplectic
representation a -> [[1,1],[0,1]], b -> [[1,0],[-1,1]] (uppercase letters are
inverses).  With this convention ab has trace 1 and order 6.  A parsed word
is evaluated over its factor tree: every power, of a letter or of a
parenthesized group, is one matrix from the trace recurrence (det 1 gives
M^n = u_n M - u_(n-1) I), whose u_n cost the logarithm of the exponent,
or nothing at trace 2, where u_n = n.

Only the boundary validates: the public ``IntegerMatrix2(...)`` checks
det = 1, while products, inverses and the identity are built unchecked
through ``IntegerMatrix2._trusted``, as det(AB) = det A det B = 1 and the
inverse of a det-1 matrix has det 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple


class WordSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class IntegerMatrix2:
    """2x2 integer matrix with determinant +1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be +1")

    @classmethod
    def _trusted(cls, a: int, b: int, c: int, d: int) -> "IntegerMatrix2":
        """A matrix of int entries known to have determinant 1; unchecked."""
        self = object.__new__(cls)
        self.__dict__.update(a=a, b=b, c=c, d=d)
        return self

    @classmethod
    def identity(cls) -> "IntegerMatrix2":
        return cls._trusted(1, 0, 0, 1)

    def __matmul__(self, other: "IntegerMatrix2") -> "IntegerMatrix2":
        return IntegerMatrix2._trusted(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __pow__(self, n: int) -> "IntegerMatrix2":
        """M^n = u_n M - u_(n-1) I, as M^2 = t M - I for the trace t (det 1);
        u_k = t u_(k-1) - u_(k-2) from u_0 = 0, u_1 = 1, taken by doubling,
        or u_k = k at t = 2 (every Dehn twist).  M^1 is M itself, which is
        safe as matrices are immutable."""
        if n == 1:
            return self
        m = self if n >= 0 else self.inverse()
        t, u, v = m.a + m.d, 0, -1  # (u_k, u_(k-1)) at k = 0
        if t == 2:
            u, v = abs(n), abs(n) - 1
        else:
            for bit in bin(abs(n))[2:]:
                u, v = u * (t * u - 2 * v), u * u - v * v  # k -> 2k
                if bit == "1":
                    u, v = t * u - v, u  # k -> k + 1
        return IntegerMatrix2._trusted(u * m.a - v, u * m.b, u * m.c, u * m.d - v)

    def inverse(self) -> "IntegerMatrix2":
        return IntegerMatrix2._trusted(self.d, -self.b, -self.c, self.a)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


TWIST_A = IntegerMatrix2(1, 1, 0, 1)
TWIST_B = IntegerMatrix2(1, 0, -1, 1)
GENERATORS = {"a": TWIST_A, "b": TWIST_B, "A": TWIST_A.inverse(), "B": TWIST_B.inverse()}
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


@dataclass(frozen=True)
class Factor:
    """One factor of a parsed word, boundaries as written.

    ``inner`` holds the letter of a single-letter factor, or the factors of
    a parenthesized group; ``base`` is their product and the factor's matrix
    is ``base ** power``.  ``length`` is how many letters the factor spells
    out in its word's ``letters``.
    """

    text: str
    power: int
    base: IntegerMatrix2
    # determined by ``text``, so left out of equality and repr, which then
    # never recurse into deep nesting
    inner: tuple["Factor | str", ...] = field(compare=False, repr=False)
    length: int = field(compare=False, repr=False)


class MCGWord(NamedTuple):
    factors: tuple[Factor, ...] = ()

    @property
    def letters(self) -> tuple[str, ...]:
        return _spell(self.factors)

    @property
    def length(self) -> int:
        """Number of letters the word spells out, read from the factor tree."""
        return sum(f.length for f in self.factors)

    def __str__(self) -> str:
        return "".join(self.letters)


def _expand(letters: tuple[str, ...], power: int) -> tuple[str, ...]:
    if power >= 0:
        return letters * power
    inv = tuple(_INVERSE[x] for x in reversed(letters))
    return inv * (-power)


def _spell(items) -> tuple[str, ...]:
    """Letters of the product of ``items``.

    Nested groups are expanded from an explicit stack of (items left, power,
    letters so far) frames, so nesting depth is bounded only by the input.
    """
    stack = [(iter(items), 1, [])]
    while True:
        rest, exponent, letters = stack[-1]
        item = next(rest, None)
        if item is None:
            stack.pop()
            spelled = _expand(tuple(letters), exponent)
            if not stack:
                return spelled
            stack[-1][2].extend(spelled)
        elif isinstance(item, str):
            letters.append(item)
        elif item.power:  # a zero power spells nothing, however long its base
            stack.append((iter(item.inner), item.power, []))


def _product(matrices) -> IntegerMatrix2:
    """The product of ``matrices`` from the first; the identity when empty."""
    matrices = iter(matrices)
    m = next(matrices, None)
    if m is None:
        return IntegerMatrix2.identity()
    for x in matrices:
        m = m @ x
    return m


def parse_word(text: str) -> MCGWord:
    """Parse a twist word.

    Grammar: word := atom+ with atom one of a, b, A, B (optionally ^int) or a
    parenthesized word with ^int; whitespace is ignored; negative and zero
    powers are allowed.  Raises WordSyntaxError with the offending position.
    Nesting depth is bounded only by the input: open groups live on an
    explicit stack of (position of '(', factors so far) frames.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_power() -> int:
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == "^":
            pos += 1
            skip_ws()
            start = pos
            if pos < n and text[pos] in "+-":
                pos += 1
            digits = pos
            while pos < n and text[pos].isdecimal():  # exactly the digits int() reads
                pos += 1
            if pos == digits:
                raise WordSyntaxError("expected integer exponent after '^'", start)
            return int(text[start:pos])
        return 1

    stack: list[tuple[int, list[Factor]]] = []
    items: list[Factor] = []
    while True:
        skip_ws()
        if pos >= n:
            if stack:
                raise WordSyntaxError("unbalanced '('", stack[-1][0])
            break
        ch = text[pos]
        start = pos
        if ch in GENERATORS:
            pos += 1
            power = parse_power()
            items.append(Factor(text[start:pos], power, GENERATORS[ch], (ch,), abs(power)))
        elif ch == "(":
            stack.append((pos, items))
            items = []
            pos += 1
        elif ch == ")":
            if not stack:
                raise WordSyntaxError("unbalanced ')'", pos)
            inner = items
            start, items = stack.pop()
            pos += 1
            power = parse_power()
            base = _product(f.base ** f.power for f in inner)
            items.append(Factor(text[start:pos], power, base, tuple(inner),
                                abs(power) * sum(f.length for f in inner)))
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", pos)
    return MCGWord(tuple(items))


def evaluate(word: MCGWord | str) -> IntegerMatrix2:
    """Product of the factors' ``base ** power``, each by the trace
    recurrence; the empty word is the identity."""
    if isinstance(word, str):
        word = parse_word(word)
    return _product(f.base ** f.power for f in word.factors)


def parabolic_width(m: IntegerMatrix2) -> int | None:
    """For trace-2 non-identity matrices, the invariant gcd of m - id.

    This is 1 for a single Dehn twist (and any conjugate) and 6 for the
    monodromy of a fiber made of a cycle of six spheres.
    """
    if m.trace != 2 or m.is_identity():
        return None
    return gcd(gcd(abs(m.a - 1), abs(m.b)), gcd(abs(m.c), abs(m.d - 1)))


class FactorDiagnostic(NamedTuple):
    text: str
    power: int
    base_trace: int
    factor_trace: int
    parabolic: bool  # base is trace 2 and not the identity
    width: int | None  # gcd invariant of (factor - id) when the factor is parabolic


class FactorizationReport(NamedTuple):
    word: MCGWord
    expected: MCGWord | None
    lhs: IntegerMatrix2
    rhs: IntegerMatrix2
    equal: bool
    factors: tuple[FactorDiagnostic, ...]


def verify_factorization(word: MCGWord | str, expected: MCGWord | str | None = None) -> FactorizationReport:
    """Evaluate a factorized word against a target (identity when omitted).

    Inequality is reported, never raised.  Each top-level factor gets trace
    and parabolicity diagnostics; trace 2 marks a nodal-type (Dehn twist)
    conjugacy class.
    """
    if isinstance(word, str):
        word = parse_word(word)
    target = None
    if expected is not None:
        target = parse_word(expected) if isinstance(expected, str) else expected
    powers = [f.base ** f.power for f in word.factors]
    lhs = _product(powers)
    rhs = evaluate(target) if target is not None else IntegerMatrix2.identity()
    diags = tuple(
        FactorDiagnostic(f.text, f.power, f.base.trace, m.trace,
                         f.base.trace == 2 and not f.base.is_identity(), parabolic_width(m))
        for f, m in zip(word.factors, powers)
    )
    return FactorizationReport(word, target, lhs, rhs, lhs == rhs, diags)
