"""Closed 4-manifold models: lattice plus (euler, sign) bookkeeping and SW tables.

A model is immutable; surgery-style operations return new models.  Sign
conventions for SW values follow the Laurent-quotient convention of the knot
surgery rule and are recorded on each table; only absolute values are pinned
by the underlying theory.

The public constructors ``SWTable(...)``, ``FourManifoldModel(...)`` and
``FourManifoldModel.from_dict`` (the one model-JSON schema check) validate
everything: nonzero values, closure under negation with equal magnitudes,
characteristic classes, (euler, sign) against the lattice, d(k) >= 0 even,
and marked classes of the model's lattice (``marked`` is a ``{name:
HomologyClass}`` dict or (name, coordinates) pairs).  ``SWTable._trusted`` and
``FourManifoldModel._trusted`` check nothing; they serve the operations that
keep these invariants by construction: ``blowup`` (k +- E is characteristic
with k, and d(k +- E) = d(k)), ``renamed``, and the knot surgery of
``knots``.  ``plumbing.rational_blowdown`` builds its table and model
through the public constructors, as the pushed-down classes are not known
to be characteristic.  ``dimension`` runs the characteristic test only on
classes outside the model's own table.

Two trusted constructions also carry the square k^2 that every class of
their table shares, exact by construction: knot surgery (its classes are
j T with T^2 = 0 checked, so (j T)^2 = 0) and ``blowup`` of a table that
carries one ((k +- E)^2 = k^2 - 1, as E^2 = -1 and k . E = 0).  ``dimension``
reads it for a class of the table instead of squaring.  Tables from the
public constructors, ``from_dict`` and ``plumbing.rational_blowdown`` carry
none, and ``dimension`` squares their classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul, sub
from typing import NamedTuple

from .lattice import (
    HomologyClass,
    IntersectionLattice,
    gram_image,
    is_characteristic,
    pair,
    same_lattice,
    signature_and_betti,
    square,
)

DEFAULT_CONVENTION = (
    "SW signs follow the antisymmetric Laurent-quotient convention; "
    "only absolute values are invariant of the convention"
)


class NonCharacteristicError(ValueError):
    """A characteristic class was required."""


class OnWallError(ValueError):
    """The period class pairs to zero with the class whose invariant was asked."""


@dataclass(frozen=True)
class SWTable:
    """Finite table of (characteristic class -> nonzero signed integer)."""

    lattice: IntersectionLattice
    entries: tuple[tuple[tuple[int, ...], int], ...]
    convention_note: str = DEFAULT_CONVENTION

    def __post_init__(self):
        normalized = tuple(sorted((tuple(int(x) for x in c), int(v)) for c, v in self.entries))
        object.__setattr__(self, "entries", normalized)
        seen = {}
        for coords, value in normalized:
            if value == 0:
                raise ValueError("SW tables store nonzero values only")
            if coords in seen:
                raise ValueError(f"duplicate SW entry for {coords}")
            seen[coords] = value
        for coords, value in normalized:
            neg = tuple(-x for x in coords)
            if neg not in seen or abs(seen[neg]) != abs(value):
                raise ValueError("SW table must be closed under negation with equal magnitude")
            if not is_characteristic(HomologyClass(self.lattice, coords)):
                raise ValueError(f"SW class {coords} is not characteristic")

    # k^2 (an int) shared by every class of a table built with it known by
    # construction, else None; unannotated, so not a field and never
    # compared, hashed or serialized
    _square = None

    @classmethod
    def _trusted(cls, lattice: IntersectionLattice, entries,
                 convention_note: str = DEFAULT_CONVENTION, square: int | None = None):
        """A table whose entries are sorted (int-tuple, nonzero int) pairs
        known to form a valid table in ``lattice``, every class of square
        ``square`` when that is given; nothing is checked."""
        self = object.__new__(cls)
        self.__dict__.update(lattice=lattice, entries=entries, convention_note=convention_note,
                             _square=square)
        return self

    @classmethod
    def empty(cls, lattice: IntersectionLattice, note: str = DEFAULT_CONVENTION) -> "SWTable":
        return cls(lattice, (), note)

    @classmethod
    def from_pairs(cls, lattice, pairs, note: str = DEFAULT_CONVENTION) -> "SWTable":
        items = []
        for k, v in pairs.items() if isinstance(pairs, dict) else pairs:
            coords = k.coords if isinstance(k, HomologyClass) else tuple(k)
            items.append((coords, int(v)))
        return cls(lattice, tuple(items), note)

    def classes(self) -> tuple[HomologyClass, ...]:
        return tuple(HomologyClass._trusted(self.lattice, c) for c, _ in self.entries)

    def items(self) -> tuple[tuple[HomologyClass, int], ...]:
        return tuple((HomologyClass._trusted(self.lattice, c), v) for c, v in self.entries)

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        """Coordinates -> value, built on first use; not a field, so never
        compared, hashed or serialized."""
        return dict(self.entries)

    def value(self, k: HomologyClass) -> int:
        if not same_lattice(k.lattice, self.lattice):
            raise ValueError("class does not live in the table's lattice")
        return self._index.get(k.coords, 0)

    def magnitudes(self) -> tuple[int, ...]:
        return tuple(sorted(abs(v) for _, v in self.entries))

    def __len__(self) -> int:
        return len(self.entries)


class Fingerprint(NamedTuple):
    b_plus: int
    b_minus: int
    parity: str  # "odd" | "even"
    simply_connected: bool


@dataclass(frozen=True)
class FourManifoldModel:
    """Lattice + (e, sign) + marked classes + SW table for a closed 4-manifold.

    ``simply_connected`` is an asserted input (with free-text justification in
    ``pi1_note``), never computed.
    """

    name: str
    lattice: IntersectionLattice
    euler: int
    sign: int
    simply_connected: bool
    marked: tuple[tuple[str, tuple[int, ...]], ...]
    sw: SWTable
    pi1_note: str = ""
    surgery_history: tuple = ()  # Alexander polynomials of prior fiber surgeries

    def __post_init__(self):
        marked = self.marked.items() if isinstance(self.marked, dict) else self.marked
        for label, v in marked:
            if isinstance(v, HomologyClass) and not same_lattice(v.lattice, self.lattice):
                raise ValueError(f"marked class {label!r} lives in another lattice "
                                 f"({v.lattice.name!r}, not {self.lattice.name!r})")
        marked = tuple(sorted((str(k), tuple(v.coords if isinstance(v, HomologyClass) else v))
                              for k, v in marked))
        object.__setattr__(self, "marked", marked)
        for label, coords in marked:
            if len(coords) != self.lattice.rank:
                raise ValueError(f"marked class {label!r} has {len(coords)} coordinates, "
                                 f"not the lattice rank {self.lattice.rank}")
        b_plus, b_minus = signature_and_betti(self.lattice)
        if self.sign != b_plus - b_minus:
            raise ValueError(f"sign {self.sign} != b+ - b- = {b_plus - b_minus}")
        if self.simply_connected and self.euler != 2 + self.lattice.rank:
            raise ValueError(
                f"closed simply connected model needs euler = 2 + rank, got {self.euler}"
            )
        if not same_lattice(self.sw.lattice, self.lattice):
            raise ValueError("SW table lattice differs from the model lattice")
        # the table's constructor checked that every class is characteristic
        # in this lattice, so d(k) = (k^2 - 3 sign - 2 euler) / 4 needs k^2 only
        shift = 3 * self.sign + 2 * self.euler
        for coords, _ in self.sw.entries:
            numerator = square(HomologyClass._trusted(self.lattice, coords)) - shift
            if numerator < 0 or numerator % 8:
                raise ValueError(
                    f"SW class {coords} has d = {Fraction(numerator, 4)}; need d >= 0 and even"
                )

    @classmethod
    def _trusted(cls, name, lattice, euler, sign, simply_connected, marked, sw,
                 pi1_note: str = "", surgery_history: tuple = ()) -> "FourManifoldModel":
        """A model known to be valid, with ``marked`` a sorted tuple of
        (label, coordinate tuple) pairs; nothing is checked."""
        self = object.__new__(cls)
        self.__dict__.update(
            name=name, lattice=lattice, euler=euler, sign=sign,
            simply_connected=simply_connected, marked=marked, sw=sw,
            pi1_note=pi1_note, surgery_history=surgery_history,
        )
        return self

    def _replaced(self, **changes) -> "FourManifoldModel":
        """This model with some fields changed by a caller that keeps it valid."""
        return FourManifoldModel._trusted(**{**self.__dict__, **changes})

    def marked_class(self, name: str) -> HomologyClass:
        for label, coords in self.marked:
            if label == name:
                return HomologyClass._trusted(self.lattice, coords)
        raise KeyError(f"model {self.name!r} has no marked class {name!r}")

    def b_plus_minus(self) -> tuple[int, int]:
        return signature_and_betti(self.lattice)

    def renamed(self, name: str) -> "FourManifoldModel":
        return self._replaced(name=name)

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "basis": list(self.lattice.basis),
            "gram": [list(r) for r in self.lattice.gram],
            "euler": self.euler,
            "sign": self.sign,
            "simply_connected": self.simply_connected,
            "pi1_note": self.pi1_note,
            "marked": {name: list(coords) for name, coords in self.marked},
            "sw": [{"coords": list(c), "value": v} for c, v in self.sw.entries],
            "convention_note": self.sw.convention_note,
        }
        if self.surgery_history:
            data["surgery_history"] = [[list(t) for t in p.terms] for p in self.surgery_history]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FourManifoldModel":
        """The model a ``to_dict`` payload (or model JSON file) describes.

        This is the one schema check for model JSON: every field's JSON type
        is checked before anything is coerced, and every fault is a
        ValueError naming the field.
        """
        from .knots import LaurentPolynomial  # knots builds on this module

        _check_model_json(data)
        lattice = IntersectionLattice(tuple(data["basis"]), data["gram"], name=data["name"])
        table = SWTable(
            lattice,
            tuple((tuple(e["coords"]), e["value"]) for e in data.get("sw", ())),
            data.get("convention_note", DEFAULT_CONVENTION),
        )
        return cls(
            name=data["name"],
            lattice=lattice,
            euler=data["euler"],
            sign=data["sign"],
            simply_connected=data["simply_connected"],
            marked=tuple((k, tuple(v)) for k, v in data.get("marked", {}).items()),
            sw=table,
            pi1_note=data.get("pi1_note", ""),
            surgery_history=tuple(
                LaurentPolynomial(tuple(map(tuple, terms)))
                for terms in data.get("surgery_history", ())
            ),
        )


def _is_int(x) -> bool:
    return type(x) is int  # a JSON integer; true and false are not


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


def _check_model_json(data) -> None:
    """Raise ValueError unless ``data`` has the JSON types of a model payload."""
    def require(ok, field, kind):
        if not ok:
            raise ValueError(f"model JSON field {field!r} must be {kind}")

    if not isinstance(data, dict):
        raise ValueError(f"model JSON must be an object, not {type(data).__name__}")
    for key in ("name", "basis", "gram", "euler", "sign", "simply_connected"):
        if key not in data:
            raise ValueError(f"model JSON lacks the required field {key!r}")
    require(isinstance(data["name"], str), "name", "a string")
    require(isinstance(data["basis"], list) and all(isinstance(b, str) for b in data["basis"]),
            "basis", "a list of strings")
    require(isinstance(data["gram"], list) and all(map(_is_int_list, data["gram"])),
            "gram", "a list of integer lists")
    require(_is_int(data["euler"]), "euler", "an integer")
    require(_is_int(data["sign"]), "sign", "an integer")
    require(isinstance(data["simply_connected"], bool), "simply_connected", "true or false")
    for key in ("pi1_note", "convention_note"):
        require(isinstance(data.get(key, ""), str), key, "a string")
    marked = data.get("marked", {})
    require(isinstance(marked, dict) and all(map(_is_int_list, marked.values())),
            "marked", "an object of integer lists")
    sw = data.get("sw", [])
    require(isinstance(sw, list) and all(
        isinstance(e, dict) and _is_int_list(e.get("coords")) and _is_int(e.get("value"))
        for e in sw), "sw", 'a list of {"coords": integer list, "value": integer} objects')
    history = data.get("surgery_history", [])
    require(isinstance(history, list) and all(
        isinstance(terms, list) and all(_is_int_list(t) and len(t) == 2 for t in terms)
        for terms in history), "surgery_history", "a list of lists of [exponent, coefficient] pairs")


@dataclass(frozen=True)
class Chamber:
    """Period class H with H^2 > 0 on the same side of the cone as the marked h."""

    model: FourManifoldModel
    period: HomologyClass

    def __post_init__(self):
        if not same_lattice(self.period.lattice, self.model.lattice):
            raise ValueError("period class must live in the model lattice")
        if square(self.period) <= 0:
            raise ValueError("period class must have positive square")
        if pair(self.period, self.model.marked_class("h")) <= 0:
            raise ValueError("period class must pair positively with the marked class h")

    @cached_property
    def _b_plus(self) -> int:
        """The model's b+, computed on first use."""
        return self.model.b_plus_minus()[0]

    @cached_property
    def _images(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(G h, G H), built on first use, so that h.k and H.k are dot
        products with k's coordinates."""
        return gram_image(self.model.marked_class("h")), gram_image(self.period)


def dimension(X: FourManifoldModel, k: HomologyClass) -> int:
    """Formal dimension d(k) = (k^2 - 3 sign - 2 euler) / 4 for characteristic k."""
    if not same_lattice(k.lattice, X.lattice):
        raise ValueError("class does not live in the model lattice")
    # a class of the model's own table was checked characteristic when the
    # table was built (or holds by construction), so only others are tested;
    # a table built with its classes' common square carries it
    carried = None
    if k.coords in X.sw._index:
        carried = X.sw._square
    elif not is_characteristic(k):
        raise NonCharacteristicError(f"{k.coords} is not characteristic in {X.name!r}")
    numerator = (square(k) if carried is None else carried) - 3 * X.sign - 2 * X.euler
    if numerator % 4:
        raise RuntimeError("internal invariant violation: d(k) is not an integer")
    return numerator // 4


def wall_crossing_delta(X: FourManifoldModel, k: HomologyClass) -> int:
    """Jump (-1)^(1 + d(k)/2) across the wall k . H = 0; needs d(k) >= 0 even."""
    d = dimension(X, k)
    if d < 0 or d % 2:
        raise ValueError(f"wall crossing needs d(k) >= 0 and even, got {d}")
    return (-1) ** (1 + d // 2)


def chamber_sw(X: FourManifoldModel, k: HomologyClass, H: Chamber) -> int:
    """Small-perturbation SW invariant of k in the chamber of H.

    When sign(H . k) = sign(h . k) this is the table value (0 if absent);
    otherwise the wall-crossing jump is added, oriented from the h-side to
    the H-side.  Only available for b+ = 1 models.
    """
    b_plus = H._b_plus if H.model is X else X.b_plus_minus()[0]
    if b_plus != 1:
        raise ValueError(f"chamber invariants require b+ = 1, got b+ = {b_plus}")
    if H.model is not X and H.model != X:
        raise ValueError("chamber belongs to a different model")
    jump = wall_crossing_delta(X, k)
    h_image, period_image = H._images  # H.model equals X, so h is X's h
    hk = sum(map(mul, h_image, k.coords))
    Hk = sum(map(mul, period_image, k.coords))
    if Hk == 0:
        raise OnWallError(f"period class lies on the wall of {k.coords}")
    if hk == 0:
        raise OnWallError("the reference class h lies on the wall of this class")
    base = X.sw.value(k)
    if (Hk > 0) == (hk > 0):
        return base
    return base + (jump if Hk > 0 else -jump)


def _next_exceptional_label(lattice: IntersectionLattice) -> str:
    i = 0
    while f"E{i}" in lattice.basis:
        i += 1
    return f"E{i}"


@lru_cache(maxsize=64)
def _blowup_lattice(lattice: IntersectionLattice, name: str, label: str) -> IntersectionLattice:
    """The direct sum of ``lattice`` with <-1>, the new generator ``label`` last.

    Symmetric and nondegenerate with its summands, so built trusted; the
    memo is keyed on the name too, as lattice equality ignores it.
    """
    n = lattice.rank
    gram = tuple(row + (0,) for row in lattice.gram) + ((0,) * n + (-1,),)
    return IntersectionLattice._trusted(
        lattice.basis + (label,), gram, name, lattice.rows + (((n, -1),),)
    )


def blowup(X: FourManifoldModel, label: str | None = None) -> FourManifoldModel:
    """Connected sum with an orientation-reversed projective plane.

    Appends an exceptional generator E of square -1, bumps (euler, sign) by
    (+1, -1), and replaces the SW table by {k +- E -> value(k)}.

    The output is valid by construction, so it is built trusted: k +- E is
    characteristic with k (E^2 = -1 is odd), the table stays closed under
    negation, and (k +- E)^2 = k^2 - 1 against 3 sign + 2 euler dropping by 1
    keeps d(k) >= 0 and even, so no entry is pruned.  A carried common
    square drops by 1 with it.
    """
    label = str(label or _next_exceptional_label(X.lattice))
    if label in X.lattice.basis:
        raise ValueError(f"label {label!r} already present")
    lattice = _blowup_lattice(X.lattice, X.lattice.name, label)
    n = X.lattice.rank
    marked = tuple(sorted([(name, coords + (0,)) for name, coords in X.marked]
                          + [(label, (0,) * n + (1,))]))
    # the parent's coordinates are sorted and distinct, so these come out sorted
    entries = tuple((coords + (eps,), value) for coords, value in X.sw.entries for eps in (-1, 1))
    return FourManifoldModel._trusted(
        name=f"{X.name}#cp2bar",
        lattice=lattice,
        euler=X.euler + 1,
        sign=X.sign - 1,
        simply_connected=X.simply_connected,
        marked=marked,
        sw=SWTable._trusted(lattice, entries, X.sw.convention_note,
                            None if X.sw._square is None else X.sw._square - 1),
        pi1_note=X.pi1_note,
        surgery_history=X.surgery_history,
    )


class MinimalityVerdict(NamedTuple):
    status: str  # "minimal_certified" | "blowup_pair_found" | "inconclusive"
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    e_square: int | None = None


def _blowup_partners(rows, c1, c2) -> bool:
    """Whether the classes with coordinates c1, c2 differ by 2E with E^2 = -1,
    that is (k1 - k2)^2 = -4, squared over the sparse Gram ``rows``."""
    d = tuple(map(sub, c1, c2))
    total = 0
    for di, row in zip(d, rows):
        if di:
            for j, g in row:
                total += di * g * d[j]
    return total == -4


def minimality_check(X: FourManifoldModel) -> MinimalityVerdict:
    """Blowup-pairing obstruction on the SW table.

    In a blowup every basic class comes paired with a partner of the same
    magnitude differing by 2E, so (k1 - k2)^2 = -4.  Over the classes of
    magnitude >= 2 the verdict is three-way: ``minimal_certified`` when none
    of them has a partner, ``blowup_pair_found`` when every one does (the
    witness is the first class in table order with a later partner, and its
    first later partner), and ``inconclusive`` when some do and some do not.
    With no magnitude >= 2 class the test is silent (``inconclusive``).

    Partners share a magnitude, so each class looks for one only in its
    magnitude group: among the later entries first, then the earlier ones.
    A class found as the later partner of an earlier one is paired without a
    search, and the search stops as soon as the verdict is decided.
    """
    groups: dict[int, list[tuple[int, ...]]] = {}
    for coords, v in X.sw.entries:
        if abs(v) >= 2:
            groups.setdefault(abs(v), []).append(coords)
    if not groups:
        return MinimalityVerdict("inconclusive")
    rows = X.lattice.rows
    pairs, found, unpaired = [], set(), False
    for group in groups.values():
        for i, c in enumerate(group):
            if c in found:
                continue
            later = next((c2 for c2 in group[i + 1:] if _blowup_partners(rows, c, c2)), None)
            if later is not None:
                pairs.append((c, later))
                found.add(later)
            elif not any(_blowup_partners(rows, c, c2) for c2 in group[:i]):
                unpaired = True
            if pairs and unpaired:
                return MinimalityVerdict("inconclusive")
    if not pairs:
        return MinimalityVerdict("minimal_certified")
    # every class is paired, so the table's first one (first in the first
    # group) has a later partner and gave the first pair; the pair differs
    # by 2E, so E^2 = (k1 - k2)^2 / 4 = -1
    return MinimalityVerdict("blowup_pair_found", pairs[0], -1)


def fingerprint(X: FourManifoldModel) -> Fingerprint:
    """(b+, b-, parity, pi1 flag); parity is even iff every basis square is even."""
    b_plus, b_minus = X.b_plus_minus()
    parity = "even" if all(X.lattice.gram[i][i] % 2 == 0 for i in range(X.lattice.rank)) else "odd"
    return Fingerprint(b_plus, b_minus, parity, X.simply_connected)
