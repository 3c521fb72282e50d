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
with k, and d(k +- E) = d(k)), ``renamed``, the knot surgery of ``knots``,
and ``plumbing.rational_blowdown``, whose chain plan proves the pushed-down
classes characteristic and knows their squares, and which checks the rest.
``dimension`` runs the characteristic test only on classes outside the
model's own table.

A trusted table is built on a support (``_Support``): its classes, and the
square k^2 they share when exact by construction, made once per class set
by knot surgery (j T with T^2 = 0), ``blowup`` ((k +- E)^2 = k^2 - 1) and the
blowdown's chain plan; the values ride along by index.  ``dimension`` reads
that square; a public table builds its own support, with none, on first use.
Per-class queries find a class by the support's index, and ``chamber_sw``
reads a table class's sides (h.k, H.k), taken in one pass per chamber, and
its jump only across a wall.  ``minimality_check`` reads a blowup's verdict
off its support's pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import sub
from typing import NamedTuple

from .exactmat import dot
from .lattice import (
    HomologyClass,
    IntersectionLattice,
    gram_image,
    is_characteristic,
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


class _Support:
    """A table's classes in order and their common square or None, compared by
    identity; if ``paired``, classes 2i and 2i + 1 differ by 2E (a blowup's).
    ``blowdown`` holds what the last ``plumbing.rational_blowdown`` proved."""

    def __init__(self, coords, square=None, paired=False):
        self.coords, self.square, self.paired, self.partners = coords, square, paired, {}
        self._sides = None, ()  # (chamber facts, their sides) for the last facts asked

    blowdown = (None,) * 5  # until a blowdown writes (plan, records, period, h, new support)

    index = cached_property(lambda self: {c: i for i, c in enumerate(self.coords)})  # c -> position

    def sides(self, facts) -> list[tuple[int, int]]:
        """(h.k, H.k) of every class for the ``_chamber_facts`` tuple ``facts``;
        the slot is read once, so another chamber's write cannot slip in."""
        slot = self._sides
        if slot[0] is not facts:
            slot = self._sides = facts, [tuple(dot(image, c) for image in facts[2:4])
                                         for c in self.coords]
        return slot[1]

    @cached_property
    def blown_up(self) -> "_Support":
        """The blowup's support: each (sorted, distinct) class c as c - E, c + E."""
        return _Support(tuple(c + (eps,) for c in self.coords for eps in (-1, 1)),
                        None if self.square is None else self.square - 1, True)

    def partnered(self, lattice, i, j) -> bool:
        """Whether classes i and j differ by 2E with E^2 = -1 in ``lattice``."""
        if (i, j) not in self.partners:
            self.partners[i, j] = _blowup_partners(lattice, self.coords[i], self.coords[j])
        return self.partners[i, j]


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

    @classmethod
    def _trusted(cls, lattice: IntersectionLattice, support: _Support, values,
                 convention_note: str = DEFAULT_CONVENTION):
        """The table with ``values`` (nonzero ints, in order) at the classes of
        ``support``, known to form a valid table in ``lattice``; nothing is checked."""
        self = object.__new__(cls)
        self.__dict__.update(lattice=lattice, entries=tuple(zip(support.coords, values)),
                             convention_note=convention_note, _support=support)
        return self

    # a public table's support, built on first use; not a field
    _support = cached_property(lambda self: _Support(tuple(c for c, _ in self.entries)))

    def classes(self) -> tuple[HomologyClass, ...]:
        trusted, lattice = HomologyClass._trusted, self.lattice
        return tuple([trusted(lattice, c) for c, _ in self.entries])

    def value(self, k: HomologyClass) -> int:
        if not same_lattice(k.lattice, self.lattice):
            raise ValueError("class does not live in the table's lattice")
        i = self._support.index.get(k.coords)
        return 0 if i is None else self.entries[i][1]

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
                 pi1_note: str = "", surgery_history: tuple = (),
                 _alexander=None) -> "FourManifoldModel":
        """A model known to be valid, with ``marked`` a sorted tuple of
        (label, coordinate tuple) pairs; nothing is checked.  Knot surgery
        passes the product of ``surgery_history``, kept but not a field."""
        self = object.__new__(cls)
        self.__dict__.update(
            name=name, lattice=lattice, euler=euler, sign=sign,
            simply_connected=simply_connected, marked=marked, sw=sw,
            pi1_note=pi1_note, surgery_history=surgery_history,
        )
        if _alexander is not None:
            self.__dict__["_alexander"] = _alexander
        return self

    def _replaced(self, **changes) -> "FourManifoldModel":
        """This model with some fields changed by a caller that keeps it valid,
        without the Alexander product unless ``changes`` gives one."""
        return FourManifoldModel._trusted(**{**self.__dict__, "_alexander": None, **changes})

    def marked_class(self, name: str) -> HomologyClass:
        for label, coords in self.marked:
            if label == name:
                return HomologyClass._trusted(self.lattice, coords)
        raise KeyError(f"model {self.name!r} has no marked class {name!r}")

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
        facts = _chamber_facts(self.model.lattice, self.period.coords, self.model.marked_class("h").coords)
        if facts[0] <= 0:
            raise ValueError("period class must have positive square")
        if facts[1] <= 0:
            raise ValueError("period class must pair positively with the marked class h")
        object.__setattr__(self, "_facts", facts)  # not a field: never compared or hashed


@lru_cache(maxsize=64)
def _chamber_facts(lattice: IntersectionLattice, period, h):
    """(H^2, H.h, G h, G H, b+) of the period H and the class h, by coordinates."""
    image = gram_image(HomologyClass._trusted(lattice, period))
    return (dot(period, image), dot(h, image),
            gram_image(HomologyClass._trusted(lattice, h)), image, signature_and_betti(lattice)[0])


def dimension(X: FourManifoldModel, k: HomologyClass) -> int:
    """Formal dimension d(k) = (k^2 - 3 sign - 2 euler) / 4 for characteristic k."""
    if k.lattice is not X.lattice and not same_lattice(k.lattice, X.lattice):
        raise ValueError("class does not live in the model lattice")
    # a class of the model's own table is characteristic (checked or by
    # construction), so only others are tested; its support may carry k^2
    support, carried = X.sw._support, None
    if k.coords in support.index:
        carried = support.square
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

    A table class is found by one lookup in the support's index, and its
    jump is taken only across a wall: it is characteristic with d(k) >= 0
    and even, so the jump rule cannot refuse it.  Any other class runs the
    rule first, so its characteristic and dimension errors come before a
    wall's.
    """
    facts = H._facts
    b_plus = facts[4] if H.model is X else signature_and_betti(X.lattice)[0]
    if b_plus != 1:
        raise ValueError(f"chamber invariants require b+ = 1, got b+ = {b_plus}")
    if H.model is not X and H.model != X:
        raise ValueError("chamber belongs to a different model")
    if k.lattice is not X.lattice and not same_lattice(k.lattice, X.lattice):
        raise ValueError("class does not live in the model lattice")
    support = X.sw._support
    i = support.index.get(k.coords)  # H.model equals X, so h is X's h
    if i is None:
        jump = wall_crossing_delta(X, k)
        hk, Hk = (dot(image, k.coords) for image in facts[2:4])
        base = 0
    else:
        hk, Hk = support.sides(facts)[i]
        base = X.sw.entries[i][1]
    if Hk == 0:
        raise OnWallError(f"period class lies on the wall of {k.coords}")
    if hk == 0:
        raise OnWallError("the reference class h lies on the wall of this class")
    if (Hk > 0) == (hk > 0):
        return base
    if i is not None:
        jump = wall_crossing_delta(X, k)
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


@lru_cache(maxsize=64)
def _blowup_marked(marked, label: str, rank: int):
    """The rank-``rank`` parent's ``marked`` classes, and the new ``label``."""
    return tuple(sorted([(name, coords + (0,)) for name, coords in marked]
                        + [(label, (0,) * rank + (1,))]))


def blowup(X: FourManifoldModel, label: str | None = None) -> FourManifoldModel:
    """Connected sum with an orientation-reversed projective plane.

    Appends an exceptional generator E of square -1, bumps (euler, sign) by
    (+1, -1), and replaces the SW table by {k +- E -> value(k)}.

    The output is valid by construction, so it is built trusted: k +- E is
    characteristic with k (E^2 = -1 is odd), the table stays closed under
    negation, and (k +- E)^2 = k^2 - 1 against 3 sign + 2 euler dropping by 1
    keeps d(k) >= 0 and even, so no entry is pruned.  The parent support's
    ``blown_up`` child holds the classes, and the values ride along by index.
    """
    label = str(label or _next_exceptional_label(X.lattice))
    if label in X.lattice.basis:
        raise ValueError(f"label {label!r} already present")
    lattice = _blowup_lattice(X.lattice, X.lattice.name, label)
    return FourManifoldModel._trusted(
        name=f"{X.name}#cp2bar",
        lattice=lattice,
        euler=X.euler + 1,
        sign=X.sign - 1,
        simply_connected=X.simply_connected,
        marked=_blowup_marked(X.marked, label, X.lattice.rank),
        sw=SWTable._trusted(lattice, X.sw._support.blown_up,
                            [v for _, v in X.sw.entries for _ in (0, 1)], X.sw.convention_note),
        pi1_note=X.pi1_note,
        surgery_history=X.surgery_history,
    )


class MinimalityVerdict(NamedTuple):
    status: str  # "minimal_certified" | "blowup_pair_found" | "inconclusive"
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    e_square: int | None = None


def _blowup_partners(lattice, c1, c2) -> bool:
    """Whether the classes with coordinates c1, c2 of ``lattice`` differ by
    2E with E^2 = -1, that is (k1 - k2)^2 = -4."""
    d = tuple(map(sub, c1, c2))
    return dot(d, gram_image(HomologyClass._trusted(lattice, d))) == -4


def minimality_check(X: FourManifoldModel) -> MinimalityVerdict:
    """Blowup-pairing obstruction on the SW table.

    In a blowup every basic class comes paired with a partner of the same
    magnitude differing by 2E, so (k1 - k2)^2 = -4.  Over the classes of
    magnitude >= 2 the verdict is three-way: ``minimal_certified`` when none
    of them has a partner, ``blowup_pair_found`` when every one does (the
    witness is the first class in table order with a later partner, and its
    first later partner), and ``inconclusive`` when some do and some do not.
    With no magnitude >= 2 class the test is silent (``inconclusive``).

    A blowup's table is paired by its support: class 2i + 1 is class 2i
    plus 2E, with the same value, so every class has a partner and the
    verdict is ``blowup_pair_found`` with the first class of magnitude >= 2
    (an even position) and the next, with no partner test.

    On any other support, partners share a magnitude, so each class looks
    for one only in its magnitude group: among the later entries first, then
    the earlier ones.  A class found as the later partner of an earlier one
    is paired without a search, and the search stops as soon as the verdict
    is decided.  The support keeps each partner test it answers.
    """
    support = X.sw._support
    if support.paired:
        i = next((i for i, (_, v) in enumerate(X.sw.entries) if abs(v) >= 2), None)
        if i is None:
            return MinimalityVerdict("inconclusive")
        return MinimalityVerdict("blowup_pair_found", (support.coords[i], support.coords[i ^ 1]), -1)
    groups: dict[int, list[int]] = {}
    for i, (_, v) in enumerate(X.sw.entries):
        if abs(v) >= 2:
            groups.setdefault(abs(v), []).append(i)
    if not groups:
        return MinimalityVerdict("inconclusive")
    lattice = X.lattice
    pairs, found, unpaired = [], set(), False
    for group in groups.values():
        for pos, i in enumerate(group):
            if i in found:
                continue
            later = next((j for j in group[pos + 1:] if support.partnered(lattice, i, j)), None)
            if later is not None:
                pairs.append((i, later))
                found.add(later)
            elif not any(support.partnered(lattice, i, j) for j in group[:pos]):
                unpaired = True
            if pairs and unpaired:
                return MinimalityVerdict("inconclusive")
    if not pairs:
        return MinimalityVerdict("minimal_certified")
    # every class is paired, so the table's first one (first in the first
    # group) has a later partner and gave the first pair; the pair differs
    # by 2E, so E^2 = (k1 - k2)^2 / 4 = -1
    return MinimalityVerdict("blowup_pair_found", tuple(support.coords[i] for i in pairs[0]), -1)


def fingerprint(X: FourManifoldModel) -> Fingerprint:
    """(b+, b-, parity, pi1 flag); parity is even iff every basis square is even."""
    b_plus, b_minus = signature_and_betti(X.lattice)
    parity = "even" if all(X.lattice.gram[i][i] % 2 == 0 for i in range(X.lattice.rank)) else "odd"
    return Fingerprint(b_plus, b_minus, parity, X.simply_connected)
