"""Finitely generated integral lattices with symmetric bilinear forms.

All homology bookkeeping in the package reduces to exact arithmetic on these
lattices: integer coordinate vectors against a fixed ordered basis of named
generators, paired through an integer Gram matrix.  No floating point.
Pairings and characteristic tests run over the sparse rows of the Gram
(its nonzero entries only), so they cost O(n) on the diagonal forms of E(1)
and its blowups and stay exact on any other Gram.

Validation happens once, at the boundary.  The public constructors
``IntersectionLattice(...)``, ``HomologyClass(...)`` and
``IntersectionLattice.element`` check (and coerce) outside data: unique
labels, a square symmetric integer Gram, nondegeneracy, and the coordinate
length.  Model JSON enters through
``manifold.FourManifoldModel.from_dict``, which builds its lattice with the
public constructor.  Each type also has a private classmethod
``_trusted`` that sets the fields and checks nothing.  Only operations whose
outputs hold the invariants by construction use it: class arithmetic
(``+ - neg *``) of two classes of one lattice keeps the coordinate length,
``basis_class``, ``zero`` and the kernel rows of ``orthogonal_complement``
have the rank's length, and the lattices built by ``manifold.blowup`` (a
direct sum with <-1>) and ``plumbing.rational_blowdown`` (a Gram checked
unimodular) are symmetric and nondegenerate by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, sub
from typing import NamedTuple

from .exactmat import (
    dot,
    freeze,
    inertia,
    is_symmetric,
    kernel_rows,
    row_echelon_unimodular,
)


class LatticeMismatchError(ValueError):
    """Classes from two different lattices were combined."""


class DegenerateFormError(ValueError):
    """A nondegenerate form was required but the Gram matrix has a radical."""

    def __init__(self, message: str, radical=None):
        super().__init__(message)
        self.radical = radical


@dataclass(frozen=True)
class IntersectionLattice:
    """Free abelian group with a nondegenerate integer symmetric pairing, as
    closed manifolds carry."""

    basis: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    name: str = field(default="", compare=False)  # a label: equality is basis and Gram
    # rows[i] = ((j, gram[i][j]), ...) over the nonzero entries of row i
    rows: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(str(b) for b in self.basis))
        gram = freeze(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "rows", _sparse_rows(gram))
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("basis labels must be unique")
        if len(self.gram) != len(self.basis):
            raise ValueError("gram size does not match basis")
        if not is_symmetric(self.gram):
            raise ValueError("gram matrix must be symmetric")
        if _signature_cached(gram)[2]:
            raise DegenerateFormError(f"lattice {self.name or '<unnamed>'} is degenerate",
                                      radical=kernel_rows(gram)[0])

    @classmethod
    def _trusted(cls, basis, gram, name: str = "", rows=None):
        """A lattice from a str-label basis and a symmetric int Gram, known
        valid and nondegenerate; nothing is checked.
        ``rows`` are the sparse rows of ``gram`` when the caller has them."""
        self = object.__new__(cls)
        self.__dict__.update(basis=basis, gram=gram, name=name,
                             rows=_sparse_rows(gram) if rows is None else rows)
        return self

    def __hash__(self) -> int:  # hashed once: every memo is keyed on a lattice
        cached = self.__dict__
        return cached.get("_hash") or cached.setdefault("_hash", hash((self.basis, self.gram)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def index_of(self, label: str) -> int:
        try:
            return self.basis.index(label)
        except ValueError:
            raise KeyError(f"no basis label {label!r} in lattice {self.name!r}") from None

    def basis_class(self, label: str) -> "HomologyClass":
        i = self.index_of(label)
        coords = [0] * self.rank
        coords[i] = 1
        return HomologyClass._trusted(self, tuple(coords))

    def zero(self) -> "HomologyClass":
        return HomologyClass._trusted(self, (0,) * self.rank)

    def element(self, coords) -> "HomologyClass":
        """The class with the given coordinates, coerced to an int tuple."""
        return HomologyClass(self, tuple(int(c) for c in coords))


def _sparse_rows(gram) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(tuple((j, g) for j, g in enumerate(row) if g) for row in gram)


def same_lattice(a: IntersectionLattice, b: IntersectionLattice) -> bool:
    return a is b or (a.basis == b.basis and a.gram == b.gram)


@dataclass(frozen=True)
class HomologyClass:
    """Coordinates against the lattice basis.

    ``coords`` must already be a tuple of ints: outside data is coerced once,
    where it enters (``IntersectionLattice.element``, the model ``from_dict``).
    """

    lattice: IntersectionLattice
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.lattice.rank:
            raise ValueError(
                f"coordinate length {len(self.coords)} != lattice rank {self.lattice.rank}"
            )

    @classmethod
    def _trusted(cls, lattice: IntersectionLattice, coords: tuple[int, ...]) -> "HomologyClass":
        """A class whose coordinates are known to have the lattice's rank."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["lattice"] = lattice
        fields["coords"] = coords
        return self

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        require_same_lattice(self.lattice, other.lattice)
        return HomologyClass._trusted(self.lattice, tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        require_same_lattice(self.lattice, other.lattice)
        return HomologyClass._trusted(self.lattice, tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "HomologyClass":
        return HomologyClass._trusted(self.lattice, tuple(-a for a in self.coords))

    def __mul__(self, n: int) -> "HomologyClass":
        return HomologyClass._trusted(self.lattice, tuple(n * a for a in self.coords))

    __rmul__ = __mul__


def require_same_lattice(a: IntersectionLattice, b: IntersectionLattice):
    if not same_lattice(a, b):
        raise LatticeMismatchError(
            f"classes live in different lattices ({a.name!r} vs {b.name!r})"
        )


def pair(x: HomologyClass, y: HomologyClass) -> int:
    """Intersection pairing x . y = x^T G y; symmetric and bilinear."""
    require_same_lattice(x.lattice, y.lattice)
    yc = y.coords
    total = 0
    for xi, row in zip(x.coords, x.lattice.rows):
        if xi:
            for j, g in row:
                total += xi * g * yc[j]
    return total


def square(x: HomologyClass) -> int:
    return pair(x, x)


def gram_image(x: HomologyClass) -> tuple[int, ...]:
    """G x, so that x . y is the dot product of y's coordinates with it."""
    c = x.coords
    image = []
    for row in x.lattice.rows:
        total = 0
        for j, g in row:
            total += g * c[j]
        image.append(total)
    return tuple(image)


def is_characteristic(k: HomologyClass) -> bool:
    """True iff k . x == x . x mod 2 for every x (checked on the basis)."""
    c = k.coords
    gram = k.lattice.gram
    for i, row in enumerate(k.lattice.rows):
        kx = 0
        for j, g in row:
            kx += g * c[j]
        if (kx - gram[i][i]) % 2:
            return False
    return True


@lru_cache(maxsize=256)
def _signature_cached(gram) -> tuple[int, int, int]:
    """(b+, b-, nullity) of a symmetric Gram.

    One integer elimination per distinct Gram serves both the nondegeneracy
    check of every new lattice and its signature.
    """
    return inertia(gram)


def _signature(gram) -> tuple[int, int]:
    b_plus, b_minus, nullity = _signature_cached(gram)
    if nullity:
        radical = kernel_rows(gram)[0]
        raise DegenerateFormError(f"degenerate form; radical vector {radical}", radical=radical)
    return b_plus, b_minus


def signature_and_betti(lattice: IntersectionLattice) -> tuple[int, int]:
    """(b+, b-) by fraction-free symmetric elimination (``exactmat.inertia``)."""
    return _signature(lattice.gram)


class Sublattice(NamedTuple):
    """Integral basis of a sublattice of an ambient lattice with its induced Gram."""

    ambient: IntersectionLattice
    vectors: tuple[HomologyClass, ...]
    gram: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def signature_and_betti(self) -> tuple[int, int]:
        return _signature(self.gram)


def orthogonal_complement(lattice: IntersectionLattice, classes) -> Sublattice:
    """Saturated sublattice {x : x . u = 0 for every given u}, with induced Gram.

    The given classes must be linearly independent.
    """
    classes = tuple(classes)
    for u in classes:
        if not same_lattice(u.lattice, lattice):
            raise LatticeMismatchError("complement classes must live in the given lattice")
    if not classes:
        vectors = tuple(lattice.basis_class(label) for label in lattice.basis)
        return Sublattice(lattice, vectors, lattice.gram)
    echelon, _ = row_echelon_unimodular(tuple(u.coords for u in classes))
    if sum(1 for row in echelon if any(row)) != len(classes):
        raise ValueError("complement input classes are linearly dependent")
    basis_rows = kernel_rows(tuple(gram_image(u) for u in classes))
    vectors = tuple(HomologyClass._trusted(lattice, row) for row in basis_rows)
    # one image G v per vector; v . w is then a dot product, mirrored below the diagonal
    gram = [[0] * len(basis_rows) for _ in basis_rows]
    for i, v in enumerate(vectors):
        image = gram_image(v)
        for j in range(i, len(basis_rows)):
            gram[i][j] = gram[j][i] = dot(image, basis_rows[j])
    return Sublattice(lattice, vectors, freeze(gram))
