"""Route every trusted constructor through its public, validating twin.

Operations whose outputs hold their invariants by construction build them
with a private ``_trusted`` classmethod that checks nothing.
``validating_trusted()`` replaces each such classmethod by one that builds
the object both ways, asserts that every field agrees (fields left out of
equality, such as a lattice's name and sparse rows, included), and returns
the validated object.  A table is built trusted on a support: the
support's classes must be the validated table's classes in order, a
carried square (the k^2 every class shares) must be the square of every
class, and a blowup's pairing must hold (classes 2i and 2i + 1 share a
value and differ by a class of square -4).  The validated table takes the
support too, so ``dimension``, ``minimality_check`` and the blowdown take
the same branches.  Memos are cleared on entry and exit so that no object
built one way is served under the other.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from contextlib import contextmanager
from operator import sub

import swsurgery
from swsurgery.knots import LaurentPolynomial
from swsurgery.lattice import HomologyClass, IntersectionLattice, square
from swsurgery.manifold import FourManifoldModel, SWTable
from swsurgery.monodromy import IntegerMatrix2
from swsurgery.report import Check

TRUSTED = (HomologyClass, IntersectionLattice, SWTable, FourManifoldModel, LaurentPolynomial,
           IntegerMatrix2, Check)

# the classmethods as the package defines them, before any patching
SHIPPED = {cls: vars(cls)["_trusted"] for cls in TRUSTED}


def memos():
    """Every functools cache in the package, module-level or on a class."""
    found = []
    for info in pkgutil.iter_modules(swsurgery.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"swsurgery.{info.name}")
        values = list(vars(module).values())
        values += [v for c in values if inspect.isclass(c) for v in vars(c).values()]
        found += [v for v in values if hasattr(v, "cache_clear")]
    return found


def _validating(cls, trusted):
    signature = inspect.signature(trusted)
    fields = dataclasses.fields(cls)
    init_names = {f.name for f in fields if f.init}

    def build(klass, *args, **kwargs):
        fast = trusted(klass, *args, **kwargs)
        bound = signature.bind(klass, *args, **kwargs).arguments
        # a field the trusted form derives (a table's entries) is taken from it
        slow = cls(**{k: bound[k] if k in bound else getattr(fast, k) for k in init_names})
        if cls is SWTable:
            _check_support(slow, fast._support)
            slow.__dict__["_support"] = fast._support
        for f in fields:
            assert getattr(fast, f.name) == getattr(slow, f.name), (
                f"trusted {cls.__name__}.{f.name} differs from the validated one")
        return slow

    return classmethod(build)


def _check_support(table, support) -> None:
    assert support.coords == tuple(c for c, _ in table.entries), (
        "the support's classes are not the table's classes in order")
    if support.square is not None:
        for coords in support.coords:
            assert square(HomologyClass(table.lattice, coords)) == support.square, (
                f"SW class {coords} does not have the carried square {support.square}")
    if support.paired:
        for (k1, v1), (k2, v2) in zip(table.entries[::2], table.entries[1::2]):
            difference = HomologyClass(table.lattice, tuple(map(sub, k1, k2)))
            assert v1 == v2 and square(difference) == -4, (
                f"SW classes {k1} and {k2} are not a blowup pair")


@contextmanager
def validating_trusted():
    """Within the block every ``_trusted`` call is checked as described above.

    Blocks nest: each wraps the shipped classmethods and restores what it found.
    """
    saved = {cls: vars(cls)["_trusted"] for cls in TRUSTED}
    for memo in memos():
        memo.cache_clear()
    for cls in TRUSTED:
        setattr(cls, "_trusted", _validating(cls, SHIPPED[cls].__func__))
    try:
        yield
    finally:
        for cls, method in saved.items():
            setattr(cls, "_trusted", method)
        for memo in memos():
            memo.cache_clear()
