"""Route every trusted constructor through its public, validating twin.

Operations whose outputs hold their invariants by construction build them
with a private ``_trusted`` classmethod that checks nothing.
``validating_trusted()`` replaces each such classmethod by one that builds
the object both ways, asserts that every field agrees (fields left out of
equality, such as a lattice's name and sparse rows, included), and returns
the validated object.  A table built with a carried square (the k^2 every
class shares) must have that square on every class, and the validated
table carries it too, so ``dimension`` takes the same branch.  Memos are
cleared on entry and exit so that no object built one way is served under
the other.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from contextlib import contextmanager

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
        slow = cls(**{k: v for k, v in bound.items() if k in init_names})
        for f in fields:
            assert getattr(fast, f.name) == getattr(slow, f.name), (
                f"trusted {cls.__name__}.{f.name} differs from the validated one")
        if cls is SWTable and fast._square is not None:
            for coords, _ in slow.entries:
                assert square(HomologyClass(slow.lattice, coords)) == fast._square, (
                    f"SW class {coords} does not have the carried square {fast._square}")
            slow.__dict__["_square"] = fast._square
        return slow

    return classmethod(build)


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
