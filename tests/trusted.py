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
the same branches.  A model built with an Alexander product (knot surgery's)
must hold the product of its surgery history, and the product must be new:
one that an earlier model holds was passed on (by ``renamed`` or ``blowup``,
say), which a model with another history could then read.  The validated
model takes the product too.  Memos are cleared on entry and exit so that
no object built one way is served under the other.  A support's blowdown
slot (``_Support.blowdown``) outlives the memos, but it serves a call only
for the chain plan it holds, by identity, and plans are memo entries: a
slot filled on one side of a block serves no blowdown on the other.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import pkgutil
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from operator import sub

import swsurgery
from swsurgery.knots import LaurentPolynomial, _as_alexander
from swsurgery.lattice import HomologyClass, IntersectionLattice, square
from swsurgery.manifold import FourManifoldModel, SWTable
from swsurgery.monodromy import IntegerMatrix2
from swsurgery.report import Check

TRUSTED = (HomologyClass, IntersectionLattice, SWTable, FourManifoldModel, LaurentPolynomial,
           IntegerMatrix2, Check)

# the classmethods as the package defines them, before any patching
SHIPPED = {cls: vars(cls)["_trusted"] for cls in TRUSTED}


def memos() -> dict:
    """Every functools cache in the package, module-level or on a class, once,
    by the name its defining module binds it to (``plumbing._chain_plan``,
    or ``module.Class.name`` on a class); names other modules import are
    left out."""
    found = {}
    for info in pkgutil.iter_modules(swsurgery.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"swsurgery.{info.name}")
        scopes = [(info.name, vars(module))]
        scopes += [(f"{info.name}.{name}", vars(c)) for name, c in vars(module).items()
                   if inspect.isclass(c) and c.__module__ == module.__name__]
        found.update((f"{prefix}.{name}", v) for prefix, scope in scopes for name, v in scope.items()
                     if hasattr(v, "cache_clear") and v.__module__ == module.__name__)
    return found


def counting(monkeypatch, names) -> Counter:
    """Count the calls of each named function or method, keyed by its name.

    A name is ``module.function`` or ``module.Class.method`` of the package
    (``"manifold.dimension"``, ``"manifold._Support.partnered"``).  A function
    is counted through every ``swsurgery.*`` module that binds it, under any
    name, so a call through another module's import is counted too; a method
    is counted on its class.  The wrappers only count, and ``monkeypatch``
    removes them.
    """
    calls = Counter()
    for name in names:
        module, *owners, attr = name.split(".")
        owner = importlib.import_module(f"swsurgery.{module}")
        for part in owners:
            owner = getattr(owner, part)
        target = vars(owner)[attr]
        assert inspect.isfunction(target), f"{name} is not a function or method"

        def counted(*args, _name=name, _target=target, **kwargs):
            calls[_name] += 1
            return _target(*args, **kwargs)

        if owners:
            monkeypatch.setattr(owner, attr, counted)
            continue
        for module_name, scope in list(sys.modules.items()):
            if module_name.partition(".")[0] == "swsurgery":
                for bound, value in list(vars(scope).items()):
                    if value is target:
                        monkeypatch.setattr(scope, bound, counted)
    return calls


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
        if "_alexander" in vars(fast):
            _check_product(slow, fast._alexander)
            slow.__dict__["_alexander"] = fast._alexander
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


# every Alexander product a model was built with, by id; a weak reference,
# so an id in it is that of a live product
_STORED_PRODUCTS = weakref.WeakValueDictionary()


def _check_product(model, product) -> None:
    """Assert that ``product`` is the product of ``model``'s surgery history,
    multiplied out term by term (not by ``LaurentPolynomial.__mul__``, whose
    calls tests count), and that no earlier model holds it."""
    expected = {0: 1}
    for polynomial in map(_as_alexander, model.surgery_history):
        terms = {}
        for (e1, c1), (e2, c2) in itertools.product(expected.items(), polynomial.terms):
            terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
        expected = {e: c for e, c in terms.items() if c}
    assert dict(product.terms) == expected, "the stored Alexander product is not the surgery history's"
    assert _STORED_PRODUCTS.get(id(product)) is not product, (
        "an Alexander product stored on one model was passed on to another")
    _STORED_PRODUCTS[id(product)] = product


@contextmanager
def validating_trusted():
    """Within the block every ``_trusted`` call is checked as described above.

    Blocks nest: each wraps the shipped classmethods and restores what it found.
    """
    saved = {cls: vars(cls)["_trusted"] for cls in TRUSTED}
    for memo in memos().values():
        memo.cache_clear()
    for cls in TRUSTED:
        setattr(cls, "_trusted", _validating(cls, SHIPPED[cls].__func__))
    try:
        yield
    finally:
        for cls, method in saved.items():
            setattr(cls, "_trusted", method)
        for memo in memos().values():
            memo.cache_clear()
