"""The standard models and class lists used by the family pipelines.

Everything is expressed over the rational elliptic surface lattice
diag(1, -1^9) with basis eta, eps1..eps9; the fiber is T = 3 eta - sum eps_i
and the reference chamber class h is eta.  Basis labels are stable across
knot surgery and blowups, so combinations such as eps5 - eps9 keep their
meaning in every model derived from E(1).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .knots import TwistKnot, knot_surgery_manifold
from .lattice import HomologyClass, IntersectionLattice
from .manifold import FourManifoldModel, SWTable, blowup
from .plumbing import ConfigurationEmbedding, cp_chain, e6_tilde_tree

E1_BASIS = ("eta",) + tuple(f"eps{i}" for i in range(1, 10))
E1_GRAM = tuple(
    tuple((1 if i == 0 else -1) if i == j else 0 for j in range(10)) for i in range(10)
)

PI1_NOTE_E1 = "rational elliptic surface: simply connected by construction"
PI1_NOTE_BLOWDOWN = (
    "a normal circle to a middle sphere generates the boundary fundamental group "
    "and bounds a disk in the complement, so the blown-down manifold is simply connected"
)


def class_from_coeffs(model: FourManifoldModel, coeffs: dict[str, int]) -> HomologyClass:
    """Integer combination of marked classes and basis labels."""
    marked = dict(model.marked)
    lattice = model.lattice
    total = [0] * lattice.rank
    for name, coeff in coeffs.items():
        coords = marked.get(name)
        if coords is None:
            total[lattice.index_of(name)] += coeff
        else:
            total = [t + coeff * x for t, x in zip(total, coords)]
    return HomologyClass._trusted(lattice, tuple(total))


@lru_cache(maxsize=1)
def e1() -> FourManifoldModel:
    """CP^2 blown up nine times, fibered by cubics; SW table empty.

    Built and validated once, on first use; the model is immutable.
    """
    lattice = IntersectionLattice(E1_BASIS, E1_GRAM, name="E1")
    fiber = lattice.element((3,) + (-1,) * 9)
    h = lattice.basis_class("eta")
    return FourManifoldModel(
        name="E1",
        lattice=lattice,
        euler=12,
        sign=-8,
        simply_connected=True,
        marked={"T": fiber, "h": h},
        sw=SWTable.empty(lattice),
        pi1_note=PI1_NOTE_E1,
    )


def y_n(n: int) -> FourManifoldModel:
    """Fiber surgery on E(1) with the n-twist knot; |SW(+-T)| = n."""
    base = e1()
    model = knot_surgery_manifold(base, base.marked_class("T"), TwistKnot(n))
    return model.renamed(f"Y{n}")


def v_n(n: int) -> FourManifoldModel:
    """Double fiber surgery with the 1- and n-twist knots.

    |SW(+-3T)| = n and |SW(+-T)| = 2n - 1.
    """
    base = e1()
    once = knot_surgery_manifold(base, base.marked_class("T"), TwistKnot(1))
    model = knot_surgery_manifold(once, once.marked_class("T"), TwistKnot(n))
    return model.renamed(f"V{n}")


def blowup_times(model: FourManifoldModel, count: int, name: str) -> FourManifoldModel:
    for _ in range(count):
        model = blowup(model)
    return model.renamed(name)


# The seven -2 spheres supporting the tree fiber, ordered S1..S7; S3 is the
# central vertex and the legs are (S2,S1), (S4,S5), (S6,S7).
E6_SPHERE_COEFFS = {
    "S1": {"eps4": 1, "eps7": -1},
    "S2": {"eps1": 1, "eps4": -1},
    "S3": {"eta": 1, "eps1": -1, "eps2": -1, "eps3": -1},
    "S4": {"eps2": 1, "eps5": -1},
    "S5": {"eps5": 1, "eps9": -1},
    "S6": {"eps3": 1, "eps6": -1},
    "S7": {"eps6": 1, "eps8": -1},
}


def e6_sphere_classes(model: FourManifoldModel) -> dict[str, HomologyClass]:
    return {name: class_from_coeffs(model, c) for name, c in E6_SPHERE_COEFFS.items()}


def e6_embedding(model: FourManifoldModel) -> ConfigurationEmbedding:
    spheres = e6_sphere_classes(model)
    return ConfigurationEmbedding(
        ambient=model,
        chain=e6_tilde_tree(),
        vertex_classes=tuple(spheres[f"S{i}"] for i in range(1, 8)),
    )


# A hexagon of six -2 spheres summing to the fiber, realizing the cycle fiber
# whose monodromy is the sixth power of a twist.  Exactly one component (c0)
# meets the section eps9, in one point.  These explicit classes are a derived
# realization; only their intersection profile is pinned by the construction.
I6_HEXAGON_COEFFS = {
    "c0": {"eps1": 1, "eps9": -1},
    "c1": {"eta": 1, "eps1": -1, "eps2": -1, "eps3": -1},
    "c2": {"eps2": 1, "eps4": -1},
    "c3": {"eta": 1, "eps2": -1, "eps5": -1, "eps6": -1},
    "c4": {"eps5": 1, "eps7": -1},
    "c5": {"eta": 1, "eps1": -1, "eps5": -1, "eps8": -1},
}


# Intersection profile of the W_n chain: the five cycle components pair to
# zero with T, E0, E1, and only the first vertex meets u0.  This is the data
# the qn profile checks consume: the explicit realization (the qn row of
# pipelines.FAMILIES) is compared with it, and the lift search runs on its
# rows, given as (name, row) pairs.
WN_C7_PROFILE = MappingProxyType({
    "gram": cp_chain(7).matrix(),
    "pairings": (
        ("T", (1, 0, 0, 0, 0, 0)),
        ("E0", (2, 0, 0, 0, 0, 0)),
        ("E1", (2, 0, 0, 0, 0, 0)),
    ),
})
