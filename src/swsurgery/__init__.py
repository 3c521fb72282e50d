"""Exact surgery calculus for simply connected 4-manifolds with b+ = 1.

Intersection lattices with exact integer arithmetic, formal Seiberg-Witten
bookkeeping (dimension formula, wall crossing, blowups, minimality), twist
knot surgery along the cubic fiber, blowdown chains with their lens-space
boundaries, and torus monodromy factorizations, plus scripted family
constructions with machine-checked verification reports.

The names below are the ones the README's library sketch imports; the rest
of the API lives in the submodules (``swsurgery.lattice``, ``.manifold``,
``.knots``, ``.plumbing``, ``.monodromy``, ``.models``, ``.pipelines``).
"""

from .knots import alexander_twist, e1_knot_surgery_sw, knot_surgery_manifold
from .lattice import (
    is_characteristic,
    orthogonal_complement,
    pair,
    signature_and_betti,
    square,
)
from .manifold import blowup, chamber_sw, dimension, fingerprint, minimality_check
from .monodromy import evaluate, parse_word, verify_factorization
from .pipelines import FAMILIES, build_family, build_Qn, build_Xn, verify_paper
from .plumbing import (
    boundary_lens_space,
    cp_chain,
    find_characteristic_lifts,
    rational_blowdown,
)

__version__ = "0.1.0"
