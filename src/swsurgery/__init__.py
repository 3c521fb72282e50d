"""Exact surgery calculus for simply connected 4-manifolds with b+ = 1.

Intersection lattices with exact integer arithmetic, formal Seiberg-Witten
bookkeeping (dimension formula, wall crossing, blowups, minimality), twist
knot surgery along the cubic fiber, blowdown chains with their lens-space
boundaries, and torus monodromy factorizations, plus scripted family
constructions with machine-checked verification reports.
"""

from .knots import (
    LaurentPolynomial,
    TwistKnot,
    alexander_twist,
    e1_knot_surgery_sw,
    knot_surgery_manifold,
    poly_in_s,
)
from .lattice import (
    DegenerateFormError,
    HomologyClass,
    IntersectionLattice,
    LatticeMismatchError,
    Sublattice,
    is_characteristic,
    orthogonal_complement,
    pair,
    signature_and_betti,
    square,
)
from .manifold import (
    Chamber,
    Fingerprint,
    FourManifoldModel,
    MinimalityVerdict,
    NonCharacteristicError,
    OnWallError,
    SWTable,
    blowup,
    chamber_sw,
    dimension,
    fingerprint,
    make_model,
    minimality_check,
    wall_crossing_delta,
)
from .monodromy import (
    IntegerMatrix2,
    MCGWord,
    WordSyntaxError,
    evaluate,
    parabolic_width,
    parse_word,
    verify_factorization,
)
from .pipelines import (
    FAMILIES,
    build_b7_family,
    build_b8_family,
    build_family,
    build_Qn,
    build_Xn,
    verify_paper,
)
from .plumbing import (
    ConfigurationEmbedding,
    EmbeddingError,
    LensSpace,
    PlumbingChain,
    boundary_lens_space,
    cp_chain,
    e6_tilde_tree,
    find_characteristic_lifts,
    intersection_matrix,
    rational_blowdown,
    relative_square_of_restriction,
    verify_embedding,
)
from .report import Check, VerificationReport

__version__ = "0.1.0"
