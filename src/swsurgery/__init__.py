"""Exact surgery calculus for simply connected 4-manifolds with b+ = 1.

Intersection lattices with exact integer arithmetic, formal Seiberg-Witten
bookkeeping (dimension formula, wall crossing, blowups, minimality), twist
knot surgery along the cubic fiber, blowdown chains with their lens-space
boundaries, and torus monodromy factorizations, plus scripted family
constructions with machine-checked verification reports.

The names below are the ones the README's library sketch imports; the rest
of the API lives in the submodules (``swsurgery.lattice``, ``.manifold``,
``.knots``, ``.plumbing``, ``.monodromy``, ``.models``, ``.pipelines``).
Each name imports its submodule on first access (PEP 562), so importing the
package, as every CLI command does, compiles none of them.
"""

__version__ = "0.1.0"
REPORT_VERSION = "1"  # the report schema's; here, so that --version imports no report

_SUBMODULE = {name: module for module, names in {
    "knots": ("alexander_twist", "e1_knot_surgery_sw", "knot_surgery_manifold"),
    "lattice": ("is_characteristic", "orthogonal_complement", "pair", "signature_and_betti", "square"),
    "manifold": ("blowup", "chamber_sw", "dimension", "fingerprint", "minimality_check"),
    "monodromy": ("evaluate", "parse_word", "verify_factorization"),
    "pipelines": ("FAMILIES", "build_family", "verify_paper"),
    "plumbing": ("boundary_lens_space", "cp_chain", "find_characteristic_lifts", "rational_blowdown"),
}.items() for name in names}
__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)


def __dir__():
    return __all__
