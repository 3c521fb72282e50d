"""The per-layer metrics: which package functions the traced run wraps.

Each entry names a function by module and qualified name (``Class.method``
for methods), the statistics reported for it, and the end-to-end metric and
workload it is expected to move.  A later change that claims a speed-up on
one layer cites the prediction here, and the workload that should show no
change.  Metric names are ``<module>.<qualname>.<stat>``.
"""

from __future__ import annotations

# The prediction for every function of a module, keyed by module name.
MOVES = {
    "exactmat": "ops_per_s and op_p50_ms on chains (dominant), a little on families; "
                "no change on calculus",
    "lattice": "op_p50_ms on families and calculus",
    "manifold": "op_p50_ms and op_tail_ms on calculus, and families",
    "knots": "op_p50_ms and op_tail_ms on calculus",
    "plumbing": "families (rational_blowdown) and chains (inverse, relative square)",
    "monodromy": "op_tail_ms on calculus",
    "models": "op_p50_ms on families",
    "pipelines": "families and cli",
    "report": "cli",
    "cli": "op_p50_ms on cli",
    "trace": "nothing end to end: the cost of tracing itself",
}

# (module, qualname, stats)
FUNCTIONS = (
    ("exactmat", "bareiss_det", ("calls", "self_s")),
    ("exactmat", "rational_inverse", ("calls", "self_s")),
    ("exactmat", "kernel_rows", ("self_s",)),
    ("exactmat", "hnf_row_basis", ("self_s",)),
    ("exactmat", "symmetric_diagonalize", ("calls", "self_s")),
    ("lattice", "pair", ("calls", "self_s")),
    ("lattice", "is_characteristic", ("calls", "self_s")),
    ("lattice", "orthogonal_complement", ("self_s",)),
    ("lattice", "signature_and_betti", ("calls",)),
    ("lattice", "IntersectionLattice.__post_init__", ("calls", "self_s")),
    ("manifold", "FourManifoldModel.__post_init__", ("calls", "self_s")),
    ("manifold", "SWTable.__post_init__", ("calls", "self_s")),
    ("manifold", "blowup", ("self_s", "kept_ratio")),
    ("manifold", "dimension", ("calls", "self_s")),
    ("manifold", "chamber_sw", ("self_s",)),
    ("manifold", "minimality_check", ("self_s",)),
    ("knots", "poly_in_s", ("self_s",)),
    ("knots", "e1_knot_surgery_sw", ("self_s",)),
    ("knots", "knot_surgery_manifold", ("self_s",)),
    ("plumbing", "intersection_matrix", ("calls", "hit_ratio")),
    ("plumbing", "PlumbingForm.inverse", ("self_s",)),
    ("plumbing", "boundary_lens_space", ("self_s",)),
    ("plumbing", "relative_square_of_restriction", ("calls", "self_s")),
    ("plumbing", "find_characteristic_lifts", ("self_s", "kept_ratio")),
    ("plumbing", "verify_embedding", ("self_s",)),
    ("plumbing", "rational_blowdown", ("self_s", "total_s")),
    ("monodromy", "parse_word", ("self_s",)),
    ("monodromy", "evaluate", ("calls", "self_s")),
    ("monodromy", "verify_factorization", ("total_s",)),
    ("models", "y_n", ("total_s",)),
    ("models", "blowup_times", ("total_s",)),
    ("models", "class_from_coeffs", ("calls", "self_s")),
    ("pipelines", "build_Xn", ("total_s",)),
    ("pipelines", "build_Qn", ("total_s",)),
    ("pipelines", "build_b7_family", ("total_s",)),
    ("pipelines", "build_b8_family", ("total_s",)),
    ("pipelines", "verify_paper", ("total_s",)),
    ("report", "VerificationReport.add", ("calls", "self_s")),
    ("report", "VerificationReport.to_json", ("self_s",)),
    ("cli", "main", ("total_s",)),
)

# Metrics measured apart from the spans: the median wall time of a
# ``--version`` subprocess, and traced / untraced wall time of the same ops.
EXTRA = (
    ("cli.startup_ms", "ms", "lower", "cli"),
    ("trace.overhead_ratio", "ratio", "lower", "trace"),
)

STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "kept_ratio": ("ratio", "higher"),
    "hit_ratio": ("ratio", "higher"),
}


def metric_specs():
    """Every per-layer metric as (name, unit, better, prediction), in order."""
    specs = []
    for module, qualname, stats in FUNCTIONS:
        for stat in stats:
            unit, better = STAT_UNITS[stat]
            specs.append((f"{module}.{qualname}.{stat}", unit, better, MOVES[module]))
    for name, unit, better, module in EXTRA:
        specs.append((name, unit, better, MOVES[module]))
    return specs
