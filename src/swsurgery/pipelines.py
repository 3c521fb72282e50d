"""End-to-end family constructions and the master verification suite.

Each family of simply connected b+ = 1 manifolds is one row of FAMILIES;
build_family reconstructs it from the rational elliptic surface by knot
surgery, blowups, and a rational blowdown, and returns the final model
together with a report asserting every numerical claim along the way.  SW data is compared by absolute value; the
signed values follow the recorded quotient convention.

The parameter n enters only through the knot's Alexander polynomial, so each
family has one plan per process (``_family_plan``): its vertex, chamber and
lift classes, the embedding with its vertex images, and the computed side of
every check that depends only on the lattice, the marked classes and the SW
classes (the qn monodromy and profile checks included).  The steps map one
SW support (a table's classes) to the next through memos, so a build at a
new n computes the SW values, carries them by index, and emits the plan's
values, already canonical, in their places.  verify_paper's lattice and
plumbing sections report from the xn and qn plans as well.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Callable, NamedTuple

from . import models
from .knots import alexander_twist, e1_knot_surgery_sw, poly_in_s
from .lattice import (
    HomologyClass,
    IntersectionLattice,
    is_characteristic,
    orthogonal_complement,
    pair,
    signature_and_betti,
    square,
)
from .manifold import (
    Chamber,
    FourManifoldModel,
    blowup,
    chamber_sw,
    dimension,
    fingerprint,
    minimality_check,
    wall_crossing_delta,
)
from .models import (
    E6_SPHERE_COEFFS,
    I6_HEXAGON_COEFFS,
    PI1_NOTE_BLOWDOWN,
    blowup_times,
    class_from_coeffs,
    e1,
    e6_embedding,
    e6_sphere_classes,
    y_n,
)
from .monodromy import evaluate, parabolic_width, verify_factorization
from .plumbing import (
    ConfigurationEmbedding,
    boundary_lens_space,
    cp_chain,
    default_lift_candidates,
    find_characteristic_lifts,
    _plan,
    _transfer,
    intersection_matrix,
    rational_blowdown,
    relative_square_of_restriction,
    verify_embedding,
)
from .report import DEFINITION, DERIVED, REPORTED, Check, VerificationReport

E6_FACTORIZATION = "(ab)^4a^2(Aba)b"
I6_FACTORIZATION = "a^6(A^3ba^3)(baB)^2b^2(Bab)"
I6_FIBRATION = "(a^3b)^3"
# the family parameters n that verify_paper's knots and pipelines sections sweep
N_SWEEP = range(1, 11)

# the -2 spheres of the tree fiber (S1..S7) and of the cycle fiber (c0..c5)
SPHERE_COEFFS = {**E6_SPHERE_COEFFS, **I6_HEXAGON_COEFFS}


def _coords(classes) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(k.coords for k in classes))


class FamilySpec(NamedTuple):
    """One family as data: knot-surger E(1), blow up, embed the order-p chain
    u0, tail..., pick the lift, and rationally blow down.

    Only the knot surgery depends on n: the ambients of every n share one
    lattice and one set of marked and SW classes.  So the vertex, chamber
    and lift classes, the embedding, and the computed side of every check
    that they determine form the family's plan, ``_family_plan``, built on
    the family's first build in a process.  ``fixed`` adds the family's own
    values to the plan, from (ambient, embedding, period class, lift);
    ``checks`` adds the family's own checks before the shared blowdown ones,
    from the knot-surgered base model that the ambient blows up, the ambient
    and the plan's values.
    """

    key: str  # CLI name and report tag
    name: str  # model name, formatted with n
    p: int
    b_minus: int
    provenance: str
    base: str  # builder in models, y_n or v_n, looked up when called
    blowups: int
    ambient_name: str
    u0: dict[str, int]
    tail: tuple[str, ...]  # names in SPHERE_COEFFS
    chamber_coeffs: dict[str, int]
    lift_coeffs: dict[str, int]
    lift_square: int
    fixed: Callable
    checks: Callable
    unique: bool = False  # the source states one basic class up to sign

    def base_model(self, n: int) -> FourManifoldModel:
        return getattr(models, self.base)(n)

    def ambient(self, n: int, base: FourManifoldModel | None = None) -> FourManifoldModel:
        """Blow up ``base``, which is ``base_model(n)`` and built here if not given."""
        if base is None:
            base = self.base_model(n)
        return blowup_times(base, self.blowups, self.ambient_name.format(n=n))

    def embedding(self, ambient: FourManifoldModel) -> ConfigurationEmbedding:
        vertices = [class_from_coeffs(ambient, self.u0)]
        vertices += [class_from_coeffs(ambient, SPHERE_COEFFS[s]) for s in self.tail]
        return ConfigurationEmbedding(ambient=ambient, chain=cp_chain(self.p),
                                      vertex_classes=tuple(vertices))

    def chamber(self, ambient: FourManifoldModel) -> Chamber:
        return Chamber(ambient, class_from_coeffs(ambient, self.chamber_coeffs))

    def lift(self, ambient: FourManifoldModel) -> HomologyClass:
        return class_from_coeffs(ambient, self.lift_coeffs)


def _add(rep: VerificationReport, *check) -> None:
    """Append a check whose values are already canonical (immutable, sequences as tuples)."""
    rep.checks.append(Check._trusted(*check))


def _relsquare_fixed(ambient, emb, period, k_lift) -> dict:
    return {"lift.relsquare": str(relative_square_of_restriction(emb, k_lift))}


def _xn_fixed(z, emb, H, k_lift) -> dict:
    h = z.marked_class("h")
    return {**_relsquare_fixed(z, emb, H, k_lift),
            "H.h": pair(H, h), "H.square": square(H), "H.lift": pair(H, k_lift),
            "h.lift": pair(h, k_lift), "lift.profile": emb.pairing_vector(k_lift)}


def _xn_checks(rep, n, y, z, fixed) -> None:
    _add(rep, "xn.yn.sw", "fiber surgery SW magnitudes at the fiber classes",
         (n, n), y.sw.magnitudes(), REPORTED)
    _add(rep, "xn.zn.sw.count", "three blowups spread the table over 16 sign classes",
         16, len(z.sw), REPORTED)
    _add(rep, "xn.zn.sw", "every blown-up class keeps magnitude n",
         (n,) * 16, z.sw.magnitudes(), REPORTED)
    _add(rep, "xn.zn.bookkeeping", "(euler, sign) after three blowups",
         (15, -11), (z.euler, z.sign), DEFINITION)
    _add(rep, "xn.u0.square", "the resolved -9 sphere", -9, fixed["u0.square"], REPORTED)
    _add(rep, "xn.H.h", "period class against the reference class", 7, fixed["H.h"], REPORTED)
    _add(rep, "xn.H.square", "square of the period class", 5, fixed["H.square"], REPORTED)
    _add(rep, "xn.H.lift", "period class against the lift", 5, fixed["H.lift"], REPORTED)
    _add(rep, "xn.h.lift", "reference class against the lift", 3, fixed["h.lift"], REPORTED)
    _add(rep, "xn.lift.profile", "the lift restricts as 7 gamma_0",
         (7, 0, 0, 0, 0, 0), fixed["lift.profile"], REPORTED)
    _add(rep, "xn.lift.relsquare", "relative square of the restricted lift",
         "-6", fixed["lift.relsquare"], REPORTED)


def _b7_checks(rep, n, base, ambient, fixed) -> None:
    _add(rep, "b7.ambient.sw", "two blowups give 8 classes of magnitude n",
         (n,) * 8, ambient.sw.magnitudes(), DERIVED)
    _add(rep, "b7.u0.square", "pseudo-section plus one fiber, doubly blown up",
         -7, fixed["u0.square"], DERIVED)
    _add(rep, "b7.lift.relsquare", "lift target for the order-5 chain",
         "-4", fixed["lift.relsquare"], DERIVED)


def _b8_checks(rep, n, base, ambient, fixed) -> None:
    _add(rep, "b8.reading", "family parameters read as b- = 8; the printed b+ = 8 "
         "variant is inconsistent with one blowup of a b+ = 1 manifold",
         "b_minus=8", "b_minus=8", DERIVED)
    _add(rep, "b8.ambient.sw", "one blowup gives 4 classes of magnitude n",
         (n,) * 4, ambient.sw.magnitudes(), DERIVED)
    _add(rep, "b8.u0.square", "pseudo-section with its double point blown up",
         -5, fixed["u0.square"], DERIVED)
    _add(rep, "b8.lift.relsquare", "lift target for the order-3 chain",
         "-2", fixed["lift.relsquare"], DERIVED)


def _profile_lifts(w, chain, rows) -> tuple:
    """The qn profile-level lift search over both sign families, from the
    shipped (name, row) pairings only: the combinations of the profile of
    ``chain`` = cp_chain(p) in ``w`` whose restriction has relative square
    -(p - 1), with p - 1 the chain's size, each as sorted (name, coeff) pairs."""
    profile = ConfigurationEmbedding(ambient=w, chain=chain, profile_gram=chain.matrix(),
                                     profile_pairings=dict(rows))
    lifts = []
    for mult, st, s0, s1 in product((3, 1), (1, -1), (1, -1), (1, -1)):
        coeffs = (("E0", s0), ("E1", s1), ("T", st * mult))
        if relative_square_of_restriction(profile, dict(coeffs)) == -chain.size:
            lifts.append(coeffs)
    return tuple(sorted(lifts))


def _qn_fixed(w, emb, H, k_lift) -> dict:
    """The computed sides of the monodromy checks, from the word strings only,
    and of the profile checks, from the realization and the shipped profile."""
    fact = verify_factorization(I6_FACTORIZATION, I6_FIBRATION)
    rows = models.WN_C7_PROFILE["pairings"]
    return {
        "monodromy.refactor": fact.equal,
        "monodromy.identity": evaluate(I6_FACTORIZATION).is_identity(),
        "monodromy.i6": parabolic_width(evaluate("a^6")),
        "monodromy.nodal": tuple(d.base_trace for d in fact.factors[1:]),
        "profile.gram": emb.realized_gram(),
        **{f"profile.{name}": emb.pairing_vector(w.marked_class(name)) for name, _ in rows},
        "lifts.profile": _profile_lifts(w, cp_chain(7), rows),
    }


def _qn_checks(rep, n, v, w, fixed) -> None:
    _add(rep, "qn.monodromy.refactor", "cycle-fiber word equals the cubed word",
         True, fixed["monodromy.refactor"], REPORTED)
    _add(rep, "qn.monodromy.identity", "cycle-fiber word is a fibration word",
         True, fixed["monodromy.identity"], REPORTED)
    _add(rep, "qn.monodromy.i6", "first factor is a parabolic block of width 6",
         6, fixed["monodromy.i6"], REPORTED)
    nodal = fixed["monodromy.nodal"]
    _add(rep, "qn.monodromy.nodal", "remaining factors are nodal (trace 2) twists",
         (2,) * len(nodal), nodal, DERIVED)
    t = v.marked_class("T")
    _add(rep, "qn.vn.sw.3T", "magnitude n at three times the fiber",
         n, abs(v.sw.value(3 * t)), REPORTED)
    _add(rep, "qn.vn.sw.T", "magnitude 2n - 1 at the fiber",
         2 * n - 1, abs(v.sw.value(t)), REPORTED)
    _add(rep, "qn.vn.sw", "full double-surgery table magnitudes",
         (n, n, 2 * n - 1, 2 * n - 1), v.sw.magnitudes(), REPORTED)
    _add(rep, "qn.wn.bookkeeping", "(euler, sign) after two blowups",
         (14, -10), (w.euler, w.sign), DEFINITION)
    _add(rep, "qn.u0.square", "pseudo-section with both double points blown up",
         -9, fixed["u0.square"], REPORTED)
    _add(rep, "qn.profile.gram", "shipped profile matches the realized chain",
         models.WN_C7_PROFILE["gram"], fixed["profile.gram"], DERIVED)
    for name, row in models.WN_C7_PROFILE["pairings"]:
        _add(rep, f"qn.profile.{name}", f"profile row of {name} matches the realization",
             row, fixed[f"profile.{name}"], DERIVED)
    # -(3T + E0 + E1) and 3T + E0 + E1, each as sorted (name, coeff) pairs
    _add(rep, "qn.lifts.profile", "profile-level lift search over both sign families",
         ((("E0", -1), ("E1", -1), ("T", -3)), (("E0", 1), ("E1", 1), ("T", 3))),
         fixed["lifts.profile"], REPORTED)

FAMILIES = {spec.key: spec for spec in (
    # b- = 6: surgery by the n-twist knot, three blowups, and an order-7
    # blowdown of the pseudo-section chain.  u0 is the pseudo-section plus two
    # nodal fibers with its three double points blown up; the chamber class is
    # 7h - 2 sum(e_i) - e3 - E0 - E1 - E2.
    FamilySpec(
        key="xn", name="X{n}", p=7, b_minus=6, provenance=REPORTED,
        base="y_n", blowups=3, ambient_name="Z{n}",
        u0={"eps9": 1, "T": 2, "E0": -2, "E1": -2, "E2": -2},
        tail=("S5", "S4", "S3", "S2", "S1"),
        chamber_coeffs={"eta": 7, "eps1": -2, "eps2": -2, "eps3": -3, "eps4": -2,
                        "eps5": -2, "eps6": -2, "eps7": -2, "eps8": -2, "eps9": -2,
                        "E0": -1, "E1": -1, "E2": -1},
        lift_coeffs={"T": 1, "E0": 1, "E1": 1, "E2": 1}, lift_square=3,
        fixed=_xn_fixed, checks=_xn_checks, unique=True,
    ),
    # b- = 7: two blowups and an order-5 chain; u0 is the pseudo-section plus
    # one nodal fiber, doubly blown up, followed by three tree spheres.
    FamilySpec(
        key="b7", name="b7_{n}", p=5, b_minus=7, provenance=DERIVED,
        base="y_n", blowups=2, ambient_name="Y{n}#2cp2bar",
        u0={"eps9": 1, "T": 1, "E0": -2, "E1": -2},
        tail=("S5", "S4", "S3"),
        chamber_coeffs={"eta": 5, "eps1": -1, "eps2": -2, "eps3": -2, "eps4": -1,
                        "eps5": -2, "eps6": -1, "eps7": -1, "eps8": -1, "eps9": -2,
                        "E0": -1, "E1": -1},
        lift_coeffs={"T": 1, "E0": 1, "E1": 1}, lift_square=2,
        fixed=_relsquare_fixed, checks=_b7_checks,
    ),
    # b- = 8: one blowup and an order-3 chain; u0 is the pseudo-section with
    # its double point blown up, followed by a single tree sphere.
    FamilySpec(
        key="b8", name="b8_{n}", p=3, b_minus=8, provenance=DERIVED,
        base="y_n", blowups=1, ambient_name="Y{n}#cp2bar",
        u0={"eps9": 1, "E0": -2},
        tail=("S5",),
        chamber_coeffs={"eta": 4, "eps5": -2, "eps9": -2, "E0": -1},
        lift_coeffs={"T": 1, "E0": 1}, lift_square=1,
        fixed=_relsquare_fixed, checks=_b8_checks,
    ),
    # b- = 5: fibration refactorization, double knot surgery, two blowups, and
    # an order-7 chain: u0 = eps9 - 2 E0 - 2 E1 (the pseudo-section with both
    # double points blown up), then the cycle fiber minus the component next
    # to c0 on one side.  The chamber class is hand-entered data; the checks
    # qn.chamber.orthogonal and qn.chamber.positive confirm it.
    FamilySpec(
        key="qn", name="Q{n}", p=7, b_minus=5, provenance=REPORTED,
        base="v_n", blowups=2, ambient_name="W{n}",
        u0={"eps9": 1, "E0": -2, "E1": -2},
        tail=("c0", "c5", "c4", "c3", "c2"),
        chamber_coeffs={"eta": 11, "eps2": -2, "eps4": -2, "eps5": -5, "eps6": -4,
                        "eps7": -5, "eps8": -6, "E0": 1, "E1": -1},
        lift_coeffs={"T": 3, "E0": 1, "E1": 1}, lift_square=4,
        fixed=_qn_fixed, checks=_qn_checks,
    ),
)}


class _Ambient(tuple):
    """A family's ambient model as its plan reads it: compared and hashed as
    (lattice, marked classes, SW support), which the ambients of every n
    share, and carrying the model itself as ``model``."""

    def __new__(cls, model: FourManifoldModel):
        self = super().__new__(cls, (model.lattice, model.marked, model.sw._support))
        self.model = model
        return self


@lru_cache(maxsize=8)
def _family_plan(key: str, ambient: _Ambient):
    """The plan of family ``key``: (embedding, period class, the lift and its
    negative as the ``*.lifts`` check expects them, values), built from the
    first ambient seen with the key's lattice, marked classes and SW
    classes, which are all that it reads.  The embedding reads its
    ambient only for the lattice and the marked classes, so every n shares
    it.  ``values`` maps a check id, less the family tag, to its computed
    side, already canonical: the embedding, chamber, lift search, u0 and (from
    the chain plan) basic characteristic checks, and the family's own from
    ``FamilySpec.fixed``.  A plan that raises is not kept."""
    spec = FAMILIES[key]
    X = ambient.model
    emb = spec.embedding(X)
    period = class_from_coeffs(X, spec.chamber_coeffs)
    k_lift = spec.lift(X)
    values = spec.fixed(X, emb, period, k_lift)
    values.update({
        "u0.square": square(emb.vertex_classes[0]),
        "embedding": verify_embedding(emb).ok,
        "chamber.orthogonal": emb.pairing_vector(period),
        "chamber.positive": square(period) > 0,
        "lifts": _coords(find_characteristic_lifts(emb, default_lift_candidates(X))),
        "basic.characteristic": all(r[1] for r in _transfer(_plan(emb, emb.chain), X.sw._support) if r),
    })
    return emb, period, _coords([k_lift, -k_lift]), MappingProxyType(values)


def build_family(key: str, n: int) -> tuple[FourManifoldModel, VerificationReport]:
    """Build family ``key`` at parameter n and verify every step.

    Only what depends on n is done here: the SW values, carried through each
    step, the chamber values, and the SW and minimality checks.  The rest
    comes from the plan ``_family_plan`` and the memos of each step.
    """
    spec = FAMILIES[key]
    if n < 1:
        raise ValueError("family parameter must be a positive integer")
    rep = VerificationReport()
    base = spec.base_model(n)
    ambient = spec.ambient(n, base)
    emb, period, lift_pair, fixed = _family_plan(key, _Ambient(ambient))
    chamber = Chamber(ambient, period)
    spec.checks(rep, n, base, ambient, fixed)
    tag, p, provenance = spec.key, spec.p, spec.provenance
    _add(rep, f"{tag}.embedding", f"chain of order {p} realized exactly",
         True, fixed["embedding"], DERIVED)
    _add(rep, f"{tag}.chamber.orthogonal", "period class orthogonal to every vertex",
         (0,) * emb.size, fixed["chamber.orthogonal"], provenance)
    _add(rep, f"{tag}.chamber.positive", "period class has positive square",
         True, fixed["chamber.positive"], DERIVED)
    _add(rep, f"{tag}.lifts", f"restriction square -(p-1) = {-(p - 1)} picks the lift pair",
         lift_pair, fixed["lifts"], provenance)
    model = rational_blowdown(
        ambient, emb, chamber,
        simply_connected=True, pi1_note=PI1_NOTE_BLOWDOWN, name=spec.name.format(n=n),
    )
    _add(rep, f"{tag}.bookkeeping",
         "blowdown drops (euler, sign) by (p-1, -(p-1))",
         (ambient.euler - (p - 1), ambient.sign + (p - 1)),
         (model.euler, model.sign), DERIVED)
    _add(rep, f"{tag}.fingerprint",
         "fingerprint pins the homeomorphism type (projective plane blown up "
         f"{spec.b_minus} times; classification cited, not computed)",
         (1, spec.b_minus, "odd", True), tuple(fingerprint(model)), provenance)
    _add(rep, f"{tag}.convention",
         "SW values compared by absolute value; signs follow the recorded "
         "quotient convention",
         "magnitudes", "magnitudes", DEFINITION)
    _add(rep, f"{tag}.sw", "SW magnitudes after the blowdown",
         (n, n), model.sw.magnitudes(), provenance)
    if model.sw.entries:
        k = model.sw.classes()[0]
        _add(rep, f"{tag}.basic.square", "square of the transferred basic class",
             spec.lift_square, model.sw._support.square, provenance)
        _add(rep, f"{tag}.basic.dimension", "formal dimension of the transferred class",
             0, dimension(model, k), provenance)
        _add(rep, f"{tag}.basic.characteristic", "transferred class is characteristic",
             True, fixed["basic.characteristic"], DERIVED)
    verdict = minimality_check(model)
    expectation = "minimal_certified" if n >= 2 else "inconclusive"
    _add(rep, f"{tag}.minimality",
         "blowup-pairing obstruction (silent for magnitude-1 tables)",
         expectation, verdict.status, provenance if n >= 2 else DERIVED)
    if spec.unique:
        _add(rep, f"{tag}.unique", "exactly one basic class up to sign",
             2, len(model.sw), provenance)
    return model, rep


# One name per family, kept only because the benchmark's families workload
# calls and traces these names; everything else calls build_family.
def build_Xn(n: int) -> tuple[FourManifoldModel, VerificationReport]:
    return build_family("xn", n)


def build_b7_family(n: int) -> tuple[FourManifoldModel, VerificationReport]:
    return build_family("b7", n)


def build_b8_family(n: int) -> tuple[FourManifoldModel, VerificationReport]:
    return build_family("b8", n)


def build_Qn(n: int) -> tuple[FourManifoldModel, VerificationReport]:
    return build_family("qn", n)


def _lattice_checks(rep: VerificationReport) -> None:
    base = e1()
    eta = base.lattice.basis_class("eta")
    eps1 = base.lattice.basis_class("eps1")
    fiber = base.marked_class("T")
    rep.add("lattice.e1.eta", "defining square of the line class", 1, square(eta), DEFINITION)
    rep.add("lattice.e1.eps", "defining square of an exceptional class",
            -1, square(eps1), DEFINITION)
    rep.add("lattice.e1.fiber", "the cubic fiber has square zero", 0, square(fiber), DERIVED)
    rep.add("lattice.e1.fiber.char", "the fiber class is characteristic",
            True, is_characteristic(fiber), DERIVED)
    rep.add("lattice.e1.zero.char", "zero is not characteristic in an odd lattice",
            False, is_characteristic(base.lattice.zero()), DEFINITION)
    rep.add("lattice.e1.signature", "diagonal form signature",
            [1, 9], list(signature_and_betti(base.lattice)), DEFINITION)
    z = FAMILIES["xn"].ambient(1)
    u = _family_plan("xn", _Ambient(z))[0].vertex_classes
    rep.add("lattice.zn.u0u1", "adjacent chain classes meet once", 1, pair(u[0], u[1]), DERIVED)
    rep.add("lattice.zn.u0", "chain head has square -9", -9, square(u[0]), REPORTED)
    spheres = e6_sphere_classes(z)
    rep.add("lattice.e6.squares", "all seven tree spheres have square -2",
            [-2] * 7, [square(spheres[f"S{i}"]) for i in range(1, 8)], REPORTED)
    rep.add("lattice.zn.signature", "three blowups add three negative eigenvalues",
            [1, 12], list(signature_and_betti(z.lattice)), DERIVED)
    k_lift = FAMILIES["xn"].lift(z)
    rep.add("lattice.zn.lift.char", "the lift class is characteristic",
            True, is_characteristic(k_lift), REPORTED)
    comp = orthogonal_complement(z.lattice, u)
    rep.add("lattice.zn.complement", "complement of the chain: rank and signature",
            [7, 1, 6], [comp.rank, *comp.signature_and_betti()], REPORTED)
    comp_e0 = orthogonal_complement(z.lattice, [z.marked_class("E0")])
    rep.add("lattice.zn.complement.e0", "complement of one exceptional class",
            [12, 1, 11], [comp_e0.rank, *comp_e0.signature_and_betti()], DERIVED)
    c7 = intersection_matrix(cp_chain(7))
    c7_lattice = IntersectionLattice(tuple(f"u{i}" for i in range(6)), c7.matrix, name="C7")
    rep.add("lattice.c7.signature", "the order-7 chain is negative definite",
            [0, 6], list(signature_and_betti(c7_lattice)), DERIVED)


def _fourmanifold_checks(rep: VerificationReport) -> None:
    n = 3
    y = y_n(n)
    z = FAMILIES["xn"].ambient(n, y)
    t = y.marked_class("T")
    rep.add("fourmanifold.yn.dim", "fiber class has formal dimension zero",
            0, dimension(y, t), DERIVED)
    k_lift = FAMILIES["xn"].lift(z)
    rep.add("fourmanifold.zn.dim", "lift class has formal dimension zero",
            0, dimension(z, k_lift), REPORTED)
    rep.add("fourmanifold.wallcross.d0", "jump at dimension zero",
            -1, wall_crossing_delta(z, k_lift), DEFINITION)
    rep.add("fourmanifold.zn.blowup16", "three blowups give the 16 sign classes",
            sorted([n] * 16), list(z.sw.magnitudes()), REPORTED)
    chamber = FAMILIES["xn"].chamber(z)
    rep.add("fourmanifold.zn.sw.agree",
            "chamber value when the period and reference sides agree",
            n, abs(chamber_sw(z, k_lift, chamber)), REPORTED)
    k_flip = class_from_coeffs(z, {"T": 1, "E0": -1, "E1": -1, "E2": -1})
    rep.add("fourmanifold.zn.sw.disagree",
            "chamber value across the wall gains a unit jump",
            n + 1, abs(chamber_sw(z, k_flip, chamber)), DERIVED)
    absent = class_from_coeffs(z, {"T": 3, "E0": 1, "E1": 1, "E2": 1})
    rep.add("fourmanifold.zn.sw.absent",
            "absent class with agreeing signs evaluates to zero",
            0, chamber_sw(z, absent, chamber), DEFINITION)
    # deterministic chamber sample: with b- <= 9 every admissible chamber agrees
    samples = []
    for coeffs in ({"h": 1}, {"h": 2, "eps1": -1}, {"h": 3, "eps2": -2, "eps5": -1},
                   {"h": 5, "eps1": -3, "eps9": 2}):
        period = class_from_coeffs(y, coeffs)
        samples.append(chamber_sw(y, t, Chamber(y, period)))
    rep.add("fourmanifold.yn.welldefined",
            "small b- models have a chamber-independent invariant",
            [samples[0]] * len(samples), samples, DERIVED)
    rep.add("fourmanifold.e1.fingerprint", "fingerprint of the base surface",
            [1, 9, "odd", True], list(fingerprint(e1())), DEFINITION)
    blown = blowup(y_n(1))
    rep.add("fourmanifold.blowup.bookkeeping", "one blowup: (12, -8) -> (13, -9)",
            [13, -9], [blown.euler, blown.sign], DEFINITION)


def _knots_checks(rep: VerificationReport) -> None:
    rep.add("knots.alexander.n1", "one-twist polynomial",
            "t^1 - 1 + t^-1", str(alexander_twist(1)), REPORTED)
    rep.add("knots.alexander.n0", "the unknot has trivial polynomial",
            "1", str(alexander_twist(0)), DEFINITION)
    rep.add("knots.alexander.n3", "three-twist polynomial",
            "3t^1 - 5 + 3t^-1", str(alexander_twist(3)), REPORTED)
    rep.add("knots.s.rewrite", "twist polynomials rewrite to n s^2 + 1",
            {0: 1, 1: 4}, poly_in_s(alexander_twist(4)), DERIVED)
    rep.add("knots.s.product", "product of rewrites matches rewrite of product",
            poly_in_s(alexander_twist(1) * alexander_twist(4)),
            {0: 1, 1: 5, 2: 4}, DERIVED)
    for n in N_SWEEP:
        table = e1_knot_surgery_sw([n])
        rep.add(f"knots.yn.sw.n={n}", "single surgery table at the fiber",
                {1: n, -1: -n} if n else {}, table, REPORTED)
        double = e1_knot_surgery_sw([1, n])
        rep.add(f"knots.vn.sw.n={n}", "double surgery magnitudes at T and 3T",
                [n, 2 * n - 1], [abs(double.get(3, 0)), abs(double.get(1, 0))], REPORTED)
    y = y_n(2)
    rep.add("knots.surgery.preserves", "surgery keeps (euler, sign)",
            [12, -8], [y.euler, y.sign], DERIVED)
    h = y.marked_class("h")
    rep.add("knots.yn.h", "the genus-3 reference class survives surgery",
            [1, 3], [square(h), pair(h, y.marked_class("T"))], REPORTED)


def _monodromy_checks(rep: VerificationReport) -> None:
    ab = evaluate("ab")
    rep.add("monodromy.ab.trace", "product of the two twists has trace 1",
            1, ab.trace, DERIVED)
    rep.add("monodromy.ab.order6", "the product has order exactly 6",
            [False] * 5 + [True], [(ab ** k).is_identity() for k in range(1, 7)], REPORTED)
    rep.add("monodromy.braid", "braid relation",
            True, evaluate("aba") == evaluate("bab"), REPORTED)
    rep.add("monodromy.braid.word", "braid commutator collapses to the identity",
            True, evaluate("abaBAB").is_identity(), REPORTED)
    e6 = verify_factorization(E6_FACTORIZATION, "(ab)^6")
    rep.add("monodromy.e6.refactor", "tree-fiber word equals the sixth power",
            True, e6.equal, REPORTED)
    rep.add("monodromy.e6.identity", "tree-fiber word is a fibration word",
            True, evaluate(E6_FACTORIZATION).is_identity(), REPORTED)
    rep.add("monodromy.e6.nodal", "the last three factors are nodal twists",
            [2, 2, 2], [d.base_trace for d in e6.factors[-3:]], DERIVED)
    i6 = verify_factorization(I6_FACTORIZATION, I6_FIBRATION)
    rep.add("monodromy.i6.refactor", "cycle-fiber word equals the cubed word",
            True, i6.equal, REPORTED)
    rep.add("monodromy.i6.identity", "cycle-fiber word is a fibration word",
            True, evaluate(I6_FACTORIZATION).is_identity(), REPORTED)
    rep.add("monodromy.a3b.order3", "the cubed word is a fibration word",
            True, evaluate(I6_FIBRATION).is_identity(), REPORTED)
    rep.add("monodromy.i6.width", "cycle fiber monodromy has parabolic width 6",
            6, parabolic_width(evaluate("a^6")), REPORTED)
    rep.add("monodromy.i6.nodal", "remaining factors of the cycle word are nodal",
            [2] * 4, [d.base_trace for d in i6.factors[1:]], DERIVED)


def _plumbing_checks(rep: VerificationReport) -> None:
    rep.add("plumbing.c7.weights", "order-7 chain weights",
            [-9, -2, -2, -2, -2, -2], list(cp_chain(7).weights), REPORTED)
    for p in range(2, 21):
        chain = cp_chain(p)
        form = intersection_matrix(chain)
        rep.add(f"plumbing.cp.det.p={p}", "chain determinant has magnitude p^2",
                p * p, abs(form.det), DERIVED)
        lens = boundary_lens_space(chain)
        rep.add(f"plumbing.cp.cf.p={p}", "continued fraction evaluates to p^2/(p-1)",
                f"{p * p}/{p - 1}", f"{lens.order}/{lens.twist}", DERIVED)
        rep.add(f"plumbing.cp.inv.p={p}", "head entry of the inverse is -(p-1)/p^2",
                f"-{p - 1}/{p * p}", str(Fraction(form.adj[0][0], form.det)), DERIVED)
        rep.add(f"plumbing.cp.lens.p={p}", "boundary lens space order is p^2",
                p * p, lens.order, DERIVED)
    lens7 = boundary_lens_space(cp_chain(7))
    rep.add("plumbing.c7.lens", "twist orbit contains both 6 and -6 mod 49",
            True, 6 in lens7.residue_orbit() and 43 in lens7.residue_orbit(), REPORTED)
    rep.add("plumbing.c2.lens", "single -4 vertex bounds the order-4 lens space",
            [4, 1], [boundary_lens_space(cp_chain(2)).order,
                     boundary_lens_space(cp_chain(2)).twist], DEFINITION)
    rep.add("plumbing.c3.lens", "order-3 chain evaluates to 9/2",
            [9, 2], [boundary_lens_space(cp_chain(3)).order,
                     boundary_lens_space(cp_chain(3)).twist], DERIVED)
    z = FAMILIES["xn"].ambient(1)
    _, _, lift_pair, fixed = _family_plan("xn", _Ambient(z))
    rep.add("plumbing.zn.embedding", "chain classes realize the order-7 matrix",
            True, fixed["embedding"], DERIVED)
    rep.add("plumbing.e6.embedding", "tree classes realize the tree with fiber orthogonality",
            True, verify_embedding(e6_embedding(z)).ok, DERIVED)
    rep.add("plumbing.zn.relsquare", "lift restricts with relative square -6",
            "-6", fixed["lift.relsquare"], REPORTED)
    rep.add("plumbing.zn.profile", "lift pairing vector is 7 gamma_0",
            [7, 0, 0, 0, 0, 0], fixed["lift.profile"], REPORTED)
    rep.add("plumbing.zn.lifts", "lift search returns exactly the pair",
            lift_pair, fixed["lifts"], REPORTED)
    w = FAMILIES["qn"].ambient(1)
    wemb, _, w_pair, w_fixed = _family_plan("qn", _Ambient(w))
    rep.add("plumbing.wn.relsquare", "cycle-chain lift restricts with relative square -6",
            "-6", str(relative_square_of_restriction(wemb, FAMILIES["qn"].lift(w))), REPORTED)
    rep.add("plumbing.wn.lifts", "cycle-chain lift search returns exactly the pair",
            w_pair, w_fixed["lifts"], REPORTED)


def _pipeline_checks(rep: VerificationReport) -> None:
    for key, n in (("xn", 1), ("xn", 2), ("xn", 3), ("qn", 1), ("qn", 2),
                   ("b7", 1), ("b8", 1), ("b7", 2), ("b8", 2)):
        spec = FAMILIES[key]
        rep.add(f"pipelines.{key}.n={n}", f"full b- = {spec.b_minus} pipeline report is green",
                True, build_family(key, n)[1].all_pass, spec.provenance)
    separation = [sorted(abs(v) for v in e1_knot_surgery_sw([n]).values()) for n in N_SWEEP]
    rep.add("pipelines.separation", "SW magnitude sets separate the family members",
            len(N_SWEEP), len({tuple(s) for s in separation}), REPORTED)


SECTIONS = {
    "lattice": _lattice_checks,
    "fourmanifold": _fourmanifold_checks,
    "knots": _knots_checks,
    "monodromy": _monodromy_checks,
    "plumbing": _plumbing_checks,
    "pipelines": _pipeline_checks,
}


def verify_paper(only: str | None = None) -> VerificationReport:
    """Run every golden check; the exit-status of the CLI reflects full pass.

    ``only`` restricts to one of the SECTIONS.
    """
    if only is not None and only not in SECTIONS:
        raise ValueError(f"unknown module {only!r}; choose from {sorted(SECTIONS)}")
    rep = VerificationReport()
    for name, section in SECTIONS.items():
        if only is None or name == only:
            section(rep)
    return rep
