"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Tolerances
are exact throughout: every compared quantity is an integer, an exact
rational, or a finite exact structure.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from swsurgery.knots import TwistKnot, e1_knot_surgery_sw, knot_surgery_manifold
from swsurgery.lattice import (
    IntersectionLattice,
    is_characteristic,
    pair,
    square,
)
from swsurgery.manifold import (
    FourManifoldModel,
    SWTable,
    blowup,
    dimension,
    fingerprint,
    minimality_check,
)
from swsurgery.models import class_from_coeffs, e1
from swsurgery.monodromy import evaluate, parabolic_width, verify_factorization
from swsurgery.pipelines import (
    E6_FACTORIZATION,
    FAMILIES,
    I6_FACTORIZATION,
    I6_FIBRATION,
    build_family,
    verify_paper,
)
from swsurgery.plumbing import (
    ConfigurationEmbedding,
    boundary_lens_space,
    cp_chain,
    intersection_matrix,
    relative_square_of_restriction,
)

from .oracles import (
    characteristic_mod2,
    congruent_gram,
    continued_fraction,
    gauss_jordan_solve,
)

CASES = 10_000


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num}: FAIL - {summary}")
        raise
    print(f"\n[acceptance] criterion {num}: PASS - {summary}")


def test_criterion_1_verify_paper_fast_and_green():
    with criterion(1, "verify-paper all green in under 5 seconds, Y/V tables n=1..10"):
        start = time.monotonic()
        rep = verify_paper()
        elapsed = time.monotonic() - start
        assert rep.all_pass, [c.id for c in rep.checks if not c.passed]
        assert elapsed < 5.0, f"verify-paper took {elapsed:.2f}s"
        ids = {c.id for c in rep.checks}
        for n in range(1, 11):
            assert f"knots.yn.sw.n={n}" in ids
            assert f"knots.vn.sw.n={n}" in ids
        for n in range(1, 11):
            assert e1_knot_surgery_sw([n]) == {1: n, -1: -n}
            double = e1_knot_surgery_sw([1, n])
            assert abs(double[3]) == n and abs(double[1]) == 2 * n - 1


def test_criterion_2_lift_uniqueness():
    with criterion(2, "exactly +-(T+E0+E1+E2) restrict with square -6, as 7 gamma_0"):
        z = FAMILIES["xn"].ambient(3)
        emb = FAMILIES["xn"].embedding(z)
        lift = class_from_coeffs(z, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
        hits = []
        for st in (1, -1):
            for s0 in (1, -1):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        k = class_from_coeffs(z, {"T": st, "E0": s0, "E1": s1, "E2": s2})
                        if relative_square_of_restriction(emb, k) == -6:
                            hits.append(k)
        assert sorted(k.coords for k in hits) == sorted([lift.coords, (-lift).coords])
        assert emb.pairing_vector(lift) == (7, 0, 0, 0, 0, 0)


def test_criterion_3_xn_pipeline():
    with criterion(3, "X_n: (1,6,odd), K0^2=3, d=0, |SW|=n, minimal for n>=2, separated"):
        magnitude_sets = []
        for n in range(1, 11):
            model, rep = build_family("xn", n)
            assert rep.all_pass, (n, [c.id for c in rep.checks if not c.passed])
            assert tuple(fingerprint(model)) == (1, 6, "odd", True)
            assert model.sw.magnitudes() == (n, n)
            k = model.sw.classes()[0]
            assert square(k) == 3
            assert dimension(model, k) == 0
            verdict = minimality_check(model)
            assert verdict.status == ("minimal_certified" if n >= 2 else "inconclusive")
            magnitude_sets.append(model.sw.magnitudes())
        assert len(set(magnitude_sets)) == 10


def test_criterion_4_qn_pipeline():
    with criterion(4, "Q_n: (1,5,odd), lifts exactly +-(3T+E0+E1), |SW|={n}"):
        for n in range(1, 11):
            model, rep = build_family("qn", n)
            assert rep.all_pass, (n, [c.id for c in rep.checks if not c.passed])
            assert tuple(fingerprint(model)) == (1, 5, "odd", True)
            assert model.sw.magnitudes() == (n, n)
            by_id = {c.id: c for c in rep.checks}
            assert by_id["qn.lifts"].passed and by_id["qn.lifts.profile"].passed


def test_criterion_5_monodromy():
    with criterion(5, "braid identity, (ab)^k = 1 iff 6|k (k<=24), both factorizations"):
        assert evaluate("aba") == evaluate("bab")
        ab = evaluate("ab")
        for k in range(1, 25):
            assert (ab ** k).is_identity() == (k % 6 == 0)
        e6 = verify_factorization(E6_FACTORIZATION, "(ab)^6")
        assert e6.equal and evaluate(E6_FACTORIZATION).is_identity()
        # declared nodal factors: a^2 (two fibers), the conjugate twist, and b
        assert [f.base_trace for f in e6.factors[1:]] == [2, 2, 2]
        i6 = verify_factorization(I6_FACTORIZATION, I6_FIBRATION)
        assert i6.equal and evaluate(I6_FACTORIZATION).is_identity()
        assert evaluate(I6_FIBRATION).is_identity()
        assert [f.base_trace for f in i6.factors[1:]] == [2, 2, 2, 2]
        assert all(f.parabolic for f in e6.factors[1:])
        assert all(f.parabolic for f in i6.factors[1:])
        assert parabolic_width(evaluate("a^6")) == 6


def test_criterion_6_plumbing():
    with criterion(6, "det = p^2, cf = p^2/(p-1), inv00 = -(p-1)/p^2, boundary p^2, p=2..20"):
        for p in range(2, 21):
            chain = cp_chain(p)
            form = intersection_matrix(chain)
            assert abs(form.det) == p * p
            lens = boundary_lens_space(chain)
            cf = continued_fraction([-w for w in chain.weights])
            assert (lens.order, lens.twist) == (cf.numerator, cf.denominator)
            assert (lens.order, lens.twist) == (p * p, p - 1)
            assert form.inverse()[0][0] == Fraction(-(p - 1), p * p)
        orbit = boundary_lens_space(cp_chain(7)).residue_orbit()
        assert 6 in orbit and (49 - 6) in orbit


def test_criterion_7_chamber_data():
    with criterion(7, "H.h=7, H^2=5, H.u_i=0, H.(T+E0+E1+E2)=5, h.(T+E0+E1+E2)=3"):
        z = FAMILIES["xn"].ambient(4)
        H = FAMILIES["xn"].chamber(z).period
        h = z.marked_class("h")
        lift = class_from_coeffs(z, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
        assert pair(H, h) == 7
        assert square(H) == 5
        assert [pair(H, u) for u in FAMILIES["xn"].embedding(z).vertex_classes] == [0] * 6
        assert pair(H, lift) == 5
        assert pair(h, lift) == 3


def _suite_bilinearity():
    rng = random.Random(0xB111)
    pool = []
    for _ in range(8):
        rank = rng.randint(2, 5)
        diag = [rng.choice([1, -1]) for _ in range(rank)]
        gram = congruent_gram(rng, diag)
        pool.append(IntersectionLattice(tuple(f"x{i}" for i in range(rank)), gram))
    for case in range(CASES):
        lat = pool[case % len(pool)]
        rank = lat.rank
        x = lat.element([rng.randint(-7, 7) for _ in range(rank)])
        y = lat.element([rng.randint(-7, 7) for _ in range(rank)])
        z = lat.element([rng.randint(-7, 7) for _ in range(rank)])
        m, n = rng.randint(-5, 5), rng.randint(-5, 5)
        assert pair(x, y) == pair(y, x)
        assert pair(m * x + n * y, z) == m * pair(x, z) + n * pair(y, z)


def _suite_characteristic():
    rng = random.Random(0xC4A2)
    pool = []
    for _ in range(8):
        rank = rng.randint(2, 5)
        diag = [1] + [rng.choice([1, -1]) for _ in range(rank - 1)]
        gram = congruent_gram(rng, diag)
        lat = IntersectionLattice(tuple(f"x{i}" for i in range(rank)), gram)
        sig = sum(diag)
        model = FourManifoldModel(f"synthetic{len(pool)}", lat, 2 + rank, sig, True, {},
                                  SWTable(lat, ()))
        (base,) = characteristic_mod2(gram)  # unique mod 2 on a unimodular lattice
        pool.append((lat, model, base, sig))
    for case in range(CASES):
        lat, model, base, sig = pool[case % len(pool)]
        k = lat.element([b + 2 * rng.randint(-4, 4) for b in base])
        assert is_characteristic(k)
        assert (square(k) - sig) % 8 == 0  # van der Blij on unimodular lattices
        assert isinstance(dimension(model, k), int)


def _suite_blowup():
    rng = random.Random(0xB10)
    bases = []
    for plus in (1,):
        for minus in (1, 2, 3):
            rank = plus + minus
            lat = IntersectionLattice(
                tuple(f"x{i}" for i in range(rank)),
                tuple(tuple((1 if i < plus else -1) if i == j else 0 for j in range(rank))
                      for i in range(rank)),
            )
            sig = plus - minus
            need = 3 * sig + 2 * (2 + rank)
            candidates = []
            for _ in range(200):
                coords = [2 * rng.randint(-2, 2) + 1 for _ in range(rank)]
                k = lat.element(coords)
                d4 = square(k) - need
                if d4 >= 0 and (d4 // 4) % 2 == 0 and d4 % 8 == 0 and any(coords):
                    candidates.append(k)
            if candidates:
                bases.append((lat, sig, rank, candidates))
    assert bases
    for case in range(CASES):
        lat, sig, rank, candidates = bases[case % len(bases)]
        k = candidates[rng.randrange(len(candidates))]
        value = rng.choice([1, -1]) * rng.randint(1, 9)
        table = SWTable(lat, ((k.coords, value), ((-k).coords, -value)))
        model = FourManifoldModel("base", lat, 2 + rank, sig, True, {}, table)
        blown = blowup(model)
        assert len(blown.sw) == 2 * len(model.sw)  # unit multiplicities survive pruning
        assert set(blown.sw.magnitudes()) == set(model.sw.magnitudes())
        assert (blown.euler, blown.sign) == (model.euler + 1, model.sign - 1)
        for kk in blown.sw.classes():
            d = dimension(blown, kk)
            assert d >= 0 and d % 2 == 0


def _suite_knot_surgery():
    rng = random.Random(0x5E1F)
    base = e1()
    fiber = base.marked_class("T")
    for case in range(CASES):
        n = rng.randint(-20, 20)
        model = knot_surgery_manifold(base, fiber, TwistKnot(n))
        assert (model.euler, model.sign) == (base.euler, base.sign)
        if case % 10 == 0:
            again = knot_surgery_manifold(model, model.marked_class("T"), TwistKnot(rng.randint(-5, 5)))
            assert (again.euler, again.sign) == (base.euler, base.sign)


def _suite_relative_square_oracle():
    rng = random.Random(0xDCA1)
    profiles = {}
    for p in range(2, 10):
        chain = cp_chain(p)
        profiles[p] = (
            chain,
            ConfigurationEmbedding(
                ambient=None,
                chain=chain,
                profile_gram=chain.matrix(),
                profile_pairings={
                    f"g{i}": tuple(1 if j == i else 0 for j in range(p - 1))
                    for i in range(p - 1)
                },
            ),
        )
    for case in range(CASES):
        p = rng.randint(2, 9)
        chain, emb = profiles[p]
        v = [rng.randint(-9, 9) for _ in range(p - 1)]
        got = relative_square_of_restriction(emb, {f"g{i}": v[i] for i in range(p - 1)})
        xs = gauss_jordan_solve(chain.matrix(), v)
        assert got == sum(Fraction(vi) * xi for vi, xi in zip(v, xs))


def test_criterion_8_property_suites():
    with criterion(8, f"five randomized suites, {CASES} cases each, fixed seeds"):
        _suite_bilinearity()
        _suite_characteristic()
        _suite_blowup()
        _suite_knot_surgery()
        _suite_relative_square_oracle()


def test_criterion_9_b7_b8_pipelines():
    with criterion(9, "b-=7/8 families: fingerprints, u0 squares, |SW|={n}, derived labels"):
        for n in range(1, 6):
            model7, rep7 = build_family("b7", n)
            assert rep7.all_pass, (n, [c.id for c in rep7.checks if not c.passed])
            assert tuple(fingerprint(model7)) == (1, 7, "odd", True)
            assert model7.sw.magnitudes() == (n, n)
            by_id7 = {c.id: c for c in rep7.checks}
            assert by_id7["b7.u0.square"].computed == -7
            assert by_id7["b7.sw"].provenance == "derived"
            model8, rep8 = build_family("b8", n)
            assert rep8.all_pass, (n, [c.id for c in rep8.checks if not c.passed])
            assert tuple(fingerprint(model8)) == (1, 8, "odd", True)
            assert model8.sw.magnitudes() == (n, n)
            by_id8 = {c.id: c for c in rep8.checks}
            assert by_id8["b8.u0.square"].computed == -5
            assert by_id8["b8.sw"].provenance == "derived"
