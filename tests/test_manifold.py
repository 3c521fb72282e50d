import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from swsurgery.knots import TwistKnot, knot_surgery_manifold
from swsurgery.lattice import IntersectionLattice, pair, square
from swsurgery.manifold import (
    Chamber,
    FourManifoldModel,
    NonCharacteristicError,
    OnWallError,
    SWTable,
    blowup,
    chamber_sw,
    dimension,
    fingerprint,
    minimality_check,
    wall_crossing_delta,
)
from swsurgery.models import class_from_coeffs, e1
from swsurgery.pipelines import FAMILIES

from .oracles import pairwise_minimality, random_unimodular, transformed_gram


def diag_model(name, plus, minus, sw_pairs=None, note=None):
    n = plus + minus
    labels = tuple(f"x{i}" for i in range(n))
    gram = tuple(
        tuple((1 if i < plus else -1) if i == j else 0 for j in range(n)) for i in range(n)
    )
    lat = IntersectionLattice(labels, gram, name=name)
    sw = SWTable.from_pairs(lat, sw_pairs or {}) if sw_pairs else SWTable.empty(lat)
    marked = {"h": lat.basis_class("x0")} if plus else {}
    return FourManifoldModel(name, lat, 2 + n, plus - minus, True, marked, sw)


def test_dimension_examples(y3, z3):
    assert dimension(y3, y3.marked_class("T")) == 0
    lift = class_from_coeffs(z3, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
    assert dimension(z3, lift) == 0


def test_dimension_requires_characteristic(z3):
    with pytest.raises(NonCharacteristicError):
        dimension(z3, z3.marked_class("T"))  # T misses the exceptional parities in Z_n


def test_wall_crossing_values(e1_model, z3):
    lift = class_from_coeffs(z3, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
    assert wall_crossing_delta(z3, lift) == -1  # d = 0
    k2 = e1_model.lattice.element((5, 3, 1, 1, 1, 1, 1, 1, 1, 1))
    assert dimension(e1_model, k2) == 2
    assert wall_crossing_delta(e1_model, k2) == 1
    k_neg = e1_model.lattice.element((1,) + (1,) * 9)
    assert dimension(e1_model, k_neg) == -2
    with pytest.raises(ValueError, match="wall crossing"):
        wall_crossing_delta(e1_model, k_neg)


def test_chamber_sw_sign_cases(z3):
    chamber = FAMILIES["xn"].chamber(z3)
    lift = class_from_coeffs(z3, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
    flipped = class_from_coeffs(z3, {"T": 1, "E0": -1, "E1": -1, "E2": -1})
    assert pair(chamber.period, lift) == 5
    assert pair(z3.marked_class("h"), lift) == 3
    assert abs(chamber_sw(z3, lift, chamber)) == 3
    # H.k = -1 < 0 < 3 = h.k: wall is crossed, magnitude in the n +- 1 family
    assert pair(chamber.period, flipped) == -1
    assert abs(chamber_sw(z3, flipped, chamber)) == 4
    absent = class_from_coeffs(z3, {"T": 3, "E0": 1, "E1": 1, "E2": 1})
    assert chamber_sw(z3, absent, chamber) == 0


def test_chamber_sw_on_wall(z3):
    lift = class_from_coeffs(z3, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
    on_wall = class_from_coeffs(z3, {"h": 1, "T": 1, "E0": 1, "E1": 1, "E2": 1})
    assert square(on_wall) > 0 and pair(on_wall, lift) == 0
    with pytest.raises(OnWallError):
        chamber_sw(z3, lift, Chamber(z3, on_wall))


def test_chamber_sw_needs_b_plus_one():
    model = diag_model("two_plus", 2, 1)
    k = model.lattice.element((1, 1, 1))
    with pytest.raises(ValueError, match="b\\+ = 1"):
        chamber_sw(model, k, Chamber(model, model.lattice.basis_class("x0")))


def test_chamber_validation(z3):
    t = z3.marked_class("T")
    with pytest.raises(ValueError, match="positive square"):
        Chamber(z3, t)
    neg_h = -FAMILIES["xn"].chamber(z3).period
    with pytest.raises(ValueError, match="positively"):
        Chamber(z3, neg_h)


def test_chamber_independence_small_b_minus(y3):
    # b- <= 9: every admissible chamber gives the same invariant
    t = y3.marked_class("T")
    values = set()
    for coeffs in ({"h": 1}, {"h": 2, "eps1": -1}, {"h": 4, "eps2": -3, "eps7": 1},
                   {"h": 9, "eps1": -5, "eps9": 4}):
        chamber = Chamber(y3, class_from_coeffs(y3, coeffs))
        values.add(chamber_sw(y3, t, chamber))
    assert len(values) == 1


def test_chamber_sw_constant_per_side(z3):
    # two chambers with the same sign against k give the same value, on
    # either side of the wall (b- > 9 here, so walls are reachable)
    flipped = class_from_coeffs(z3, {"T": 1, "E0": -1, "E1": -1, "E2": -1})
    same_side, other_side = [], []
    for coeffs in ({"eta": 7, "eps3": -3, "E0": -1, "E1": -1, "E2": -1,
                    **{f"eps{i}": -2 for i in (1, 2, 4, 5, 6, 7, 8, 9)}},
                   {"eta": 14, "eps3": -6, "E0": -2, "E1": -2, "E2": -2,
                    **{f"eps{i}": -4 for i in (1, 2, 4, 5, 6, 7, 8, 9)}}):
        chamber = Chamber(z3, class_from_coeffs(z3, coeffs))
        assert pair(chamber.period, flipped) < 0
        other_side.append(chamber_sw(z3, flipped, chamber))
    for coeffs in ({"h": 1}, {"h": 3, "eps1": -1, "E0": -1}):
        chamber = Chamber(z3, class_from_coeffs(z3, coeffs))
        assert pair(chamber.period, flipped) > 0
        same_side.append(chamber_sw(z3, flipped, chamber))
    assert len(set(other_side)) == 1
    assert len(set(same_side)) == 1
    assert same_side[0] != other_side[0]  # the wall was genuinely crossed


def test_chamber_independence_random_sampling(y3):
    import random

    from swsurgery.lattice import square as sq

    rng = random.Random(47)
    t = y3.marked_class("T")
    reference = chamber_sw(y3, t, Chamber(y3, y3.marked_class("h")))
    found = 0
    while found < 200:
        coords = [rng.randint(1, 9)] + [rng.randint(-3, 3) for _ in range(9)]
        period = y3.lattice.element(coords)
        if sq(period) <= 0 or pair(period, y3.marked_class("h")) <= 0:
            continue
        found += 1
        assert chamber_sw(y3, t, Chamber(y3, period)) == reference
        assert chamber_sw(y3, -t, Chamber(y3, period)) == -reference


def test_blowup_bookkeeping_and_table(y3):
    z1 = blowup(y3)
    assert (z1.euler, z1.sign) == (13, -9)
    assert len(z1.sw) == 4
    z3_model = blowup(blowup(z1))
    assert len(z3_model.sw) == 16
    assert set(z3_model.sw.magnitudes()) == {3}
    assert {"E0", "E1", "E2"} <= {name for name, _ in z3_model.marked}
    # d is preserved for unit exceptional multiplicities
    for k, _ in z3_model.sw.items():
        assert dimension(z3_model, k) == 0


def test_blowup_empty_table(e1_model):
    blown = blowup(e1_model)
    assert len(blown.sw) == 0
    assert (blown.euler, blown.sign) == (13, -9)


def test_blowup_dimension_drop_formula(y3):
    # 4d drops by delta^2 - 1 for k + delta E: zero for units, 8 for delta = 3
    blown = blowup(y3)
    t = blown.marked_class("T")
    e = blown.marked_class("E0")
    base = dimension(y3, y3.marked_class("T"))
    for delta in (1, -1, 3, -3, 5):
        shifted = t + delta * e
        numerator = square(shifted) - 3 * blown.sign - 2 * blown.euler
        assert numerator == 4 * base - (delta * delta - 1)


def test_blowup_label_collision(y3):
    z1 = blowup(y3)
    with pytest.raises(ValueError, match="already present"):
        blowup(z1, label="E0")


def _diag_lattice(name, plus, minus):
    n = plus + minus
    return IntersectionLattice(
        tuple(f"x{i}" for i in range(n)),
        tuple(tuple((1 if i < plus else -1) if i == j else 0 for j in range(n)) for i in range(n)),
        name=name,
    )


def _minimality_tables():
    # square-3 pair: (k - (-k))^2 = 12 != -4 certifies minimality
    lat = _diag_lattice("m", 1, 6)
    k = lat.element((3, 1, 1, 1, 1, 1, 1))  # characteristic, square 3
    assert square(k) == 3
    model = FourManifoldModel("m", lat, 9, -5, True, {}, SWTable.from_pairs(lat, {k: 2, -k: -2}))

    # blowup-shaped table: partners differ by 2E
    lat2 = _diag_lattice("m2", 1, 2)
    kp = lat2.element((3, 1, 1))
    km = lat2.element((3, 1, -1))
    assert square(kp - km) == -4
    table = SWTable.from_pairs(lat2, {kp: 5, km: 5, -kp: -5, -km: -5})
    model2 = FourManifoldModel("m2", lat2, 5, -1, True, {}, table)

    # empty and magnitude-one tables are inconclusive
    empty = FourManifoldModel("m3", lat, 9, -5, True, {}, SWTable.empty(lat))
    ones = FourManifoldModel("m4", lat, 9, -5, True, {}, SWTable.from_pairs(lat, {k: 1, -k: -1}))
    return model, model2, empty, ones


def test_minimality_verdicts():
    model, model2, empty, ones = _minimality_tables()
    assert minimality_check(model).status == "minimal_certified"
    verdict = minimality_check(model2)
    assert verdict.status == "blowup_pair_found"
    assert verdict.e_square == -1
    assert minimality_check(empty).status == "inconclusive"
    assert minimality_check(ones).status == "inconclusive"


def test_minimality_matches_pairwise_oracle_on_surgered_models():
    rng = random.Random(17)
    models = list(_minimality_tables())
    for _ in range(25):
        X = e1()
        for _ in range(rng.randint(1, 4)):
            X = knot_surgery_manifold(X, X.marked_class("T"), TwistKnot(rng.randint(-30, 30)))
        for _ in range(rng.randint(0, 4)):
            X = blowup(X)
        models.append(X)
    verdicts = [minimality_check(X) for X in models]
    assert verdicts == [pairwise_minimality(X) for X in models]
    assert {v.status for v in verdicts} == {"minimal_certified", "blowup_pair_found", "inconclusive"}


@st.composite
def congruent_models(draw):
    """A model on <1> + n<-1> (n = 9..11) seen through a random unimodular basis
    change, so its Gram is not diagonal.  SW classes are drawn in diagonal
    coordinates (odd entries, so characteristic), some with a partner that
    differs by 2e_i, with magnitudes 1-3, and mapped by the inverse transpose."""
    n = draw(st.integers(9, 11))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    change = random_unimodular(rng, n + 1)
    gram = transformed_gram(change, (1,) + (-1,) * n)
    inv_t = sympy.Matrix(change).inv().T
    lattice = IntersectionLattice(tuple(f"g{i}" for i in range(n + 1)), gram, name="congruent")
    odd = st.sampled_from((1, -1, 1, -1, 3, -3))
    entries = {}
    for _ in range(draw(st.integers(1, 4))):
        y = [draw(st.sampled_from((1, 3, 5, 7, 9, 11)))] + [draw(odd) for _ in range(n)]
        value = draw(st.integers(1, 3))
        drawn = [(y, value)]
        ones = [i for i in range(1, n + 1) if abs(y[i]) == 1]
        if ones and draw(st.booleans()):
            i = draw(st.sampled_from(ones))
            partner = y[:i] + [-y[i]] + y[i + 1:]
            drawn.append((partner, draw(st.sampled_from((value, value, value % 3 + 1)))))
        for y, value in drawn:
            if y[0] ** 2 - sum(t * t for t in y[1:]) < 9 - n:
                continue  # negative formal dimension
            x = tuple(int(t) for t in inv_t * sympy.Matrix(y))
            neg = tuple(-t for t in x)
            if x not in entries and neg not in entries:
                entries[x], entries[neg] = value, -value
    table = SWTable(lattice, tuple(entries.items()))
    return FourManifoldModel("congruent", lattice, n + 3, 1 - n, True, {}, table)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(congruent_models())
def test_minimality_matches_pairwise_oracle_on_non_diagonal_lattices(model):
    assert minimality_check(model) == pairwise_minimality(model)


def test_fingerprint(e1_model):
    assert tuple(fingerprint(e1_model)) == (1, 9, "odd", True)


def test_sw_table_validation(z3):
    lat = z3.lattice
    lift = class_from_coeffs(z3, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
    with pytest.raises(ValueError, match="negation"):
        SWTable.from_pairs(lat, {lift: 3})
    with pytest.raises(ValueError, match="nonzero"):
        SWTable.from_pairs(lat, {lift: 0, -lift: 0})
    with pytest.raises(ValueError, match="characteristic"):
        SWTable.from_pairs(lat, {z3.marked_class("T"): 1, -z3.marked_class("T"): -1})


def test_model_validation_errors(e1_model):
    lat = e1_model.lattice
    marked, empty = dict(e1_model.marked), SWTable.empty(lat)
    with pytest.raises(ValueError, match="sign"):
        FourManifoldModel("bad", lat, 12, 8, True, marked, empty)
    with pytest.raises(ValueError, match="euler"):
        FourManifoldModel("bad", lat, 13, -8, True, marked, empty)


def test_marked_class_from_another_lattice_rejected():
    a = _diag_lattice("A", 1, 1)
    b = IntersectionLattice(a.basis, ((1, 2), (2, -1)), name="B")  # same rank, other Gram
    with pytest.raises(ValueError, match="marked class 'h' lives in another lattice"):
        FourManifoldModel("m", a, 4, 0, True, {"h": b.element((1, 1))}, SWTable.empty(a))
    # a class of an equal lattice is accepted, and its coordinates kept
    twin = _diag_lattice("A2", 1, 1)
    model = FourManifoldModel("m", a, 4, 0, True, {"h": twin.element((1, 1))}, SWTable.empty(a))
    assert model.marked == (("h", (1, 1)),)


def test_model_serialization_round_trip(y3):
    data = y3.to_dict()
    back = FourManifoldModel.from_dict(data)
    assert back.to_dict() == data
    assert back.sw.magnitudes() == y3.sw.magnitudes()
    assert tuple(fingerprint(back)) == tuple(fingerprint(y3))
    assert back == y3


def test_model_without_history_serializes_without_the_key(e1_model):
    data = e1_model.to_dict()
    assert "surgery_history" not in data
    assert FourManifoldModel.from_dict(data) == e1_model
