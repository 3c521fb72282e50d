import dataclasses
import json
import random
from collections import Counter

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swsurgery import manifold
from swsurgery.knots import TwistKnot, alexander_twist, knot_surgery_manifold
from swsurgery.lattice import IntersectionLattice, pair, square
from swsurgery.manifold import (
    Chamber,
    FourManifoldModel,
    MinimalityVerdict,
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

from .oracles import (
    naive_chamber_sw,
    naive_dimension,
    naive_value,
    pairwise_minimality,
    random_unimodular,
    transformed_gram,
)
from .trusted import counting, memos

# the (knot count, blowup count) strata of the calculus benchmark workload
STRATA = tuple((knots, blowups) for knots in range(1, 5) for blowups in range(5))


def _table(lattice, pairs):
    """The table of ``{class: value}`` pairs, through the public constructor."""
    return SWTable(lattice, tuple((k.coords, v) for k, v in pairs.items()))


def diag_model(name, plus, minus, sw_pairs=None, note=None):
    n = plus + minus
    labels = tuple(f"x{i}" for i in range(n))
    gram = tuple(
        tuple((1 if i < plus else -1) if i == j else 0 for j in range(n)) for i in range(n)
    )
    lat = IntersectionLattice(labels, gram, name=name)
    sw = _table(lat, sw_pairs or {})
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


def test_chamber_sw_checks_dimension_before_the_wall(e1_model):
    k_neg = e1_model.lattice.element((1,) + (1,) * 9)  # d = -2
    on_wall = e1_model.lattice.element((3, 1, 1, 1) + (0,) * 6)
    assert pair(on_wall, k_neg) == 0
    with pytest.raises(ValueError, match="wall crossing needs d"):
        chamber_sw(e1_model, k_neg, Chamber(e1_model, on_wall))


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
    for k in z3_model.sw.classes():
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
    model = FourManifoldModel("m", lat, 9, -5, True, {}, _table(lat, {k: 2, -k: -2}))

    # blowup-shaped table: partners differ by 2E
    lat2 = _diag_lattice("m2", 1, 2)
    kp = lat2.element((3, 1, 1))
    km = lat2.element((3, 1, -1))
    assert square(kp - km) == -4
    table = _table(lat2, {kp: 5, km: 5, -kp: -5, -km: -5})
    model2 = FourManifoldModel("m2", lat2, 5, -1, True, {}, table)

    # empty and magnitude-one tables are inconclusive
    empty = FourManifoldModel("m3", lat, 9, -5, True, {}, SWTable(lat, ()))
    ones = FourManifoldModel("m4", lat, 9, -5, True, {}, _table(lat, {k: 1, -k: -1}))
    return model, model2, empty, ones


def _table_model(plus, minus, values):
    """A model on <1>^plus + <-1>^minus with the given {coords: value} entries
    and their negations."""
    lat = _diag_lattice("table", plus, minus)
    entries = {}
    for coords, value in values.items():
        entries[coords], entries[tuple(-x for x in coords)] = value, -value
    n = plus + minus
    return FourManifoldModel("table", lat, 2 + n, plus - minus, True, {},
                             SWTable(lat, tuple(entries.items())))


# (3, +-1, ..., +-1) on <1> + n<-1> is characteristic with d = 0, and
# (5, +-1, ..., +-1) with d = 4
PARTNERS_ALL_EARLIER = _table_model(  # every sign pattern: (3, 1, 1, 1) has only earlier partners
    1, 3, {(3, a, b, c): 2 for a in (1, -1) for b in (1, -1) for c in (1, -1)})
MIXED_GROUP = _table_model(  # (3, 1, +-1) are partners, (5, 1, 1) has none: one magnitude
    1, 2, {(3, 1, 1): 2, (3, 1, -1): 2, (5, 1, 1): 2})
ONLY_LOW_PAIRED = _table_model(  # the partners have magnitude 1, the class of magnitude 2 none
    1, 2, {(3, 1, 1): 1, (3, 1, -1): 1, (5, 1, 1): 2})
EARLIER_SCAN = _table_model(  # (3, 1, -1, 1) is no earlier class's first later partner
    1, 3, {(3, -1, -1, 1): 2, (3, -1, 1, 1): 2, (3, 1, -1, 1): 2})


def test_minimality_verdicts():
    model, model2, empty, ones = _minimality_tables()
    assert minimality_check(model).status == "minimal_certified"
    verdict = minimality_check(model2)
    assert verdict.status == "blowup_pair_found"
    assert verdict.e_square == -1
    assert minimality_check(empty).status == "inconclusive"
    assert minimality_check(ones).status == "inconclusive"
    assert minimality_check(PARTNERS_ALL_EARLIER) == MinimalityVerdict(
        "blowup_pair_found", ((-3, -1, -1, -1), (-3, -1, -1, 1)), -1)
    assert minimality_check(MIXED_GROUP).status == "inconclusive"
    assert minimality_check(ONLY_LOW_PAIRED).status == "minimal_certified"
    assert minimality_check(EARLIER_SCAN) == MinimalityVerdict(
        "blowup_pair_found", ((-3, -1, 1, -1), (-3, 1, 1, -1)), -1)


def _surgered(twists, blowups):
    X = e1()
    for n in twists:
        X = knot_surgery_manifold(X, X.marked_class("T"), TwistKnot(n))
    for _ in range(blowups):
        X = blowup(X)
    return X


def test_minimality_matches_pairwise_oracle_on_surgered_models():
    rng = random.Random(17)
    # blowups of tables with no magnitude >= 2 (values +-1, and none)
    models = list(_minimality_tables()) + [_surgered([1], 1), _surgered([0], 2)]
    for knots, blowups in STRATA:
        for _ in range(2):
            models.append(_surgered([rng.randint(-30, 30) for _ in range(knots)], blowups))
    verdicts = [minimality_check(X) for X in models]
    assert verdicts == [pairwise_minimality(X) for X in models]
    assert {v.status for v in verdicts} == {"minimal_certified", "blowup_pair_found", "inconclusive"}


@st.composite
def congruent_models(draw):
    """A model on <1> + n<-1> (n = 9..11) seen through a random unimodular basis
    change, so its Gram is not diagonal.  SW classes are drawn in diagonal
    coordinates (odd entries, so characteristic), some with a partner that
    differs by 2e_i, with magnitudes 1-3, and mapped by the inverse transpose.
    The marked classes are h (the image of e_0) and a period H with H^2 > 0
    and H.h > 0."""
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
    period = [draw(st.integers(4, 9))] + [draw(st.integers(-1, 1)) for _ in range(n)]
    marked = {name: tuple(int(t) for t in inv_t * sympy.Matrix(y))
              for name, y in (("h", [1] + [0] * n), ("H", period))}
    return FourManifoldModel("congruent", lattice, n + 3, 1 - n, True, marked, table)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(congruent_models())
@example(PARTNERS_ALL_EARLIER)
@example(MIXED_GROUP)
@example(ONLY_LOW_PAIRED)
@example(EARLIER_SCAN)
def test_minimality_matches_pairwise_oracle_on_non_diagonal_lattices(model):
    assert minimality_check(model) == pairwise_minimality(model)


def _outcome(query, *args):
    """The query's value, or the type and text of the ValueError it raised."""
    try:
        return query(*args)
    except ValueError as error:
        return type(error), str(error)


def _assert_queries_match_oracles(model, chambers):
    """value, dimension and chamber_sw against the naive oracles on the table
    and marked classes k, the characteristic k + 2e and non-characteristic
    k + e off the table, and k's coordinates in a lattice of another form."""
    lattice = model.lattice
    other = _diag_lattice("other", 2, lattice.rank - 2)
    base = list(model.sw.classes()) + [model.marked_class(name) for name, _ in model.marked]
    queries = []
    for i, k in enumerate(base):
        e = lattice.basis_class(lattice.basis[i % lattice.rank])
        queries += [k, k + 2 * e, k + e, other.element(k.coords)]
    kinds = Counter()
    for k in queries:
        value = _outcome(model.sw.value, k)
        assert value == _outcome(naive_value, model.sw, k)
        d = _outcome(dimension, model, k)
        assert d == _outcome(naive_dimension, model, k)
        kinds[d[0].__name__ if isinstance(d, tuple) else "int"] += 1
        for chamber in chambers:
            assert _outcome(chamber_sw, model, k, chamber) == \
                _outcome(naive_chamber_sw, model, k, chamber)
    return kinds


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(congruent_models())
def test_sw_queries_match_naive_oracles_on_non_diagonal_lattices(model):
    chambers = [Chamber(model, model.marked_class("h")), Chamber(model, model.marked_class("H"))]
    _assert_queries_match_oracles(model, chambers)


def test_sw_queries_match_naive_oracles_on_surgered_models():
    rng = random.Random(29)
    kinds = Counter()
    for knots, blowups in STRATA:
        X = _surgered([rng.randint(-30, 30) for _ in range(knots)], blowups)
        # a period crossing the walls of some k - E_i (as in the z3 tests) besides h
        coeffs = {"eta": 7, "eps3": -3, **{f"eps{i}": -2 for i in (1, 2, 4, 5, 6, 7, 8, 9)},
                  **{f"E{i}": -1 for i in range(min(blowups, 3))}}
        chambers = [Chamber(X, X.marked_class("h")), Chamber(X, class_from_coeffs(X, coeffs))]
        kinds += _assert_queries_match_oracles(X, chambers)
    # dimensions, a non-characteristic class and a class of another lattice all met
    assert set(kinds) == {"int", "NonCharacteristicError", "ValueError"}


def test_calculus_queries_do_each_piece_of_work_once(monkeypatch):
    for memo in memos().values():  # a fresh support, whose partner tests no earlier query made
        memo.cache_clear()
    X = _surgered((9, -14, 17, -8), 4)
    classes = X.sw.classes()
    assert len(classes) == 128
    chamber = Chamber(X, X.marked_class("h"))
    # the class work, the jump rule and the partner tests, through every
    # module that binds them
    calls = counting(monkeypatch, (
        "lattice.is_characteristic", "lattice.square", "lattice.signature_and_betti",
        "lattice.gram_image", "manifold._blowup_partners", "manifold._Support.partnered",
        "manifold.dimension", "manifold.wall_crossing_delta"))
    # the table's classes were validated when it was built, and their
    # common square k^2 = -4 was carried through surgery and blowups
    assert [dimension(X, k) for k in classes] == [0] * 128
    assert calls == Counter()
    off_table = classes[0] + 2 * X.marked_class("h")
    assert X.sw.value(off_table) == 0
    dimension(X, off_table)  # the test and the square each take one image
    assert calls == Counter({"lattice.is_characteristic": 1, "lattice.square": 1,
                             "lattice.gram_image": 2})
    calls.clear()
    # b+, G h and G H are the chamber's facts, found when it was built, so
    # each class takes one dot product each; at the chamber of h no class
    # crosses a wall, so no jump (nor its dimension) is taken
    assert [chamber_sw(X, k, chamber) for k in classes] == [v for _, v in X.sw.entries]
    assert calls == Counter()
    # a blowup's support pairs each class with the next, k - E with k + E,
    # so the verdict and its witness need no partner test, against the
    # 8,128 entry pairs of a pairwise scan
    assert minimality_check(X) == pairwise_minimality(X)
    assert minimality_check(X).status == "blowup_pair_found"
    assert calls == Counter()


def test_chamber_sides_are_taken_once_per_support_and_chamber(monkeypatch):
    for memo in memos().values():  # a fresh support, with no sides taken yet
        memo.cache_clear()
    X, twin = _surgered((4, -7), 2), _surgered((5, -9), 2)
    support = X.sw._support
    assert twin.sw._support is support and len(support.coords) == 16
    taken, sides = [], manifold._Support.sides

    def spied(self, facts):
        out = sides(self, facts)
        taken.append((self, out))  # keeps every list alive, so ids stay distinct
        return out

    monkeypatch.setattr(manifold._Support, "sides", spied)
    # a period crossing the walls of some k - E_i, besides h
    coeffs = {"eta": 7, "eps3": -3, **{f"eps{i}": -2 for i in (1, 2, 4, 5, 6, 7, 8, 9)}, "E0": -1}
    models = (X, twin, X.renamed("R"), twin.renamed("S"))
    chambers = [[Chamber(m, m.marked_class("h")), Chamber(m, class_from_coeffs(m, coeffs))]
                for m in models]
    # the table's classes and, off the table, characteristic and
    # non-characteristic classes, each checked against the oracle
    h, table = X.marked_class("h"), X.sw.classes()
    queries = [q.coords for k in table for q in (k, k + 2 * h, k + h)]
    for index in (0, 1):  # every model in one chamber: the sides are taken once
        taken.clear()
        for model, own in zip(models, chambers):
            for k in map(model.lattice.element, queries):
                assert _outcome(chamber_sw, model, k, own[index]) == \
                    _outcome(naive_chamber_sw, model, k, own[index])
        assert len({id(out) for _, out in taken}) == 1
        assert {self for self, _ in taken} == {support}
    # two chambers alternated on one support: one slot, taken again at each switch
    taken.clear()
    for k in table:
        for chamber in chambers[0]:
            assert chamber_sw(X, k, chamber) == naive_chamber_sw(X, k, chamber)
    assert len({id(out) for _, out in taken}) == len(taken) == 2 * len(X.sw)


def test_chamber_sides_read_their_slot_once():
    # a support whose one-slot cache hands out another chamber's sides on
    # every second read, as if another thread wrote it between two reads
    X = _surgered((4, -7), 2)
    # a period across the walls of two table classes
    coeffs = {"eta": 7, **{f"eps{i}": -2 for i in range(1, 10)}, "E0": -3, "E1": -1}
    crossing = Chamber(X, class_from_coeffs(X, coeffs))
    assert sum(chamber_sw(X, k, crossing) != v for k, (_, v) in zip(X.sw.classes(), X.sw.entries)) == 2
    stale = crossing._facts, manifold._Support(X.sw._support.coords).sides(crossing._facts)

    class Contended(manifold._Support):
        reads = 0

        @property
        def _sides(self):
            self.reads += 1
            return stale if self.reads % 2 == 0 else self.__dict__["slot"]

        @_sides.setter
        def _sides(self, slot):
            self.__dict__["slot"] = slot

    support = Contended(X.sw._support.coords, X.sw._support.square, X.sw._support.paired)
    Y = X._replaced(sw=SWTable._trusted(X.lattice, support, [v for _, v in X.sw.entries]))
    chamber = Chamber(Y, Y.marked_class("h"))
    for _ in range(3):
        assert [chamber_sw(Y, k, chamber) for k in Y.sw.classes()] == [v for _, v in Y.sw.entries]


def _plus_sum(X):
    """X # CP^2 with an empty table: b+ = 2, so it has no chamber invariants."""
    n = X.lattice.rank
    gram = tuple(row + (0,) for row in X.lattice.gram) + ((0,) * n + (1,),)
    lattice = IntersectionLattice(X.lattice.basis + ("P",), gram, name=f"{X.name}#cp2")
    marked = {name: coords + (0,) for name, coords in X.marked}
    return FourManifoldModel(f"{X.name}#cp2", lattice, X.euler + 1, X.sign + 1, True, marked,
                             SWTable(lattice, ()))


def _carried_answers(model):
    """dimension and chamber_sw on a spread of the table's classes, each
    checked against the naive oracles, with every invalid chamber input."""
    classes = model.sw.classes()
    sample = classes[::max(1, len(classes) // 12)]
    h = model.marked_class("h")
    chambers = [Chamber(model, h), Chamber(FourManifoldModel.from_dict(model.to_dict()), h)]
    other = Chamber(model.renamed("other"), h)
    plus = _plus_sum(model)
    answers = []
    for k in sample:
        d = dimension(model, k)
        assert d == naive_dimension(model, k)
        answers.append(d)
        # the reference chamber (the model itself, and an equal copy), another
        # model's chamber, and a period on k's wall when k^2 < 0: with
        # P = (h.k) k - k^2 h, P.k = 0, P.h = (h.k)^2 - k^2 > 0 and
        # P^2 = -k^2 ((h.k)^2 - k^2) > 0
        queries = [(model, k, chamber) for chamber in chambers] + [(model, k, other)]
        if square(k) < 0:
            wall = Chamber(model, pair(h, k) * k - square(k) * h)
            queries.append((model, k, wall))
        # b+ = 2 is refused before the chamber's model is compared
        lifted = plus.lattice.element(k.coords + (1,))
        queries += [(plus, lifted, Chamber(plus, plus.marked_class("h"))),
                    (plus, lifted, chambers[0])]
        for args in queries:
            outcome = _outcome(chamber_sw, *args)
            assert outcome == _outcome(naive_chamber_sw, *args)
            answers.append(outcome)
    return answers


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=3), st.integers(0, 5))
@example([0, -3], 5)
@example([0], 2)
def test_carried_square_matches_oracles(twists, blowups):
    X = _surgered(twists, blowups)
    # (j T)^2 = 0 after surgery, and each blowup takes 1 off
    assert X.sw._support.square == -blowups
    assert all(square(k) == X.sw._support.square for k in X.sw.classes())
    answers = _carried_answers(X)
    # every invalid input was met, a wall once k^2 < 0
    raised = {a[0] for a in answers if isinstance(a, tuple)}
    expected = {ValueError, OnWallError} if blowups else {ValueError}
    assert raised == (expected if len(X.sw) else set())
    # a model loaded from JSON squares its classes, before and after a blowup
    loaded = FourManifoldModel.from_dict(X.to_dict())
    assert loaded.sw._support.square is None and blowup(loaded).sw._support.square is None
    assert _carried_answers(loaded) == answers
    assert _carried_answers(blowup(loaded)) == _carried_answers(blowup(X))


def test_cached_indexes_stay_invisible(z3):
    fresh = FourManifoldModel.from_dict(z3.to_dict())
    queried = FourManifoldModel.from_dict(z3.to_dict())
    k = queried.sw.classes()[0]
    chamber = Chamber(queried, queried.marked_class("h"))
    assert queried.sw.value(k) == chamber_sw(queried, k, chamber)
    assert dimension(queried, k) == 0
    assert "index" in vars(queried.sw._support) and "_facts" in vars(chamber)
    assert queried == fresh and hash(queried) == hash(fresh)
    assert queried.sw == fresh.sw and hash(queried.sw) == hash(fresh.sw)
    untouched = Chamber(fresh, fresh.marked_class("h"))
    assert chamber == untouched and hash(chamber) == hash(untouched)
    assert json.dumps(queried.to_dict()) == json.dumps(fresh.to_dict())
    assert [f.name for f in dataclasses.fields(SWTable)] == ["lattice", "entries", "convention_note"]
    assert [f.name for f in dataclasses.fields(Chamber)] == ["model", "period"]
    # no cache sits on the model itself, whose _replaced spreads __dict__
    model_fields = {f.name for f in dataclasses.fields(FourManifoldModel)}
    assert set(vars(queried)) == model_fields
    renamed = queried.renamed("queried")
    assert set(vars(renamed)) == model_fields
    assert renamed == fresh.renamed("queried") and renamed.name == "queried"
    assert chamber_sw(renamed, k, Chamber(renamed, renamed.marked_class("h"))) == queried.sw.value(k)
    # knot surgery keeps the Alexander product of the history on its model,
    # outside the fields; renamed and blown-up models drop it
    surgered = knot_surgery_manifold(e1(), e1().marked_class("T"), TwistKnot(3))
    loaded = FourManifoldModel.from_dict(surgered.to_dict())
    assert set(vars(surgered)) == model_fields | {"_alexander"} and set(vars(loaded)) == model_fields
    assert vars(surgered)["_alexander"] == alexander_twist(3)
    assert surgered == loaded and hash(surgered) == hash(loaded)
    assert json.dumps(surgered.to_dict()) == json.dumps(loaded.to_dict())
    for passed_on in (surgered.renamed("Y3"), blowup(surgered)):
        assert set(vars(passed_on)) == model_fields


def test_fingerprint(e1_model):
    assert tuple(fingerprint(e1_model)) == (1, 9, "odd", True)


def test_sw_table_validation(z3):
    lat = z3.lattice
    lift = class_from_coeffs(z3, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
    with pytest.raises(ValueError, match="negation"):
        _table(lat, {lift: 3})
    with pytest.raises(ValueError, match="nonzero"):
        _table(lat, {lift: 0, -lift: 0})
    with pytest.raises(ValueError, match="characteristic"):
        _table(lat, {z3.marked_class("T"): 1, -z3.marked_class("T"): -1})


def test_model_validation_errors(e1_model):
    lat = e1_model.lattice
    marked, empty = dict(e1_model.marked), SWTable(lat, ())
    with pytest.raises(ValueError, match="sign"):
        FourManifoldModel("bad", lat, 12, 8, True, marked, empty)
    with pytest.raises(ValueError, match="euler"):
        FourManifoldModel("bad", lat, 13, -8, True, marked, empty)


def test_marked_class_from_another_lattice_rejected():
    a = _diag_lattice("A", 1, 1)
    b = IntersectionLattice(a.basis, ((1, 2), (2, -1)), name="B")  # same rank, other Gram
    with pytest.raises(ValueError, match="marked class 'h' lives in another lattice"):
        FourManifoldModel("m", a, 4, 0, True, {"h": b.element((1, 1))}, SWTable(a, ()))
    # a class of an equal lattice is accepted, and its coordinates kept
    twin = _diag_lattice("A2", 1, 1)
    model = FourManifoldModel("m", a, 4, 0, True, {"h": twin.element((1, 1))}, SWTable(a, ()))
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
