import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsurgery import knots
from swsurgery.knots import (
    LaurentPolynomial,
    TwistKnot,
    alexander_twist,
    e1_knot_surgery_sw,
    knot_surgery_manifold,
    poly_in_s,
)
from swsurgery.lattice import IntersectionLattice, pair, square
from swsurgery.manifold import FourManifoldModel, SWTable, blowup
from swsurgery.models import e1

from .oracles import s_series_product, surgery_table_by_division
from .trusted import SHIPPED, counting

S_LAURENT = LaurentPolynomial.from_doubled({1: 1, -1: -1})  # t^(1/2) - t^(-1/2)


def test_alexander_values():
    assert str(alexander_twist(1)) == "t^1 - 1 + t^-1"
    assert str(alexander_twist(0)) == "1"
    assert str(alexander_twist(3)) == "3t^1 - 5 + 3t^-1"


def test_alexander_normalization_and_symmetry():
    for n in range(-10, 11):
        poly = alexander_twist(n)
        assert poly.at_one() == 1
        assert poly.is_symmetric()


@pytest.mark.parametrize("doubled, text", [
    ({2: 3, 0: -5, -2: 3}, "3t^1 - 5 + 3t^-1"),
    ({2: 1, 0: -1, -2: 1}, "t^1 - 1 + t^-1"),
    ({1: 1}, "t^1/2"),
    ({-3: 1}, "t^-3/2"),
    ({3: 2, -3: -2}, "2t^3/2 - 2t^-3/2"),
    ({1: -1, -1: 1}, "-t^1/2 + t^-1/2"),
    ({4: -1, 0: 4}, "-t^2 + 4"),
    ({0: -7}, "-7"),
    ({2: 0, 0: 1}, "1"),
    ({}, "0"),
])
def test_polynomial_printing(doubled, text):
    # keys are doubled exponents: 1 is t^(1/2), -3 is t^(-3/2)
    assert str(LaurentPolynomial.from_doubled(doubled)) == text


def test_non_integer_terms_are_refused_not_truncated(e1_model):
    # truncated, ((2, 1.5), (0.9, 3)) would read as t + 3, and TwistKnot(1.5)
    # as the polynomial of TwistKnot(1)
    for terms in (((2, 1.5), (0.9, 3)), ((0, "1"),), ((2, Fraction(3, 2)),), ((0, 0.0),)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            LaurentPolynomial(terms)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        knot_surgery_manifold(e1_model, e1_model.marked_class("T"), TwistKnot(1.5))


def test_twist_polynomials_are_built_trusted_with_the_checked_terms(monkeypatch):
    for n in range(-30, 31):
        checked = LaurentPolynomial.from_doubled({2: n, 0: 1 - 2 * n, -2: n})
        assert alexander_twist(n).terms == checked.terms
    assert alexander_twist(True).terms == ((-2, 1), (0, -1), (2, 1))
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        alexander_twist(1.5)
    # a twist chain runs no polynomial through the validator (counted with
    # the shipped, unchecked constructions)
    monkeypatch.setattr(LaurentPolynomial, "_trusted", SHIPPED[LaurentPolynomial])
    calls = counting(monkeypatch, ("knots.LaurentPolynomial.__post_init__",))
    _surger(e1(), TwistKnot(9), -14, TwistKnot(17), -8)
    assert calls == Counter()


def test_poly_in_s_twist():
    for n in (0, 1, 3, 7):
        expected = {0: 1} if n == 0 else {0: 1, 1: n}
        assert poly_in_s(alexander_twist(n)) == expected


def test_poly_in_s_product():
    product = alexander_twist(1) * alexander_twist(4)
    assert poly_in_s(product) == {0: 1, 1: 5, 2: 4}


def test_poly_in_s_multiplicative():
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        pa, pb = alexander_twist(a), alexander_twist(b)
        assert poly_in_s(pa * pb) == s_series_product(poly_in_s(pa), poly_in_s(pb))


def test_poly_in_s_errors():
    with pytest.raises(ValueError, match="symmetric"):
        poly_in_s(LaurentPolynomial.from_doubled({2: 1, 0: -1}))
    with pytest.raises(ValueError, match="normalization"):
        poly_in_s(LaurentPolynomial.from_doubled({2: 1, 0: 1, -2: 1}))
    with pytest.raises(ValueError, match="integer exponents"):
        poly_in_s(LaurentPolynomial.from_doubled({1: 1, -1: 1}))


def test_surgery_tables():
    for n in range(1, 11):
        assert e1_knot_surgery_sw([n]) == {1: n, -1: -n}
        assert e1_knot_surgery_sw([1, n]) == {3: n, 1: -(2 * n - 1), -1: 2 * n - 1, -3: -n}
    assert e1_knot_surgery_sw([]) == {}
    assert e1_knot_surgery_sw([0]) == {}


def test_surgery_table_antisymmetry_random():
    rng = random.Random(17)
    for _ in range(300):
        knots = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
        table = e1_knot_surgery_sw(knots)
        for j, v in table.items():
            assert table[-j] == -v


def test_quotient_reconstruction_oracle():
    # s * (expanded quotient) + P(0) must reproduce the full product in t
    rng = random.Random(29)
    for _ in range(200):
        knots = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        polys = [alexander_twist(n) for n in knots]
        product = reduce(LaurentPolynomial.__mul__, polys)
        table = e1_knot_surgery_sw(knots)
        reconstructed = dict((S_LAURENT * LaurentPolynomial.from_doubled(table)).terms)
        constant = s_series_product(*[poly_in_s(p) for p in polys]).get(0, 0)
        reconstructed[0] = reconstructed.get(0, 0) + constant
        assert {e: c for e, c in reconstructed.items() if c} == dict(product.terms)


@st.composite
def alexander_maps(draw):
    """A symmetric integer {t exponent: coefficient} map of degree <= 6 with p(1) = +-1."""
    upper = draw(st.lists(st.integers(-20, 20), max_size=6))
    terms = {0: draw(st.sampled_from((1, -1))) - 2 * sum(upper)}
    for k, c in enumerate(upper, 1):
        terms[k] = terms[-k] = c
    return terms


def _polynomial(terms):
    return LaurentPolynomial.from_doubled({2 * k: c for k, c in terms.items()})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(alexander_maps(), max_size=4))
def test_surgery_rule_matches_sympy_division(maps):
    table = e1_knot_surgery_sw([_polynomial(m) for m in maps])
    assert table == surgery_table_by_division(maps)
    assert list(table) == sorted(table)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alexander_maps(), st.integers(1, 6), st.integers(1, 20),
       st.sampled_from(("integer exponents", "symmetric", "normalization")))
def test_surgery_rule_refuses_non_alexander_input(terms, k, c, fault):
    doubled = {2 * e: v for e, v in terms.items()}
    if fault == "integer exponents":  # symmetric, but with t^((2k - 1)/2) terms
        doubled[2 * k - 1] = doubled[1 - 2 * k] = c
    elif fault == "symmetric":  # t^k gains c, and p(1) is kept
        doubled[2 * k] = doubled.get(2 * k, 0) + c
        doubled[0] -= c
    else:  # p(1) = +-(1 + c)
        doubled[0] += c * sum(terms.values())
    bad = LaurentPolynomial.from_doubled(doubled)
    for compute in (poly_in_s, lambda p: e1_knot_surgery_sw([1, p])):
        with pytest.raises(ValueError, match=fault):
            compute(bad)


def test_knot_surgery_manifold(e1_model):
    fiber = e1_model.marked_class("T")
    y = knot_surgery_manifold(e1_model, fiber, TwistKnot(4))
    assert (y.euler, y.sign) == (12, -8)
    assert y.sw.magnitudes() == (4, 4)
    h = y.marked_class("h")
    assert square(h) == 1 and pair(h, fiber) == 3
    unknot = knot_surgery_manifold(e1_model, fiber, TwistKnot(0))
    assert len(unknot.sw) == 0


def test_double_surgery(v3):
    t = v3.marked_class("T")
    assert abs(v3.sw.value(3 * t)) == 3
    assert abs(v3.sw.value(t)) == 5
    assert v3.sw.magnitudes() == (3, 3, 5, 5)


def test_knot_surgery_errors(e1_model, y3):
    h = e1_model.marked_class("h")
    with pytest.raises(ValueError, match="square-zero"):
        knot_surgery_manifold(e1_model, h, TwistKnot(1))
    doubled_fiber = 2 * e1_model.marked_class("T")
    with pytest.raises(ValueError, match="marked class T"):
        knot_surgery_manifold(e1_model, doubled_fiber, TwistKnot(1))
    blown = blowup(y3)
    with pytest.raises(ValueError, match="3 sign \\+ 2 euler"):
        knot_surgery_manifold(blown, blown.marked_class("T"), TwistKnot(1))


def test_knot_surgery_of_a_flipped_fiber_and_fault_order(e1_model):
    # with -T marked as the fiber the classes j (-T) sort in decreasing j;
    # the trusted table is the sorted one, its values those of j T negated
    T = e1_model.marked_class("T")
    flipped = FourManifoldModel("E1", e1_model.lattice, 12, -8, True,
                                {"T": -T, "h": e1_model.marked_class("h")}, e1_model.sw)
    y, flipped_y = (knot_surgery_manifold(X, X.marked_class("T"), TwistKnot(2))
                    for X in (e1_model, flipped))
    assert flipped_y.sw == SWTable(flipped.lattice, flipped_y.sw.entries)
    assert dict(flipped_y.sw.entries) == {c: -v for c, v in y.sw.entries}
    # a bad knot is reported after a fault of the fiber, as the checks run in order
    for fiber, message in ((e1_model.marked_class("h"), "square-zero"), (2 * T, "marked class T")):
        with pytest.raises(ValueError, match=message):
            knot_surgery_manifold(e1_model, fiber, "not a knot")
    with pytest.raises(TypeError, match="expected TwistKnot"):
        knot_surgery_manifold(e1_model, T, "not a knot")


def test_resurgery_needs_history(y3):
    from swsurgery.manifold import FourManifoldModel

    data = y3.to_dict()
    del data["surgery_history"]
    loaded = FourManifoldModel.from_dict(data)
    with pytest.raises(ValueError, match="history"):
        knot_surgery_manifold(loaded, loaded.marked_class("T"), TwistKnot(2))


def test_reloaded_model_surgers_again(y3):
    from swsurgery.manifold import FourManifoldModel

    loaded = FourManifoldModel.from_dict(y3.to_dict())
    assert loaded == y3
    again = knot_surgery_manifold(loaded, loaded.marked_class("T"), TwistKnot(2))
    assert again == knot_surgery_manifold(y3, y3.marked_class("T"), TwistKnot(2))
    assert again.sw.magnitudes() == (6, 6, 13, 13)


def test_general_symmetric_alexander_accepted(e1_model):
    fiber = e1_model.marked_class("T")
    # trefoil-like input given directly as a polynomial
    poly = LaurentPolynomial.from_doubled({2: 1, 0: -1, -2: 1})
    model = knot_surgery_manifold(e1_model, fiber, poly)
    assert model.sw.magnitudes() == (1, 1)


def _surger(X, *knots_in_turn):
    for knot in knots_in_turn:
        X = knot_surgery_manifold(X, X.marked_class("T"), knot)
    return X


def test_surgery_multiplies_one_polynomial_and_checks_each_once(monkeypatch):
    calls = Counter()
    multiply, check = LaurentPolynomial.__mul__, knots._check_alexander

    def counted_multiply(p, q):
        calls["multiply"] += 1
        return multiply(p, q)

    def counted_check(p):
        calls["check"] += 1
        return check(p)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counted_multiply)
    monkeypatch.setattr(knots, "_check_alexander", counted_check)
    # each surgery multiplies its parent's product by the one new polynomial,
    # and a twist knot is an Alexander polynomial by construction: the whole
    # history multiplied and checked again took 10 and 10
    X = _surger(e1(), TwistKnot(2), -5, TwistKnot(7), 3)
    assert calls == Counter(multiply=4)
    calls.clear()
    # a polynomial knot is checked once, where it enters
    poly = LaurentPolynomial.from_doubled({4: 1, 2: -2, 0: 3, -2: -2, -4: 1})
    Y = _surger(X, poly)
    assert calls == Counter(multiply=1, check=1)
    calls.clear()
    # a model without the product (loaded, or renamed) rebuilds it from its
    # history, each polynomial checked once, in order
    for parent in (FourManifoldModel.from_dict(Y.to_dict()), Y.renamed("Y")):
        again = _surger(parent, 1)
        assert calls == Counter(multiply=6, check=5)
        assert again == _surger(Y, 1).renamed(again.name)
        calls.clear()
    monkeypatch.undo()
    assert Y.sw == SWTable(Y.lattice, tuple(
        (tuple(j * x for x in Y.marked_class("T").coords), v)
        for j, v in e1_knot_surgery_sw([2, -5, 7, 3, poly]).items()))


def test_loaded_history_is_checked_on_first_surgery(y3):
    data = y3.to_dict()
    data["surgery_history"] = [[[2, 1], [0, -1], [-2, 1]], [[2, 2], [0, -1]]]  # the second is not symmetric
    loaded = FourManifoldModel.from_dict(data)
    unnormalized = LaurentPolynomial.from_doubled({2: 1, 0: 1, -2: 1})
    # the knot's type is checked first, then the history, then the knot
    for knot, error, match in ((TwistKnot(2), ValueError, "not symmetric under t -> 1/t"),
                               ("not a knot", TypeError, "expected TwistKnot"),
                               (unnormalized, ValueError, "not symmetric under t -> 1/t")):
        for _ in range(2):  # a product whose build raised was not kept
            with pytest.raises(error, match=match):
                knot_surgery_manifold(loaded, loaded.marked_class("T"), knot)
    data["surgery_history"][1] = [[2, 2], [0, -3], [-2, 2]]
    with pytest.raises(ValueError, match="normalization requires"):
        _surger(FourManifoldModel.from_dict(data), unnormalized)


@pytest.mark.parametrize("fiber, message", [
    ((0,) * 10, r"duplicate SW entry"),
    ((1, -1) + (0,) * 8, r"SW class \(.*\) is not characteristic"),
], ids=["zero", "not characteristic"])
def test_surgery_on_a_fiber_the_rule_cannot_trust(e1_model, fiber, message):
    # a marked T of square 0 that is zero, or not characteristic, gives j T
    # that the public table constructor refuses, after a nonempty history
    lattice = e1_model.lattice
    X = FourManifoldModel("F", lattice, 12, -8, True, {"T": fiber, "h": e1_model.marked_class("h")},
                          SWTable(lattice, ()), surgery_history=(alexander_twist(2),))
    assert square(X.marked_class("T")) == 0
    with pytest.raises(ValueError, match=message):
        knot_surgery_manifold(X, X.marked_class("T"), TwistKnot(3))


def test_surgery_on_a_zero_fiber_of_an_even_lattice():
    # in the even lattice E8(-1) + H the zero class is characteristic, so
    # only the fiber's nonzero test keeps j T = 0 (j = +-1) from a trusted
    # table: rank 10, sign -8 and euler 12 satisfy 3 sign + 2 euler = 0
    chain = {(i, i + 1) for i in range(6)} | {(4, 7)}  # the E8 Dynkin diagram
    gram = [[-2 if i == j else int((i, j) in chain or (j, i) in chain) for j in range(8)] + [0, 0]
            for i in range(8)]
    gram += [[0] * 8 + [0, 1], [0] * 8 + [1, 0]]
    lattice = IntersectionLattice(tuple(f"x{i}" for i in range(10)), gram, name="E8+H")
    X = FourManifoldModel("E8+H", lattice, 12, -8, True, {"T": (0,) * 10}, SWTable(lattice, ()))
    with pytest.raises(ValueError, match=r"duplicate SW entry for \(0, 0, 0, 0, 0, 0, 0, 0, 0, 0\)"):
        knot_surgery_manifold(X, X.marked_class("T"), TwistKnot(3))
