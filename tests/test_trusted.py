"""Trusted construction: outputs agree with the validating constructors, and
warm family builds do not fall back to re-validation."""

from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsurgery.knots import LaurentPolynomial, TwistKnot, alexander_twist, knot_surgery_manifold
from swsurgery.lattice import IntersectionLattice
from swsurgery.manifold import FourManifoldModel, SWTable, _Support, blowup
from swsurgery.models import PI1_NOTE_BLOWDOWN, e1
from swsurgery.monodromy import TWIST_A, TWIST_B, IntegerMatrix2
from swsurgery.pipelines import FAMILIES, build_family, verify_paper
from swsurgery.plumbing import rational_blowdown
from swsurgery.report import Check

from .trusted import SHIPPED, validating_trusted

# The full validators, and how often one warm build_family(key, 5) may run
# each: every step builds trusted, the blowdown's SW table and model from
# what its chain plan proved, and the report's checks from canonical values.
VALIDATOR_BOUNDS = {IntersectionLattice: 0, SWTable: 0, FourManifoldModel: 0, Check: 0}


def test_trusted_constructions_match_public_constructors():
    plain = verify_paper().to_json()
    families = {(key, n): build_family(key, n)[1].to_json()
                for key in FAMILIES for n in (1, 2, 3)}
    with validating_trusted():
        report = verify_paper()
        assert report.all_pass
        assert report.to_json() == plain
        for (key, n), expected in families.items():
            model, rep = build_family(key, n)
            assert rep.all_pass and rep.to_json() == expected


def test_validation_covers_carried_squares_and_word_products():
    with validating_trusted():
        Y = knot_surgery_manifold(e1(), e1().marked_class("T"), TwistKnot(3))
        X = blowup(Y)
        assert X.sw._support.square == -1  # so dimension still reads the carried square
        for key in FAMILIES:  # a blowdown carries its classes' common square, checked too
            model, _ = build_family(key, 2)
            assert model.sw._support.square == FAMILIES[key].lift_square
        values = [v for _, v in X.sw.entries]
        with pytest.raises(AssertionError, match="carried square"):
            SWTable._trusted(X.lattice, _Support(X.sw._support.coords, 0), values)
        with pytest.raises(AssertionError, match="in order"):
            SWTable._trusted(X.lattice, _Support(X.sw._support.coords[::-1]), values[::-1])
        with pytest.raises(AssertionError, match="blowup pair"):  # -3 T and 3 T are no pair
            SWTable._trusted(Y.lattice, _Support(Y.sw._support.coords, 0, True),
                             [v for _, v in Y.sw.entries])
        assert (TWIST_A @ TWIST_B).rows() == ((0, 1), (-1, 1))
        with pytest.raises(ValueError, match="determinant"):
            IntegerMatrix2._trusted(2, 0, 0, 1)


def test_step_by_step_builds_match_build_family():
    # every family member rebuilt through the public steps, each trusted
    # construction validated, is the model build_family makes, and its
    # validated report is the plain one: no step keys anything on n
    plain = {(key, n): build_family(key, n) for key in FAMILIES for n in range(1, 21)}
    with validating_trusted():
        for (key, n), (model, rep) in plain.items():
            spec = FAMILIES[key]
            X = e1()
            for twist in (1, n) if spec.base == "v_n" else (n,):
                X = knot_surgery_manifold(X, X.marked_class("T"), TwistKnot(twist))
            for _ in range(spec.blowups):
                X = blowup(X)
            rebuilt = rational_blowdown(X, spec.embedding(X), spec.chamber(X), simply_connected=True,
                                        pi1_note=PI1_NOTE_BLOWDOWN, name=spec.name.format(n=n))
            assert rebuilt.to_dict() == model.to_dict()
            assert build_family(key, n)[1].to_json() == rep.to_json()


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_warm_family_build_skips_revalidation(key, monkeypatch):
    for cls, method in SHIPPED.items():
        monkeypatch.setattr(cls, "_trusted", method)
    build_family(key, 5)  # fill the memos
    counts = Counter()
    for cls in VALIDATOR_BOUNDS:
        def counted(self, _check=cls.__post_init__, _cls=cls):
            counts[_cls] += 1
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    build_family(key, 5)
    for cls, bound in VALIDATOR_BOUNDS.items():
        assert counts[cls] <= bound, f"{cls.__name__}.__post_init__ ran {counts[cls]} times"


def assert_trusted_parts_validate(X: FourManifoldModel) -> None:
    assert FourManifoldModel.from_dict(X.to_dict()) == X
    assert SWTable(X.lattice, X.sw.entries, X.sw.convention_note) == X.sw
    for p in X.surgery_history:
        assert LaurentPolynomial(p.terms) == p


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=4), st.integers(0, 4))
def test_calculus_models_validate(twists, blowups):
    X = e1()
    for n in twists:
        X = knot_surgery_manifold(X, X.marked_class("T"), TwistKnot(n))
    for _ in range(blowups):
        X = blowup(X)
    assert_trusted_parts_validate(X)
    # polynomial products and mirrors build their results trusted too
    product = reduce(LaurentPolynomial.__mul__, [alexander_twist(n) for n in twists])
    for p in (product, product.mirror(), product * LaurentPolynomial.from_doubled({1: 1, -6: -2})):
        assert LaurentPolynomial(p.terms) == p


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 20))
def test_family_models_validate(key, n):
    model, _ = build_family(key, n)
    assert_trusted_parts_validate(model)
    assert_trusted_parts_validate(FAMILIES[key].ambient(n))
