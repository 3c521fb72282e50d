import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsurgery import lattice as lattice_module
from swsurgery.exactmat import freeze
from swsurgery.lattice import (
    DegenerateFormError,
    HomologyClass,
    IntersectionLattice,
    LatticeMismatchError,
    is_characteristic,
    orthogonal_complement,
    pair,
    signature_and_betti,
    square,
)
from swsurgery.models import class_from_coeffs, e6_sphere_classes
from swsurgery.pipelines import FAMILIES
from swsurgery.plumbing import cp_chain, intersection_matrix

from .oracles import (
    congruent_gram,
    fraction_det,
    minors_signature,
    naive_is_characteristic,
    naive_pair,
)
from .trusted import SHIPPED, memos


def test_defining_squares(e1_model):
    eta = e1_model.lattice.basis_class("eta")
    assert square(eta) == 1
    for i in range(1, 10):
        assert square(e1_model.lattice.basis_class(f"eps{i}")) == -1
    assert pair(eta, e1_model.lattice.basis_class("eps1")) == 0


def test_fiber_square_zero(e1_model):
    fiber = e1_model.marked_class("T")
    assert square(fiber) == 0
    assert naive_pair(e1_model.lattice.gram, fiber.coords, fiber.coords) == 0


def test_pair_matches_naive_oracle(e1_model):
    rng = random.Random(7)
    gram = e1_model.lattice.gram
    for _ in range(300):
        x = e1_model.lattice.element([rng.randint(-9, 9) for _ in range(10)])
        y = e1_model.lattice.element([rng.randint(-9, 9) for _ in range(10)])
        assert pair(x, y) == naive_pair(gram, x.coords, y.coords)
        assert pair(x, y) == pair(y, x)


def test_bilinearity_small(e1_model):
    rng = random.Random(11)
    lat = e1_model.lattice
    for _ in range(200):
        x = lat.element([rng.randint(-5, 5) for _ in range(10)])
        y = lat.element([rng.randint(-5, 5) for _ in range(10)])
        z = lat.element([rng.randint(-5, 5) for _ in range(10)])
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        assert pair(m * x + n * y, z) == m * pair(x, z) + n * pair(y, z)


def test_zn_chain_pairings(z3):
    u = FAMILIES["xn"].embedding(z3).vertex_classes
    assert square(u[0]) == -9
    assert pair(u[0], u[1]) == 1
    for i in range(5):
        assert pair(u[i], u[i + 1]) == 1
    for i in range(6):
        for j in range(i + 2, 6):
            assert pair(u[i], u[j]) == 0


def test_e6_sphere_squares(z3):
    spheres = e6_sphere_classes(z3)
    for name, cls in spheres.items():
        assert square(cls) == -2, name


def test_h_class_data(z3):
    H = FAMILIES["xn"].chamber(z3).period
    h = z3.marked_class("h")
    assert pair(H, h) == 7
    assert square(H) == 5


def test_characteristic_examples(e1_model, z3):
    fiber = e1_model.marked_class("T")
    assert is_characteristic(fiber)
    assert not is_characteristic(e1_model.lattice.zero())
    lift = class_from_coeffs(z3, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
    assert is_characteristic(lift)


def test_van_der_blij_on_constructed_classes(e1_model, z3):
    # characteristic k on a unimodular lattice has k^2 = signature mod 8
    for model, k in [
        (e1_model, e1_model.marked_class("T")),
        (z3, class_from_coeffs(z3, {"T": 1, "E0": 1, "E1": 1, "E2": 1})),
        (z3, class_from_coeffs(z3, {"T": -1, "E0": 1, "E1": -1, "E2": 1})),
    ]:
        assert (square(k) - model.sign) % 8 == 0


def test_signatures(e1_model, z3):
    assert signature_and_betti(e1_model.lattice) == (1, 9)
    assert signature_and_betti(z3.lattice) == (1, 12)
    c7 = intersection_matrix(cp_chain(7)).matrix
    lat = IntersectionLattice(tuple(f"u{i}" for i in range(6)), c7, name="C7")
    assert signature_and_betti(lat) == (0, 6)
    assert minors_signature(c7) == (0, 6)


def test_signature_congruence_invariance():
    rng = random.Random(23)
    for _ in range(150):
        diag = [rng.choice([1, -1]) for _ in range(rng.randint(2, 5))]
        gram = congruent_gram(rng, diag)
        lat = IntersectionLattice(tuple(f"x{i}" for i in range(len(diag))), gram)
        expected = (diag.count(1), diag.count(-1))
        assert signature_and_betti(lat) == expected


def test_signature_matches_minor_oracle_random():
    rng = random.Random(31)
    for _ in range(40):
        diag = [rng.choice([1, -1]) for _ in range(rng.randint(2, 4))]
        gram = congruent_gram(rng, diag)
        lat = IntersectionLattice(tuple(f"x{i}" for i in range(len(diag))), gram)
        assert signature_and_betti(lat) == minors_signature(gram)


def test_orthogonal_complement_empty(z3):
    sub = orthogonal_complement(z3.lattice, [])
    assert sub.rank == z3.lattice.rank
    assert sub.gram == z3.lattice.gram


def test_orthogonal_complement_of_chain(z3):
    u = FAMILIES["xn"].embedding(z3).vertex_classes
    sub = orthogonal_complement(z3.lattice, u)
    assert sub.rank == 13 - 6 == 7
    assert sub.signature_and_betti() == (1, 6)
    for v in sub.vectors:
        for ui in u:
            assert pair(v, ui) == 0
    assert sub.gram == tuple(zip(*sub.gram))  # induced gram is symmetric


def test_orthogonal_complement_fills_its_gram_without_pair(z3, monkeypatch):
    rng = random.Random(41)
    lat = IntersectionLattice(tuple(f"x{i}" for i in range(6)),
                              congruent_gram(rng, [1, -1, -1, 2, -3, -1]))
    cases = [
        (z3.lattice, FAMILIES["xn"].embedding(z3).vertex_classes),
        (z3.lattice, [z3.marked_class("E0")]),
        (lat, [lat.element((1, 2, 0, -1, 0, 3)), lat.element((0, 1, 1, 0, -2, 0))]),
    ]
    calls = []
    monkeypatch.setattr(lattice_module, "pair", lambda x, y: calls.append((x, y)) or pair(x, y))
    subs = [orthogonal_complement(ambient, classes) for ambient, classes in cases]
    assert calls == []
    for sub in subs:
        assert sub.gram == tuple(tuple(pair(v, w) for w in sub.vectors) for v in sub.vectors)


def test_orthogonal_complement_single_exceptional(z3):
    sub = orthogonal_complement(z3.lattice, [z3.marked_class("E0")])
    assert sub.rank == 12
    assert sub.signature_and_betti() == (1, 11)


def test_orthogonal_complement_dependent_error(z3):
    u = FAMILIES["xn"].embedding(z3).vertex_classes
    with pytest.raises(ValueError, match="dependent"):
        orthogonal_complement(z3.lattice, [u[1], 2 * u[1]])


def test_lattice_mismatch_error(e1_model, z3):
    with pytest.raises(LatticeMismatchError):
        pair(e1_model.marked_class("T"), z3.marked_class("T"))


DEGENERATE_GRAMS = (
    ((0, 0), (0, 1)),
    ((1, 2, 3), (2, 4, 6), (3, 6, 9)),
    # all-zero diagonals: the first pivot is manufactured
    ((0, 1, 0), (1, 0, 0), (0, 0, 0)),
    ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0)),
    congruent_gram(random.Random(43), [1, -1, 0, -2, 0]),
)


def test_degenerate_lattice_rejected(e1_model):
    # the complement of the isotropic fiber T contains T, so its form is degenerate
    complement = orthogonal_complement(e1_model.lattice, [e1_model.marked_class("T")])
    with pytest.raises(DegenerateFormError) as err:
        complement.signature_and_betti()
    radicals = [(complement.gram, err.value.radical)]
    for gram in DEGENERATE_GRAMS + (complement.gram,):
        basis = tuple(f"x{i}" for i in range(len(gram)))
        for name in ("M", ""):
            with pytest.raises(DegenerateFormError) as err:
                IntersectionLattice(basis, gram, name=name)
            assert str(err.value) == f"lattice {name or '<unnamed>'} is degenerate"
            radicals.append((gram, err.value.radical))
    # each raise path carries a nonzero radical vector: G r = 0
    for gram, radical in radicals:
        assert len(radical) == len(gram) and any(radical)
        assert all(sum(g * x for g, x in zip(row, radical)) == 0 for row in gram)


def test_lattice_validation_errors():
    with pytest.raises(ValueError, match="symmetric"):
        IntersectionLattice(("x", "y"), ((1, 2), (3, 1)))
    with pytest.raises(ValueError, match="unique"):
        IntersectionLattice(("x", "x"), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="size"):
        IntersectionLattice(("x",), ((1, 0), (0, 1)))


def test_class_coordinate_length(e1_model):
    with pytest.raises(ValueError, match="length"):
        HomologyClass(e1_model.lattice, (1, 2))


def test_element_coerces_outside_data(e1_model):
    k = e1_model.lattice.element([3, "-1", -1.0, True] + [-1] * 6)
    assert k.coords == (3, -1, -1, 1) + (-1,) * 6
    assert all(type(c) is int for c in k.coords)
    assert k == e1_model.lattice.element((3, -1, -1, 1) + (-1,) * 6)


def test_every_cache_is_bounded():
    cached = memos()
    # the support, chamber, blowup and chain plan memos among them; what a
    # blowdown proved is kept on the blown-down support, not in a memo
    assert {"knots._surgery_support", "manifold._chamber_facts", "manifold._blowup_marked",
            "plumbing._chain_plan"} <= set(cached)
    for name, fn in cached.items():
        assert fn.cache_parameters()["maxsize"] is not None, name


def test_equal_lattices_share_a_cached_hash():
    named = IntersectionLattice(("a", "b"), ((1, 2), (2, -1)), name="first")
    trusted = IntersectionLattice._trusted(("a", "b"), ((1, 2), (2, -1)), "second")
    assert named == trusted and hash(named) == hash(trusted) == hash((named.basis, named.gram))
    assert vars(named)["_hash"] == hash(named)  # computed once, then read
    other = IntersectionLattice(("a", "b"), ((1, 2), (2, -3)), name="first")
    assert named != other


def _unchecked_lattice(basis, gram, rows=None):
    """The shipped ``IntersectionLattice._trusted``, which checks nothing, also
    under ``--validate-trusted``: it takes a degenerate Gram as well."""
    return SHIPPED[IntersectionLattice].__func__(IntersectionLattice, basis, gram, rows=rows)


@st.composite
def lattices_with_vectors(draw):
    """A random symmetric Gram of rank 1-12 (about half non-diagonal, degenerate
    ones built unchecked) with three coordinate vectors."""
    n = draw(st.integers(1, 12))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -5))
    gram = [[0] * n for _ in range(n)]
    diagonal = draw(st.booleans())
    for i in range(n):
        for j in (i,) if diagonal else range(i, n):
            gram[i][j] = gram[j][i] = draw(entries)
    basis, gram = tuple(f"g{i}" for i in range(n)), freeze(gram)
    # the pairings do not need a nondegenerate form, which only the public constructor checks
    unchecked = fraction_det(gram) == 0 or draw(st.booleans())
    lattice = (_unchecked_lattice if unchecked else IntersectionLattice)(basis, gram)
    vectors = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return lattice, draw(vectors), draw(vectors), draw(vectors)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lattices_with_vectors())
def test_sparse_rows_match_dense_oracles(data):
    lattice, x, y, k = data
    gram = lattice.gram
    assert pair(lattice.element(x), lattice.element(y)) == naive_pair(gram, x, y)
    assert square(lattice.element(k)) == naive_pair(gram, k, k)
    # the parities of the diagonal are characteristic in every diagonal lattice
    parities = [gram[i][i] % 2 for i in range(lattice.rank)]
    for v in (k, parities):
        assert is_characteristic(lattice.element(v)) == naive_is_characteristic(gram, v)
    # the sparse rows are derived data: equality, hash and repr ignore them
    twin = _unchecked_lattice(lattice.basis, gram, rows=())
    assert twin == lattice and hash(twin) == hash(lattice)
    assert "rows" not in repr(lattice)
