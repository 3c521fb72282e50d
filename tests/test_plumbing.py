import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swsurgery.exactmat import SingularMatrixError, matmul
from swsurgery.lattice import LatticeMismatchError, pair, square
from swsurgery.manifold import Chamber
from swsurgery.models import (
    class_from_coeffs,
    e6_embedding,
    wn_c7_profile_embedding,
)
from swsurgery.pipelines import FAMILIES
from swsurgery.plumbing import (
    ConfigurationEmbedding,
    EmbeddingError,
    LensSpace,
    PlumbingChain,
    boundary_lens_space,
    cp_chain,
    default_lift_candidates,
    e6_tilde_tree,
    find_characteristic_lifts,
    intersection_matrix,
    rational_blowdown,
    relative_square_of_restriction,
    verify_embedding,
)

from .oracles import chain_determinant_recurrence, continued_fraction, gauss_jordan_solve


def test_cp_chain_shapes():
    assert cp_chain(7).weights == (-9, -2, -2, -2, -2, -2)
    assert cp_chain(2).weights == (-4,)
    assert cp_chain(3).weights == (-5, -2)
    assert cp_chain(7).is_linear()
    with pytest.raises(ValueError, match="p >= 2"):
        cp_chain(1)


def test_chain_determinants_match_recurrence():
    for p in range(2, 21):
        form = intersection_matrix(cp_chain(p))
        assert form.det == chain_determinant_recurrence(p)
        assert abs(form.det) == p * p


def test_c7_inverse_head():
    inv = intersection_matrix(cp_chain(7)).inverse()
    assert inv[0][0] == Fraction(-6, 49)
    assert inv[0] == (Fraction(-6, 49), Fraction(-5, 49), Fraction(-4, 49),
                      Fraction(-3, 49), Fraction(-2, 49), Fraction(-1, 49))
    for p in range(2, 21):
        head = intersection_matrix(cp_chain(p)).inverse()[0][0]
        assert head == Fraction(-(p - 1), p * p)


def test_singular_inverse_errors():
    tree_form = intersection_matrix(e6_tilde_tree())
    assert tree_form.det == 0  # the tree supports a square-zero fiber class
    with pytest.raises(SingularMatrixError):
        tree_form.inverse()


def _relabelled_chain(weights, labels, rng):
    """The linear chain with the given weights along the path, vertex i of the
    path named labels[i], edges in random order and orientation."""
    n = len(weights)
    named = [0] * n
    for i, w in enumerate(weights):
        named[labels[i]] = w
    edges = [(labels[i], labels[i + 1])[::rng.choice((1, -1))] for i in range(n - 1)]
    rng.shuffle(edges)
    return PlumbingChain(tuple(named), tuple(edges))


@st.composite
def linear_chains(draw):
    # small weights make zero leading continuants and singular chains common
    weight = st.one_of(st.integers(-3, 3), st.integers(-80, 3))
    n = draw(st.integers(1, 60))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    labels = draw(st.permutations(range(len(weights))))
    return _relabelled_chain(weights, labels, draw(st.randoms(use_true_random=False)))


def _sympy_fraction_rows(matrix):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in matrix.tolist())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(linear_chains())
@example(PlumbingChain((0,), ()))
@example(PlumbingChain((1, 1), ((0, 1),)))  # singular
@example(PlumbingChain((1, 1, 1), ((2, 1), (0, 1))))  # lead[2] == 0, nonsingular
@example(PlumbingChain((1, 1, 1, 1, 1), ((3, 4), (0, 1), (2, 3), (1, 2))))  # singular
def test_linear_chain_form_matches_sympy(chain):
    sympy = pytest.importorskip("sympy")
    form = intersection_matrix(chain)
    m = sympy.Matrix(chain.matrix())
    det = int(m.to_DM().det())
    assert form.matrix == chain.matrix()
    assert form.det == det
    if det == 0:
        # the continuant adjugate stays an adjugate: matrix * adj == 0
        assert not any(any(row) for row in matmul(form.matrix, form.adj))
        with pytest.raises(SingularMatrixError):
            form.inverse()
    else:
        assert form.inverse() == _sympy_fraction_rows(m.inv())


def test_tree_forms_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(4, 12)
        edges = tuple((rng.randrange(v), v) for v in range(1, n))
        chain = PlumbingChain(tuple(rng.randint(-6, 1) for _ in range(n)), edges)
        if chain.is_linear():
            continue
        form = intersection_matrix(chain)
        m = sympy.Matrix(chain.matrix())
        assert form.det == int(m.to_DM().det())
        if form.det == 0:
            with pytest.raises(SingularMatrixError):
                form.inverse()
        else:
            assert form.inverse() == _sympy_fraction_rows(m.inv())


def test_relative_square_on_general_chains_matches_cramer():
    rng = random.Random(29)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        weights = [rng.choice((-2, -2, rng.randint(-12, -1))) for _ in range(n)]
        if rng.random() < 0.5:
            chain = _relabelled_chain(weights, rng.sample(range(n), n), rng)
        else:
            edges = tuple((rng.randrange(v), v) for v in range(1, n))
            chain = PlumbingChain(tuple(weights), edges)
        v = [rng.choice((0, rng.randint(-9, 9))) for _ in range(n)]
        emb = ConfigurationEmbedding(
            ambient=None, chain=chain, profile_gram=chain.matrix(),
            profile_pairings={f"g{i}": tuple(1 if j == i else 0 for j in range(n))
                              for i in range(n)},
        )
        candidate = {f"g{i}": v[i] for i in range(n)}
        if intersection_matrix(chain).det == 0:
            with pytest.raises(SingularMatrixError):
                relative_square_of_restriction(emb, candidate)
            continue
        xs = gauss_jordan_solve(chain.matrix(), v)
        expected = sum(Fraction(vi) * xi for vi, xi in zip(v, xs))
        assert relative_square_of_restriction(emb, candidate) == expected
        checked += 1
    assert checked > 200


def test_boundary_lens_spaces():
    lens7 = boundary_lens_space(cp_chain(7))
    assert (lens7.order, lens7.twist) == (49, 6)
    assert lens7.residue_orbit() == (6, 8, 41, 43)
    assert (49 - 6) in lens7.residue_orbit()  # the -6 convention is matchable
    lens2 = boundary_lens_space(cp_chain(2))
    assert (lens2.order, lens2.twist) == (4, 1)
    lens3 = boundary_lens_space(cp_chain(3))
    assert (lens3.order, lens3.twist) == (9, 2)
    for p in range(2, 21):
        lens = boundary_lens_space(cp_chain(p))
        cf = continued_fraction([-w for w in cp_chain(p).weights])
        assert (lens.order, lens.twist) == (cf.numerator, cf.denominator)
        assert (lens.order, lens.twist) == (p * p, p - 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-12, -2), min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_boundary_lens_space_matches_continued_fraction(weights, rng):
    labels = rng.sample(range(len(weights)), len(weights))
    chain = _relabelled_chain(weights, labels, rng)
    # the boundary is read from the endpoint with the smaller label
    terms = [-w for w in (weights if labels[0] <= labels[-1] else weights[::-1])]
    cf = continued_fraction(terms)
    lens = boundary_lens_space(chain)
    assert (lens.order, lens.twist) == (cf.numerator, cf.denominator)


def test_boundary_errors():
    from swsurgery.plumbing import PlumbingChain

    with pytest.raises(ValueError, match="linear"):
        boundary_lens_space(e6_tilde_tree())
    bad = PlumbingChain((-1, -2), ((0, 1),))
    with pytest.raises(ValueError, match="<= -2"):
        boundary_lens_space(bad)


def test_lens_space_validation():
    with pytest.raises(ValueError, match="gcd"):
        LensSpace(49, 7)


def test_e6_tree_shape():
    tree = e6_tilde_tree()
    assert not tree.is_linear()
    assert tree.weights == (-2,) * 7
    degrees = sorted(len(a) for a in tree.adjacency())
    assert degrees == [1, 1, 1, 2, 2, 2, 3]


def test_verify_embeddings(z3):
    assert verify_embedding(FAMILIES["xn"].embedding(z3)).ok
    assert verify_embedding(e6_embedding(z3)).ok


def test_verify_embedding_mismatch(z3):
    u = list(FAMILIES["xn"].embedding(z3).vertex_classes)
    u[1] = u[1] + z3.marked_class("E0")  # corrupt one vertex
    emb = ConfigurationEmbedding(ambient=z3, chain=cp_chain(7), vertex_classes=tuple(u))
    report = verify_embedding(emb)
    assert not report.ok
    assert report.failures()


def test_relative_squares(z3, w3):
    z_emb = FAMILIES["xn"].embedding(z3)
    lift = class_from_coeffs(z3, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
    assert relative_square_of_restriction(z_emb, lift) == -6
    assert z_emb.pairing_vector(lift) == (7, 0, 0, 0, 0, 0)
    w_emb = FAMILIES["qn"].embedding(w3)
    w_lift = class_from_coeffs(w3, {"T": 3, "E0": 1, "E1": 1})
    assert relative_square_of_restriction(w_emb, w_lift) == -6
    orthogonal = FAMILIES["xn"].chamber(z3).period
    assert relative_square_of_restriction(z_emb, orthogonal) == 0


def test_relative_square_matches_solve_oracle():
    rng = random.Random(41)
    chains = {p: cp_chain(p) for p in range(2, 10)}
    for _ in range(400):
        p = rng.randint(2, 9)
        chain = chains[p]
        v = [rng.randint(-9, 9) for _ in range(p - 1)]
        profile = ConfigurationEmbedding(
            ambient=None, chain=chain,
            profile_gram=chain.matrix(),
            profile_pairings={f"g{i}": tuple(1 if j == i else 0 for j in range(p - 1))
                              for i in range(p - 1)},
        )
        candidate = {f"g{i}": v[i] for i in range(p - 1)}
        got = relative_square_of_restriction(profile, candidate)
        xs = gauss_jordan_solve(chain.matrix(), v)
        expected = sum(Fraction(vi) * xi for vi, xi in zip(v, xs))
        assert got == expected


def test_lift_searches(z3, w3):
    z_emb = FAMILIES["xn"].embedding(z3)
    lift = class_from_coeffs(z3, {"T": 1, "E0": 1, "E1": 1, "E2": 1})
    candidates = default_lift_candidates(z3)
    assert len(candidates) == 16
    found = find_characteristic_lifts(z_emb, candidates, 7)
    assert sorted(k.coords for k in found) == sorted([lift.coords, (-lift).coords])
    w_emb = FAMILIES["qn"].embedding(w3)
    w_found = find_characteristic_lifts(w_emb, default_lift_candidates(w3), 7)
    w_lift = class_from_coeffs(w3, {"T": 3, "E0": 1, "E1": 1})
    assert sorted(k.coords for k in w_found) == sorted([w_lift.coords, (-w_lift).coords])
    assert find_characteristic_lifts(z_emb, [], 7) == []


def test_lift_closed_under_negation(w3):
    emb = wn_c7_profile_embedding(w3)
    candidates = [{"T": st, "E0": s0, "E1": s1}
                  for st in (3, -3, 1, -1) for s0 in (1, -1) for s1 in (1, -1)]
    found = find_characteristic_lifts(emb, candidates, 7)
    as_sets = {tuple(sorted(d.items())) for d in found}
    negated = {tuple(sorted((k, -v) for k, v in d.items())) for d in found}
    assert as_sets == negated


def test_lift_requires_characteristic(z3):
    emb = FAMILIES["xn"].embedding(z3)
    with pytest.raises(ValueError, match="characteristic"):
        find_characteristic_lifts(emb, [z3.marked_class("T")], 7)


def test_rational_blowdown_requires_classes(w3):
    emb = wn_c7_profile_embedding(w3)
    with pytest.raises(ValueError, match="profile-only"):
        emb.pairing_vector(w3.marked_class("T"))
    with pytest.raises(ValueError, match="explicit vertex classes"):
        rational_blowdown(w3, emb, 7, FAMILIES["qn"].chamber(w3), simply_connected=True)


def test_rational_blowdown_checks_chamber(z3):
    emb = FAMILIES["xn"].embedding(z3)
    bad_chamber = Chamber(z3, z3.marked_class("h"))  # h meets the chain
    with pytest.raises(ValueError, match="orthogonal"):
        rational_blowdown(z3, emb, 7, bad_chamber, simply_connected=True)


def test_rational_blowdown_checks_embedding(z3):
    u = list(FAMILIES["xn"].embedding(z3).vertex_classes)
    u[2] = u[2] + z3.marked_class("E1")
    emb = ConfigurationEmbedding(ambient=z3, chain=cp_chain(7), vertex_classes=tuple(u))
    with pytest.raises(EmbeddingError):
        rational_blowdown(z3, emb, 7, FAMILIES["xn"].chamber(z3), simply_connected=True)


def test_rational_blowdown_output(z3):
    from swsurgery.exactmat import bareiss_det
    from swsurgery.lattice import is_characteristic, signature_and_betti

    model = rational_blowdown(
        z3, FAMILIES["xn"].embedding(z3), 7, FAMILIES["xn"].chamber(z3),
        simply_connected=True, name="X3",
    )
    assert model.lattice.rank == 7
    assert signature_and_betti(model.lattice) == (1, 6)
    assert abs(bareiss_det(model.lattice.gram)) == 1
    assert (model.euler, model.sign) == (9, -5)
    assert model.sw.magnitudes() == (3, 3)
    k = model.sw.classes()[0]
    assert square(k) == 3
    assert is_characteristic(k)
    h = model.marked_class("h")
    assert square(h) == 5  # the period class descends with its square


def test_failed_blowdown_geometry_raises_on_every_call(z3):
    # 2 E0 realizes the order-2 chain (one -4 sphere) but is not primitive:
    # its complement is the unimodular complement of E0, not of discriminant 4
    emb = ConfigurationEmbedding(ambient=z3, chain=cp_chain(2),
                                 vertex_classes=(2 * z3.marked_class("E0"),))
    chamber = Chamber(z3, z3.marked_class("h"))
    for _ in range(2):
        with pytest.raises(EmbeddingError, match="not primitively embedded"):
            rational_blowdown(z3, emb, 2, chamber, simply_connected=True)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("xn", "qn")), st.lists(st.integers(-30, 30), min_size=13, max_size=13))
def test_pairing_vector_matches_pair(z3, w3, key, coords):
    ambient = z3 if key == "xn" else w3
    emb = FAMILIES[key].embedding(ambient)
    k = ambient.lattice.element(coords[:ambient.lattice.rank])
    assert emb.pairing_vector(k) == tuple(pair(k, u) for u in emb.vertex_classes)
    assert emb.realized_gram() == tuple(
        tuple(pair(u, v) for v in emb.vertex_classes) for u in emb.vertex_classes)


def test_pairing_vector_rejects_other_lattices(z3, w3):
    with pytest.raises(LatticeMismatchError):
        FAMILIES["xn"].embedding(z3).pairing_vector(w3.marked_class("T"))
