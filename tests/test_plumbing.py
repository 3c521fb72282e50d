import copy
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swsurgery.exactmat import SingularMatrixError, bareiss_adjugate, hnf_row_basis, matmul
from swsurgery.lattice import LatticeMismatchError, pair, square
from swsurgery.manifold import Chamber
from swsurgery.models import WN_C7_PROFILE, class_from_coeffs, e6_embedding
from swsurgery.pipelines import FAMILIES
from swsurgery.plumbing import (
    ConfigurationEmbedding,
    EmbeddingError,
    LensSpace,
    PlumbingChain,
    _overlattice_basis,
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

from .oracles import (
    chain_determinant_recurrence,
    congruent_gram,
    continued_fraction,
    fraction_det,
    gauss_jordan_solve,
)


def _wn_profile(w3):
    """The shipped W_n profile as a profile-only embedding."""
    return ConfigurationEmbedding(ambient=w3, chain=cp_chain(7),
                                  profile_gram=WN_C7_PROFILE["gram"],
                                  profile_pairings=dict(WN_C7_PROFILE["pairings"]))


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
    found = find_characteristic_lifts(z_emb, candidates)
    assert sorted(k.coords for k in found) == sorted([lift.coords, (-lift).coords])
    w_emb = FAMILIES["qn"].embedding(w3)
    w_found = find_characteristic_lifts(w_emb, default_lift_candidates(w3))
    w_lift = class_from_coeffs(w3, {"T": 3, "E0": 1, "E1": 1})
    assert sorted(k.coords for k in w_found) == sorted([w_lift.coords, (-w_lift).coords])
    assert find_characteristic_lifts(z_emb, []) == []


def test_lift_closed_under_negation(w3):
    emb = FAMILIES["qn"].embedding(w3)
    candidates = default_lift_candidates(w3)
    assert {c.coords for c in candidates} == {(-c).coords for c in candidates}
    found = find_characteristic_lifts(emb, candidates)
    assert found and {k.coords for k in found} == {(-k).coords for k in found}


def test_lift_requires_characteristic(z3):
    emb = FAMILIES["xn"].embedding(z3)
    with pytest.raises(ValueError, match="characteristic"):
        find_characteristic_lifts(emb, [z3.marked_class("T")])


def test_rational_blowdown_requires_classes(w3):
    emb = _wn_profile(w3)
    with pytest.raises(ValueError, match="profile-only"):
        emb.pairing_vector(w3.marked_class("T"))
    with pytest.raises(ValueError, match="explicit vertex classes"):
        rational_blowdown(w3, emb, FAMILIES["qn"].chamber(w3), simply_connected=True)


@pytest.mark.parametrize("step", [
    lambda emb, w: verify_embedding(emb),
    lambda emb, w: find_characteristic_lifts(emb, default_lift_candidates(w)),
    lambda emb, w: rational_blowdown(w, emb, FAMILIES["qn"].chamber(w), simply_connected=True),
], ids=["verify_embedding", "find_characteristic_lifts", "rational_blowdown"])
def test_profile_steps_need_explicit_vertex_classes(w3, step):
    with pytest.raises(ValueError, match="needs explicit vertex classes"):
        step(_wn_profile(w3), w3)


def test_rational_blowdown_checks_chamber(z3):
    emb = FAMILIES["xn"].embedding(z3)
    bad_chamber = Chamber(z3, z3.marked_class("h"))  # h meets the chain
    with pytest.raises(ValueError, match="orthogonal"):
        rational_blowdown(z3, emb, bad_chamber, simply_connected=True)


def test_rational_blowdown_checks_embedding(z3):
    u = list(FAMILIES["xn"].embedding(z3).vertex_classes)
    u[2] = u[2] + z3.marked_class("E1")
    emb = ConfigurationEmbedding(ambient=z3, chain=cp_chain(7), vertex_classes=tuple(u))
    with pytest.raises(EmbeddingError):
        rational_blowdown(z3, emb, FAMILIES["xn"].chamber(z3), simply_connected=True)


def test_rational_blowdown_output(z3):
    from swsurgery.lattice import is_characteristic, signature_and_betti

    model = rational_blowdown(
        z3, FAMILIES["xn"].embedding(z3), FAMILIES["xn"].chamber(z3),
        simply_connected=True, name="X3",
    )
    assert model.lattice.rank == 7
    assert signature_and_betti(model.lattice) == (1, 6)
    assert abs(fraction_det(model.lattice.gram)) == 1
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
            rational_blowdown(z3, emb, chamber, simply_connected=True)


def _mislabelled(z3):
    """The xn vertex classes, labelled as a path of six -2 spheres, not cp_chain(7)."""
    chain = PlumbingChain((-2,) * 6, tuple((i, i + 1) for i in range(5)))
    return ConfigurationEmbedding(ambient=z3, chain=chain,
                                  vertex_classes=FAMILIES["xn"].embedding(z3).vertex_classes)


def test_rational_blowdown_uses_the_verified_chain(z3):
    chamber = FAMILIES["xn"].chamber(z3)
    right = rational_blowdown(z3, FAMILIES["xn"].embedding(z3), chamber,
                              simply_connected=True, name="X3")
    wrong = rational_blowdown(z3, _mislabelled(z3), chamber, simply_connected=True, name="X3")
    assert wrong == right
    assert wrong.sw.magnitudes() == (3, 3)


def test_blowdown_checks_hold_against_a_warm_plan(z3):
    chamber = FAMILIES["xn"].chamber(z3)
    right = rational_blowdown(z3, FAMILIES["xn"].embedding(z3), chamber, simply_connected=True)
    wrong = _mislabelled(z3)
    assert not verify_embedding(wrong).ok
    find_characteristic_lifts(wrong, default_lift_candidates(z3))
    # 2 E0 realizes the order-2 chain but is not primitive (see above)
    doubled = ConfigurationEmbedding(ambient=z3, chain=cp_chain(2),
                                     vertex_classes=(2 * z3.marked_class("E0"),))
    assert verify_embedding(doubled).ok
    find_characteristic_lifts(doubled, default_lift_candidates(z3))
    for _ in range(2):
        assert rational_blowdown(z3, wrong, chamber, simply_connected=True) == right
        with pytest.raises(EmbeddingError, match="not primitively embedded"):
            rational_blowdown(z3, doubled, Chamber(z3, z3.marked_class("h")),
                              simply_connected=True)


def test_overlattice_basis_contains_the_complement_with_index_p():
    # M = C + p C* contains C = den * I, with index p when the discriminant
    # group is cyclic of order p^2, as for the complement of a primitive chain
    rng = random.Random(37)
    cases = [(((0, 3, -3, 1), (3, -3, 0, 1), (-3, 0, 2, -3), (1, 1, -3, 1)), 3)]
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        signs = [rng.choice((1, -1)) for _ in range(rng.randint(1, 6))]
        cases.append((congruent_gram(rng, [signs[0] * p * p] + signs[1:]), p))
    for gram, p in cases:
        det_c, adj_c = bareiss_adjugate(gram)
        assert abs(det_c) == p * p
        den, r = abs(det_c), len(gram)
        basis = _overlattice_basis(det_c, adj_c, p)
        scaled = [[den if i == j else 0 for j in range(r)] for i in range(r)]
        assert hnf_row_basis(list(basis) + scaled) == basis
        assert abs(fraction_det(basis)) == den ** r // p


def test_failed_lift_check_raises_on_every_call(z3):
    # T + E0 is not characteristic (it pairs evenly with E1); the search over
    # the default candidates, which are, fills the memo for the same embedding
    emb = FAMILIES["xn"].embedding(z3)
    find_characteristic_lifts(emb, default_lift_candidates(z3))
    bad = z3.marked_class("T") + z3.marked_class("E0")
    for _ in range(2):
        with pytest.raises(ValueError, match="not characteristic"):
            find_characteristic_lifts(emb, [bad])
        with pytest.raises(ValueError, match="not characteristic"):
            find_characteristic_lifts(emb, [*default_lift_candidates(z3), bad])


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, 10 ** 6), min_size=n - 1, max_size=n - 1),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))))
def test_is_linear_matches_the_degree_sequence(graph):
    # a random spanning tree (vertex i + 1 joins an earlier vertex) plus extra edges
    n, parents, extra = graph
    edges = [(i + 1, parent % (i + 1)) for i, parent in enumerate(parents)]
    edges += [(a, b) for a, b in extra if a != b]
    chain = PlumbingChain((-2,) * n, tuple(edges))
    degrees = sorted(len(x) for x in chain.adjacency())
    path = not edges if n == 1 else (
        degrees == [1, 1] + [2] * (n - 2) and len(edges) == n - 1)
    assert chain.is_linear() == chain.is_linear() == path


def _with(model, **fields):
    """A copy of ``model`` with some fields replaced, validated by nothing."""
    other = copy.copy(model)
    other.__dict__.update(fields)
    return other


def test_blowdown_checks_what_its_table_and_model_constructors_checked(z3, monkeypatch):
    # the blown-down table and model are built trusted; each invariant that
    # the caller's data or the chamber values can break still raises the
    # error that the public constructors raised
    from swsurgery import plumbing

    spec = FAMILIES["xn"]
    emb, period = spec.embedding(z3), spec.chamber(z3).period

    def blowdown(X, simply_connected=True):
        return rational_blowdown(X, emb, Chamber(X, period), simply_connected=simply_connected)

    with pytest.raises(ValueError, match=r"sign -4 != b\+ - b- = -5"):
        blowdown(_with(z3, sign=z3.sign + 1))
    with pytest.raises(ValueError, match=r"euler = 2 \+ rank, got 10"):
        blowdown(_with(z3, euler=z3.euler + 1))
    with monkeypatch.context() as patch:  # chamber values that break the negation symmetry
        patch.setattr(plumbing, "chamber_sw", lambda X, k, H: 1 + (k.coords > tuple(-x for x in k.coords)))
        with pytest.raises(ValueError, match="closed under negation"):
            blowdown(z3)
    transfer = plumbing._transfer
    # the transfer's record of each pushed-down class, broken in turn
    for broken, error, match in [
            (lambda pushed, k2: (None, False, None), EmbeddingError, "does not descend"),
            (lambda pushed, k2: (pushed, False, k2), ValueError, "not characteristic"),
            (lambda pushed, k2: (pushed, True, k2 - 2), ValueError, r"has d = -1/2; need d >= 0 and even")]:
        with monkeypatch.context() as patch:
            patch.setattr(plumbing, "_transfer", lambda plan, support, broken=broken: tuple(
                lift and broken(lift[0], lift[2]) for lift in transfer(plan, support)))
            with pytest.raises(error, match=match):
                blowdown(z3)
    assert blowdown(z3) == rational_blowdown(z3, emb, spec.chamber(z3), simply_connected=True)


def test_blowdown_refuses_a_class_that_pushes_down_to_a_non_characteristic_one(z3):
    # A characteristic class of relative square -6 on cp_chain(7) pushes down
    # to a characteristic class, so only a table built unchecked reaches the
    # plan's characteristic test: k is not characteristic in z3 (its eps8
    # coefficient is even), has relative square -6, descends, and d(k) = 0
    from swsurgery.manifold import FourManifoldModel, SWTable, _Support

    from .trusted import SHIPPED

    spec = FAMILIES["xn"]
    k = (3, -1, -1, -1, -1, -1, -1, -1, 2, -1, 0, 0, 0)
    coords = tuple(sorted([k, tuple(-x for x in k)]))
    table = SHIPPED[SWTable].__func__(SWTable, z3.lattice, _Support(coords), (1, -1))
    X = FourManifoldModel(z3.name, z3.lattice, z3.euler, z3.sign, True, dict(z3.marked), table)
    assert relative_square_of_restriction(spec.embedding(z3), X.sw.classes()[0]) == -6
    for _ in range(2):  # the plan keeps the transfer, and its verdict
        with pytest.raises(ValueError, match=r"SW class \(-9, 8, 1, -6, 3, 3, 3\) is not characteristic"):
            rational_blowdown(X, spec.embedding(z3), Chamber(X, spec.chamber(z3).period),
                              simply_connected=True)


def test_blowdowns_of_equal_public_tables_keep_memory_flat(z3):
    # a table from the public constructor has a support of its own, so each
    # of these blowdowns takes a transfer of its own; the bounded memos keep
    # memory flat.  The table is the pair of z3's classes that survive the
    # blowdown, so each call runs the whole transfer at an eighth of the cost
    from swsurgery.manifold import SWTable

    from .trusted import memos

    spec = FAMILIES["xn"]
    emb, period = spec.embedding(z3), spec.chamber(z3).period
    entries = (z3.sw.entries[0], z3.sw.entries[-1])

    def blowdown():
        X = _with(z3, sw=SWTable(z3.lattice, entries))
        return rational_blowdown(X, emb, Chamber(X, period), simply_connected=True)

    expected = blowdown()
    for _ in range(1999):
        blowdown()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(8000):
            blowdown()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 2 ** 19, f"{grown} bytes kept by calls 2000 to 10^4"
    assert blowdown() == expected
    for name, memo in memos().items():
        assert memo.cache_info().currsize <= memo.cache_parameters()["maxsize"], name


def _signature_by_descartes(gram):
    """(b+, b-) of a nondegenerate symmetric integer matrix: its characteristic
    polynomial has real roots only, so Descartes' rule of signs counts the
    positive ones exactly."""
    import sympy

    coeffs = [c for c in sympy.Matrix(gram).charpoly().all_coeffs() if c]
    positive = sum(1 for a, b in zip(coeffs, coeffs[1:]) if a * b < 0)
    return positive, len(gram) - positive


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_blown_down_lattice_matches_sympy(key):
    # The lattice M of each family's blowdown, checked a second way: the
    # complement C of the chain sits in M with index p (Smith invariants
    # 1, ..., 1, p of the inclusion), M is unimodular, odd and of signature
    # (1, b-), and the pushed-down SW classes and h are the projections of
    # their lifts to C (x) Q, so they pair as the lifts do less the chain part.
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    from swsurgery.lattice import orthogonal_complement
    from swsurgery.pipelines import build_family
    from swsurgery.plumbing import _plan

    spec = FAMILIES[key]
    p = spec.p
    for n in range(1, 6):
        ambient = spec.ambient(n)
        model, _ = build_family(key, n)
        emb, period, lift = spec.embedding(ambient), spec.chamber(ambient).period, spec.lift(ambient)
        G, G_M = Matrix(ambient.lattice.gram), Matrix(model.lattice.gram)
        U = Matrix([u.coords for u in emb.vertex_classes])
        W = Matrix([w.coords for w in orthogonal_complement(ambient.lattice, emb.vertex_classes).vectors])
        G_C = W * G * W.T
        # the inclusion C -> M, by the blowdown's push-down matrix
        _, columns, divisor, _ = _plan(emb, cp_chain(p)).geometry
        A = W * Matrix(columns).T / divisor
        assert all(x.is_integer for x in A)
        assert A * G_M * A.T == G_C
        assert invariant_factors(A, domain=ZZ) == (1,) * (A.rows - 1) + (p,)
        assert abs(G_M.det()) == 1
        assert _signature_by_descartes(model.lattice.gram) == (1, spec.b_minus)
        assert any(G_M[i, i] % 2 for i in range(G_M.rows))
        # an ambient class k projects to C (x) Q with C-coordinates k G W^T G_C^-1
        classes = Matrix([lift.coords, (-lift).coords, period.coords])
        pushed = classes * G * W.T * G_C.inv() * A
        assert {tuple(pushed.row(i)) for i in range(2)} == {c for c, _ in model.sw.entries}
        assert tuple(pushed.row(2)) == model.marked_class("h").coords
        V = classes * G * U.T  # pairings with the vertices; the period's are 0
        assert pushed * G_M * pushed.T == classes * G * classes.T - V * (U * G * U.T).inv() * V.T
        for i in range(2):  # the pushed-down SW classes are characteristic in M
            image = pushed.row(i) * G_M
            assert all((image[j] - G_M[j, j]) % 2 == 0 for j in range(G_M.rows))
