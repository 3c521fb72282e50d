from swsurgery.lattice import pair, square
from swsurgery.models import (
    I6_HEXAGON_COEFFS,
    WN_C7_PROFILE,
    class_from_coeffs,
    e6_sphere_classes,
)
from swsurgery.pipelines import FAMILIES
from swsurgery.plumbing import PlumbingChain, verify_embedding


def test_e1_marked(e1_model):
    t = e1_model.marked_class("T")
    h = e1_model.marked_class("h")
    assert square(t) == 0
    assert square(h) == 1
    assert pair(h, t) == 3
    assert (e1_model.euler, e1_model.sign) == (12, -8)
    assert len(e1_model.sw) == 0


def test_e6_spheres_orthogonal_to_fiber(y3):
    fiber = y3.marked_class("T")
    for name, cls in e6_sphere_classes(y3).items():
        assert pair(fiber, cls) == 0, name


def test_i6_hexagon_structure(v3):
    c = [class_from_coeffs(v3, coeffs) for coeffs in I6_HEXAGON_COEFFS.values()]
    hexagon = PlumbingChain((-2,) * 6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
    expected = hexagon.matrix()
    for i in range(6):
        for j in range(6):
            assert pair(c[i], c[j]) == expected[i][j], (i, j)
    total = c[0]
    for cls in c[1:]:
        total = total + cls
    assert total == v3.marked_class("T")  # components sum to the fiber
    section = v3.lattice.basis_class("eps9")
    assert [pair(section, ci) for ci in c] == [1, 0, 0, 0, 0, 0]


def test_wn_profile_matches_realization(w3):
    emb = FAMILIES["qn"].embedding(w3)
    assert emb.realized_gram() == WN_C7_PROFILE["gram"]
    assert [name for name, _ in WN_C7_PROFILE["pairings"]] == ["T", "E0", "E1"]
    for name, row in WN_C7_PROFILE["pairings"]:
        assert emb.profile_row(name) == row
    assert verify_embedding(emb).ok


def test_wn_chamber(w3):
    chamber = FAMILIES["qn"].chamber(w3)
    H = chamber.period
    assert square(H) == 9
    assert pair(H, w3.marked_class("h")) == 11
    for u in FAMILIES["qn"].embedding(w3).vertex_classes:
        assert pair(H, u) == 0
    lift = class_from_coeffs(w3, {"T": 3, "E0": 1, "E1": 1})
    assert pair(H, lift) > 0 and pair(w3.marked_class("h"), lift) > 0


def test_b7_configuration():
    ambient = FAMILIES["b7"].ambient(2)
    u = FAMILIES["b7"].embedding(ambient).vertex_classes
    assert [square(x) for x in u] == [-7, -2, -2, -2]
    assert [pair(u[i], u[i + 1]) for i in range(3)] == [1, 1, 1]
    H = FAMILIES["b7"].chamber(ambient).period
    assert square(H) == 2
    assert pair(H, ambient.marked_class("h")) == 5
    assert all(pair(H, x) == 0 for x in u)
    lift = class_from_coeffs(ambient, {"T": 1, "E0": 1, "E1": 1})
    assert pair(H, lift) > 0 and pair(ambient.marked_class("h"), lift) > 0


def test_b8_configuration():
    ambient = FAMILIES["b8"].ambient(2)
    u = FAMILIES["b8"].embedding(ambient).vertex_classes
    assert [square(x) for x in u] == [-5, -2]
    assert pair(u[0], u[1]) == 1
    H = FAMILIES["b8"].chamber(ambient).period
    assert square(H) == 7
    assert pair(H, ambient.marked_class("h")) == 4
    assert all(pair(H, x) == 0 for x in u)
    lift = class_from_coeffs(ambient, {"T": 1, "E0": 1})
    assert pair(H, lift) > 0 and pair(ambient.marked_class("h"), lift) > 0
