import json
from collections import Counter

import pytest

from swsurgery.manifold import dimension, fingerprint
from swsurgery.pipelines import FAMILIES, build_family, verify_paper

from .trusted import SHIPPED, counting, memos


@pytest.mark.parametrize("key,b_minus", [("xn", 6), ("qn", 5), ("b7", 7), ("b8", 8)])
def test_families_pass(key, b_minus):
    for n in (1, 2):
        model, rep = build_family(key, n)
        assert rep.all_pass, [c.id for c in rep.checks if not c.passed]
        assert tuple(fingerprint(model)) == (1, b_minus, "odd", True)
        assert model.sw.magnitudes() == (n, n)
        for k in model.sw.classes():
            assert dimension(model, k) == 0


def test_family_rejects_bad_parameter():
    for key in FAMILIES:
        with pytest.raises(ValueError):
            build_family(key, 0)


def test_build_family_dispatch():
    model, rep = build_family("xn", 2)
    assert model.name == "X2"
    assert rep.all_pass
    assert list(FAMILIES) == ["xn", "b7", "b8", "qn"]
    with pytest.raises(KeyError):
        build_family("nope", 2)
    with pytest.raises(ValueError, match="positive"):
        build_family("qn", 0)


def test_family_builds_its_base_model_once(monkeypatch):
    calls = counting(monkeypatch, ("models.y_n", "models.v_n"))
    for key in FAMILIES:
        build_family(key, 2)
    assert calls == Counter({"models.y_n": 3, "models.v_n": 1})


def test_blowdown_bookkeeping_deltas():
    for key, p, ambient_es in (
        ("xn", 7, (15, -11)),
        ("qn", 7, (14, -10)),
        ("b7", 5, (14, -10)),
        ("b8", 3, (13, -9)),
    ):
        model, _ = build_family(key, 2)
        assert model.euler == ambient_es[0] - (p - 1)
        assert model.sign == ambient_es[1] + (p - 1)


def test_magnitude_separation():
    xs = {n: build_family("xn", n)[0].sw.magnitudes() for n in range(1, 7)}
    assert len(set(xs.values())) == 6
    qs = {n: build_family("qn", n)[0].sw.magnitudes() for n in range(1, 5)}
    assert len(set(qs.values())) == 4


def test_verify_paper_green_and_deterministic():
    rep1 = verify_paper()
    assert rep1.all_pass, [c.id for c in rep1.checks if not c.passed]
    rep2 = verify_paper()
    assert rep1.to_json() == rep2.to_json()
    assert rep1.to_json().encode() == rep2.to_json().encode()


def test_verify_paper_only_filter():
    rep = verify_paper(only="monodromy")
    assert rep.all_pass
    assert all(c.id.startswith("monodromy.") for c in rep.checks)
    with pytest.raises(ValueError, match="unknown module"):
        verify_paper(only="gauge_theory")


def test_report_shape():
    rep = verify_paper(only="knots")
    data = rep.to_dict()
    assert set(data) == {"version", "checks", "summary"}
    assert data["summary"] == {"passed": len(data["checks"]), "failed": 0}
    for check in data["checks"]:
        assert {"id", "description", "expected", "computed", "pass",
                "paper_ref", "provenance_tag"} <= set(check)
        assert check["provenance_tag"] in ("reported", "derived", "definition")


def test_family_reports_are_deterministic():
    _, rep1 = build_family("xn", 2)
    _, rep2 = build_family("xn", 2)
    assert rep1.to_json() == rep2.to_json()


def test_b8_report_flags_reading():
    _, rep = build_family("b8", 1)
    ids = {c.id for c in rep.checks}
    assert "b8.reading" in ids


def test_b7_b8_derivations_labeled_derived():
    for tag in ("b7", "b8"):
        _, rep = build_family(tag, 2)
        by_id = {c.id: c for c in rep.checks}
        assert by_id[f"{tag}.sw"].provenance == "derived"
        assert by_id[f"{tag}.u0.square"].provenance == "derived"


def test_warm_builds_take_transfer_and_search_squares_from_memos(monkeypatch):
    for memo in memos().values():
        memo.cache_clear()
    for key in FAMILIES:
        build_family(key, 1)
    names = ("plumbing.relative_square", "models.class_from_coeffs", "plumbing._transfer")
    calls = counting(monkeypatch, names)
    warm = {(key, n): build_family(key, n)[1] for key in FAMILIES for n in range(2, 6)}
    # the SW transfer (from the ambient support's blowdown slot), the lift
    # searches, the *.lift.relsquare checks and the vertex, chamber and lift
    # classes all come from the memos
    assert calls == Counter()
    for memo in memos().values():
        memo.cache_clear()
    build_family("qn", 2)
    assert set(names) <= set(calls)  # a cold build is counted
    monkeypatch.undo()
    for (key, n), rep in warm.items():
        for memo in memos().values():
            memo.cache_clear()
        assert build_family(key, n)[1].to_json() == rep.to_json()


def test_one_family_plan_per_family():
    from swsurgery.pipelines import _family_plan

    for memo in memos().values():
        memo.cache_clear()
    for key in FAMILIES:
        for n in range(1, 21):
            build_family(key, n)
    info = _family_plan.cache_info()
    assert (info.misses, info.hits) == (4, 76)


def test_verify_paper_searches_lifts_once_per_family(monkeypatch):
    for memo in memos().values():
        memo.cache_clear()
    calls = counting(monkeypatch, ("plumbing.find_characteristic_lifts", "plumbing._transfer"))
    assert verify_paper().all_pass
    # the plumbing section reads the xn and qn plans that the pipelines
    # section builds on; each family plan takes its ambient's transfer, and
    # the family's blowdowns read it from the support's slot
    assert calls == Counter({"plumbing.find_characteristic_lifts": 4, "plumbing._transfer": 4})
    assert len(FAMILIES) == 4


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_warm_build_pair_count(monkeypatch, key):
    # once the memos are warm, a build at an n no build has seen does no
    # class work: the knot surgery, blowups and chamber read their supports
    # and facts from the memos, and the blowdown from the ambient support's
    # slot, so it makes no support or transfer, pairs, squares, images or
    # tests no class (every module that holds lattice.pair, is_characteristic
    # or gram_image is counted, and square calls the one in lattice, so
    # squares count as pairs), runs no partner test, adds every check with
    # values already canonical, and no memo misses
    for cls, method in SHIPPED.items():  # count the shipped, unchecked constructions
        monkeypatch.setattr(cls, "_trusted", method)
    build_family(key, 2)
    calls = counting(monkeypatch, (
        "lattice.pair", "lattice.is_characteristic", "lattice.gram_image", "report.canonical",
        "manifold._blowup_partners", "manifold._Support.__init__", "plumbing._transfer"))
    misses = {name: memo.cache_info().misses for name, memo in memos().items()}
    _, rep = build_family(key, 10 ** 6)
    assert rep.all_pass
    assert calls == Counter()
    assert {name: memo.cache_info().misses for name, memo in memos().items()} == misses


def _mutate(value, seen) -> int:
    """Append to every list and add a key to every dict reachable from
    ``value`` through sequences, dicts and object attributes; the count of
    objects walked."""
    if id(value) in seen or isinstance(value, (str, int, type(None))):
        return 0
    seen.add(id(value))
    if isinstance(value, (list, tuple)):
        items = list(value)
    elif isinstance(value, dict):
        items = list(value.values())
    else:
        items = list(getattr(value, "__dict__", {}).values())
    if isinstance(value, list):
        value.append("mutated")
    elif isinstance(value, dict):
        value["mutated"] = "mutated"
    return 1 + sum(_mutate(item, seen) for item in items)


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_mutating_a_build_leaves_the_next_build_unchanged(key):
    # a warm build shares its plan's values between reports and models
    # (values that are canonical once), so none of them may be mutable
    model, rep = build_family(key, 4)
    expected = rep.to_json(), json.dumps(model.to_dict(), sort_keys=True)
    assert _mutate([rep.checks, model], set()) > 2 * len(rep.checks)  # every check walked
    model, rep = build_family(key, 4)
    assert (rep.to_json(), json.dumps(model.to_dict(), sort_keys=True)) == expected
