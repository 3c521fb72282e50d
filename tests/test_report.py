from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from swsurgery.report import Check, VerificationReport, canonical

from .oracles import recursive_canonical

SCALARS = st.one_of(st.booleans(), st.integers(), st.text(max_size=4), st.none(),
                    st.fractions(max_denominator=20))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.integers(-5, 5), st.text(max_size=2), st.booleans()),
                    inner, max_size=4),
), max_leaves=12)


def typed(value):
    """``value`` with the type of every leaf beside it, so True never equals 1."""
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [typed(v) for v in value]]
    if isinstance(value, dict):
        return ["dict", {k: typed(v) for k, v in value.items()}]
    return [type(value).__name__, value]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(VALUES)
def test_canonical_matches_recursive_oracle(value):
    expected = typed(recursive_canonical(value))
    assert typed(canonical(value)) == expected
    check = Check("id", "description", value, value)
    assert typed(check.expected) == typed(check.computed) == expected


def test_booleans_stay_booleans():
    for value in (True, [True, 1], (False, [True]), {"a": True, 1: [False, 0]}):
        assert typed(canonical(value)) == typed(recursive_canonical(value))
    assert canonical(True) is True
    assert Check("id", "description", True, 1).expected is True
    assert Check("id", "description", 1, True).computed is True
    assert canonical([True, Fraction(1, 2), None]) == (True, "1/2", None)
    assert type(canonical([True])[0]) is bool


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(VALUES, VALUES)
def test_failed_check_text_shows_sequences_as_lists(expected, computed):
    def listed(value):  # the JSON-ready form with lists, as the JSON shows it
        if isinstance(value, tuple):
            return [listed(v) for v in value]
        if isinstance(value, dict):
            return {k: listed(v) for k, v in value.items()}
        return value

    report = VerificationReport([Check("id", "description", expected, computed)])
    if not report.checks[0].passed:
        want = (f"(expected {listed(recursive_canonical(expected))!r}, "
                f"computed {listed(recursive_canonical(computed))!r})")
        assert report.to_text().split("\n")[0].endswith(want)
