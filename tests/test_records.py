"""The plain result records are ``typing.NamedTuple``s: they print as the
frozen dataclasses they replaced, refuse assignment, and never reach a
report or a JSON payload, where a tuple would serialize as a list."""

import dataclasses
import json

import pytest

from swsurgery import report
from swsurgery.cli import main
from swsurgery.knots import TwistKnot
from swsurgery.lattice import Sublattice, orthogonal_complement
from swsurgery.manifold import MinimalityVerdict, blowup, minimality_check
from swsurgery.models import e1, y_n
from swsurgery.monodromy import (
    FactorDiagnostic,
    FactorizationReport,
    MCGWord,
    parse_word,
    verify_factorization,
)
from swsurgery.pipelines import FAMILIES, FamilySpec
from swsurgery.plumbing import EmbeddingReport, PlumbingForm, cp_chain, intersection_matrix, verify_embedding

from .trusted import memos

RECORDS = (TwistKnot, Sublattice, MinimalityVerdict, MCGWord, FactorDiagnostic,
           FactorizationReport, FamilySpec, PlumbingForm, EmbeddingReport)


def _samples():
    """Instances of every record, as the package builds them."""
    e = e1()
    fact = verify_factorization("a^2b", "ab")
    return [TwistKnot(3), orthogonal_complement(e.lattice, [e.marked_class("T")]),
            minimality_check(e), minimality_check(blowup(y_n(2))), parse_word(""), fact,
            *fact.factors, intersection_matrix(cp_chain(3)),
            verify_embedding(FAMILIES["xn"].embedding(FAMILIES["xn"].ambient(2))),
            *FAMILIES.values()]


def test_records_print_as_frozen_dataclasses():
    samples = _samples()
    assert {type(r) for r in samples} == set(RECORDS)
    for record in samples:
        twin = dataclasses.make_dataclass(type(record).__name__, record._fields, frozen=True)
        assert repr(record) == repr(twin(*record))
    assert (repr(TwistKnot(3)), str(TwistKnot(3))) == ("TwistKnot(n=3)", "T(3)")
    assert repr(verify_factorization("a^2b", "ab")) == (
        "FactorizationReport(word=MCGWord(factors=(Factor(text='a^2', power=2, "
        "base=IntegerMatrix2(a=1, b=1, c=0, d=1)), Factor(text='b', power=1, "
        "base=IntegerMatrix2(a=1, b=0, c=-1, d=1)))), expected=MCGWord(factors=(Factor(text='a', "
        "power=1, base=IntegerMatrix2(a=1, b=1, c=0, d=1)), Factor(text='b', power=1, "
        "base=IntegerMatrix2(a=1, b=0, c=-1, d=1)))), lhs=IntegerMatrix2(a=-1, b=2, c=-1, d=1), "
        "rhs=IntegerMatrix2(a=0, b=1, c=-1, d=1), equal=False, factors=(FactorDiagnostic(text='a^2', "
        "power=2, base_trace=2, factor_trace=2, parabolic=True, width=2), FactorDiagnostic(text='b', "
        "power=1, base_trace=2, factor_trace=2, parabolic=True, width=1)))")
    assert repr(intersection_matrix(cp_chain(3))) == (
        "PlumbingForm(matrix=((-5, 1), (1, -2)), det=9, adj=((-2, -1), (-1, -5)))")
    assert repr(minimality_check(blowup(y_n(2)))) == (
        "MinimalityVerdict(status='blowup_pair_found', witness=((-3, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1), "
        "(-3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)), e_square=-1)")


def test_records_refuse_assignment():
    for record in _samples():
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.not_a_field = None


def _refuse_records(value):
    assert not isinstance(value, RECORDS), f"a {type(value).__name__} reached serialization"
    if isinstance(value, dict):
        for item in value.items():
            _refuse_records(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _refuse_records(item)


def test_no_record_reaches_a_report_or_json(capsys, monkeypatch, tmp_path):
    calls = dict.fromkeys(("canonical", "dumps", "dump"), 0)

    def guarded(name, fn):
        def checked(value, *args, **kwargs):
            calls[name] += 1
            _refuse_records(value)
            return fn(value, *args, **kwargs)
        return checked

    monkeypatch.setattr(report, "canonical", guarded("canonical", report.canonical))
    for name in ("dumps", "dump"):
        monkeypatch.setattr(json, name, guarded(name, getattr(json, name)))
    for memo in memos().values():  # cold, so that every plan value is built and serialized here
        memo.cache_clear()
    commands = [("verify-paper", "--json"), ("verify-paper",),
                ("monodromy", "check", "a^6(A^3ba^3)(baB)^2b^2(Bab)", "--equals=(a^3b)^3", "--json"),
                ("plumbing", "cp", "--p", "7", "--invert", "--boundary", "--json"),
                ("sw", "e1-surgery", "--knots=1,3", "--json"),
                ("lattice", "pair", "--model", "zn:2", "--class", "T+E0+E1+E2", "--class", "T", "--json")]
    commands += [("family", key, "--n", "2", "--json", "--model-out", str(tmp_path / f"{key}.json"))
                 for key in FAMILIES]
    for argv in commands:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    assert all(calls.values()), calls
