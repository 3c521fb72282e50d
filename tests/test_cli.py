import hashlib
import json
import subprocess
import sys

import pytest

from swsurgery.cli import (
    MAX_ADJUGATE_BITS,
    MAX_CHAIN_VERTICES,
    MAX_KNOTS,
    MAX_INPUT_DIGITS,
    MAX_WORD_LETTERS,
    main,
)
from swsurgery.manifold import FourManifoldModel

from .trusted import memos


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_paper_only_json(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "monodromy", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"version", "checks", "summary"}
    assert data["summary"]["failed"] == 0
    for check in data["checks"]:
        assert {"id", "description", "expected", "computed", "pass", "paper_ref"} <= set(check)


def test_family_text_and_model_out(capsys, tmp_path):
    out_path = tmp_path / "x2.json"
    code, out, _ = run_cli(capsys, "family", "xn", "--n", "2", "--model-out", str(out_path))
    assert code == 0
    assert "summary:" in out
    model = FourManifoldModel.from_dict(json.loads(out_path.read_text()))
    assert model.name == "X2"
    assert model.sw.magnitudes() == (2, 2)


@pytest.mark.parametrize("target", ["missing/x2.json", "."], ids=["missing directory", "directory"])
def test_family_model_out_unwritable_exits_2(capsys, tmp_path, target):
    path = tmp_path / target
    code, out, err = run_cli(capsys, "family", "xn", "--n", "2", "--model-out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write model file {str(path)!r}: ")
    assert "Traceback" not in err


def test_family_json(capsys):
    code, out, _ = run_cli(capsys, "family", "qn", "--n", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == 0
    assert data["model"]["name"] == "Q1"


def test_family_deterministic_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "family", "b7", "--n", "1", "--json")
    code2, out2, _ = run_cli(capsys, "family", "b7", "--n", "1", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


# sha256 of stdout, recorded before the family pipelines were folded into one table
GOLDEN_OUTPUTS = {
    ("verify-paper",): "b8c71ea4261d2a3bac8407174813cb8108f2a26d3ff461dd34942b40f24f233e",
    ("verify-paper", "--json"): "d22148cd6effc7daadd5d1c3cdef57c2f7cadf31dc296298f2ca5ffc77bf1364",
    ("family", "xn", "--n", "1", "--json"): "0a340d86171bc76e7e5b201e9cbc88b6502b4beec3eb24685b56514a0effec93",
    ("family", "xn", "--n", "4", "--json"): "f3cc14a7084df5e02fbe0993514f50295f49fbb2bc4e9b45efe1c8f504bddc40",
    ("family", "xn", "--n", "9", "--json"): "55c01d0a895db0bc57957137fc30505d4757c4af95d72b50c78e397e93d3cad1",
    ("family", "qn", "--n", "1", "--json"): "fee493e375bb76cde6b8a985b7a6744fb8f77f5f8490f6e9e07352404e63c9d7",
    ("family", "qn", "--n", "4", "--json"): "efb27faf342248e25586d569f26a4f78fed2c9675f83fe60e1b6035494913ed0",
    ("family", "qn", "--n", "9", "--json"): "9e9a9cb3e334493794503a0d2de5c8ce7d87ba599070459e506d319e1c977e12",
    ("family", "b7", "--n", "1", "--json"): "df6f84c463d800c5c40ee43bba5d3a96dbb4c800d36df7da1affde5d11a40d99",
    ("family", "b7", "--n", "4", "--json"): "c3dface933e08d82e07f5b8c6eb97152970074d50ec6942540c3db9249428421",
    ("family", "b7", "--n", "9", "--json"): "d7e43afdb30579703fedad3f8060c54d4f041385495c22adcbeb96e6a83fd670",
    ("family", "b8", "--n", "1", "--json"): "2b70ab07f73144334d4170399e3a47e94f08d606aef2ed9a5fbc96f7f09a72c3",
    ("family", "b8", "--n", "4", "--json"): "11e7dde04547b073ccd6466309a01868395132a2aa9a2c0b8fb614de8050c781",
    ("family", "b8", "--n", "9", "--json"): "f9b593deed3fff8a5f046f2c2a9559580fb0e5d7a86ceacb1d3ffac98d5a7dd8",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_OUTPUTS), ids=" ".join)
def test_golden_output_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OUTPUTS[argv]


def test_outputs_equal_with_cold_and_warm_memos(capsys):
    from swsurgery.pipelines import _family_plan
    from swsurgery.plumbing import _chain_plan

    commands = [("verify-paper", "--json")] + [
        ("family", key, "--n", str(n), "--json")
        for key in ("xn", "qn", "b7", "b8") for n in range(1, 6)
    ]
    for memo in memos().values():
        memo.cache_clear()
    cold = [run_cli(capsys, *argv) for argv in commands]
    before = [plan.cache_info() for plan in (_chain_plan, _family_plan)]
    warm = [run_cli(capsys, *argv) for argv in commands]
    after = [plan.cache_info() for plan in (_chain_plan, _family_plan)]
    # every warm build reads the plans the cold pass made, and makes none
    for old, new in zip(before, after):
        assert new.hits - old.hits >= len(commands)
        assert new.misses == old.misses
    assert cold == warm
    assert all(code == 0 for code, _, _ in cold)


def test_monodromy_check(capsys):
    code, out, _ = run_cli(capsys, "monodromy", "check", "(ab)^6")
    assert code == 0
    assert "equal   True" in out
    code, _, _ = run_cli(capsys, "monodromy", "check", "(ab)^3")
    assert code == 1
    code, out, _ = run_cli(
        capsys, "monodromy", "check", "a^6(A^3ba^3)(baB)^2b^2(Bab)", "--equals", "(a^3b)^3"
    )
    assert code == 0


def test_monodromy_check_deep_nesting(capsys):
    nested = "(" * 3000 + "a" + ")" * 3000
    code, out, _ = run_cli(capsys, "monodromy", "check", nested, "--equals", "a")
    assert code == 0
    assert "equal   True" in out


def test_monodromy_check_word_size_limit(capsys, monkeypatch):
    import swsurgery.monodromy as monodromy

    def spell(*args):
        raise AssertionError("letters spelled out")

    monkeypatch.setattr(monodromy, "_spell", spell)
    for argv in (("a^1000000000",), ("((ab)^1000)^501",), ("a", "--equals", "a^-1000001")):
        code, out, err = run_cli(capsys, "monodromy", "check", *argv)
        assert (code, out) == (2, "")
        assert "letters; the limit is 1000000" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "monodromy", "check", "(ab)^500000", "--json")
    assert code == 1
    assert json.loads(out)["word"] == "ab" * 500000


def test_monodromy_syntax_error(capsys):
    code, _, err = run_cli(capsys, "monodromy", "check", "(ab")
    assert code == 2
    assert "position" in err


def test_plumbing_cp(capsys):
    code, out, _ = run_cli(capsys, "plumbing", "cp", "--p", "7", "--boundary", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["determinant"] == 49
    assert data["boundary"]["order"] == 49
    assert data["boundary"]["residue_orbit"] == [6, 8, 41, 43]
    code, _, err = run_cli(capsys, "plumbing", "cp", "--p", "1")
    assert code == 2


def test_plumbing_explicit_weights(capsys):
    code, out, _ = run_cli(
        capsys, "plumbing", "cp", "--weights=-9,-2,-2,-2,-2,-2", "--boundary", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["determinant"] == 49
    assert data["boundary"]["order"] == 49
    code, _, _ = run_cli(capsys, "plumbing", "cp", "--weights=-9,oops")
    assert code == 2
    code, _, _ = run_cli(capsys, "plumbing", "cp", "--p", "7", "--weights=-4")
    assert code == 2  # mutually exclusive


def test_plumbing_large_chain_inverse_bytes(capsys):
    code, out, _ = run_cli(capsys, "plumbing", "cp", "--p", "120", "--invert", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "096800918d38e5274e4d18951e6ffb89e5a3eaa3902f301274934afadcf4bbf0"
    )


def test_plumbing_chain_size_limit(capsys):
    limit = MAX_CHAIN_VERTICES
    # at the limit: --p gives p - 1 vertices, --weights one per entry
    code, out, _ = run_cli(capsys, "plumbing", "cp", "--p", str(limit + 1),
                           "--invert", "--boundary", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["inverse"]) == limit and data["boundary"]["order"] == (limit + 1) ** 2
    weights = ",".join(["-2"] * limit)
    code, out, _ = run_cli(capsys, "plumbing", "cp", f"--weights={weights}", "--json")
    assert code == 0
    assert json.loads(out)["determinant"] == (-1) ** limit * (limit + 1)
    # one past it, and far past it: refused before any chain is built
    for argv in (("--p", str(limit + 2), "--invert"), (f"--weights={weights},-2",),
                 ("--p", str(10 ** 12))):
        code, out, err = run_cli(capsys, "plumbing", "cp", *argv)
        assert (code, out) == (2, "")
        assert f"the limit is {limit}" in err


def test_plumbing_cp_builds_the_adjugate_only_to_invert(capsys, monkeypatch):
    from swsurgery import plumbing

    def refuse(*args):
        raise AssertionError("the chain's adjugate was built")

    monkeypatch.setattr(plumbing, "_continuant_adjugate", refuse)
    plumbing.intersection_matrix.cache_clear()
    weights = "--weights=" + ",".join(["-20"] * MAX_CHAIN_VERTICES)
    # the digests of this output before the adjugate was dropped from it
    for argv, digest in (
        ((), "ad7212f04a50f090ca2b2109a85ea71bbe1b8832ec12266f6710eee2f41ac315"),
        (("--boundary", "--json"),
         "16c0d704ba55815450cf32a6356e7aaa5cd0e8a8388f635ab49602a6993c7b0b"),
    ):
        code, out, _ = run_cli(capsys, "plumbing", "cp", weights, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    with pytest.raises(AssertionError, match="adjugate was built"):
        run_cli(capsys, "plumbing", "cp", weights, "--invert")


def test_sw_knot_count_limit(capsys):
    knots = ",".join(["1000000"] * MAX_KNOTS)
    code, out, _ = run_cli(capsys, "sw", "e1-surgery", f"--knots={knots}", "--json")
    assert code == 0
    assert len(json.loads(out)["knots"]) == MAX_KNOTS
    code, out, err = run_cli(capsys, "sw", "e1-surgery", f"--knots={knots},1")
    assert (code, out) == (2, "")
    assert f"{MAX_KNOTS + 1} knots given; the limit is {MAX_KNOTS}" in err


def test_plumbing_inverse_size_budget(capsys, monkeypatch):
    from swsurgery import plumbing
    from swsurgery.plumbing import _continuants

    def refuse(*args):
        raise AssertionError("the adjugate was built")

    def size(weights):
        lead, tail = _continuants(weights)
        return len(weights) ** 2 * max(abs(x).bit_length() for x in lead + tail)

    # a heavy head on a -2 tail: the smallest head past the budget, and the one before it
    n = MAX_CHAIN_VERTICES
    head = 2 ** (MAX_ADJUGATE_BITS // n ** 2 - 12)
    while size((-head,) + (-2,) * (n - 1)) <= MAX_ADJUGATE_BITS:
        head *= 2
    assert size((-(head // 2),) + (-2,) * (n - 1)) <= MAX_ADJUGATE_BITS
    monkeypatch.setattr(plumbing, "intersection_matrix", refuse)
    past = "--weights=" + ",".join([str(-head)] + ["-2"] * (n - 1))
    code, out, err = run_cli(capsys, "plumbing", "cp", past, "--invert")
    assert (code, out) == (2, "")
    assert f"the limit for --invert is {MAX_ADJUGATE_BITS}" in err
    within = "--weights=" + ",".join([str(-(head // 2))] + ["-2"] * (n - 1))
    with pytest.raises(AssertionError, match="adjugate was built"):
        run_cli(capsys, "plumbing", "cp", within, "--invert")
    # without --invert no adjugate is built, so there is no budget
    code, out, _ = run_cli(capsys, "plumbing", "cp", past, "--json")
    assert code == 0 and json.loads(out)["weights"][0] == -head


def test_sw_twist_digit_budget(capsys, monkeypatch):
    from swsurgery import knots

    def refuse(*args):
        raise AssertionError("the SW polynomial was built")

    # 200 twists of 20 digits sit at the budget; one digit more is past it
    twists = ["9" * (MAX_INPUT_DIGITS // MAX_KNOTS)] * MAX_KNOTS
    code, out, _ = run_cli(capsys, "sw", "e1-surgery", "--knots=" + ",".join(twists), "--json")
    assert code == 0 and len(json.loads(out)["table"]) > 0
    monkeypatch.setattr(knots, "e1_knot_surgery_sw", refuse)
    for past in (twists[:-1] + ["-1" + twists[-1]], ["1" + "0" * MAX_INPUT_DIGITS]):
        code, out, err = run_cli(capsys, "sw", "e1-surgery", "--knots=" + ",".join(past))
        assert (code, out) == (2, "")
        assert f"digits; the limit is {MAX_INPUT_DIGITS}" in err


def test_plumbing_weight_digit_budget(capsys, monkeypatch):
    from swsurgery import plumbing

    def refuse(*args):
        raise AssertionError("the continuants were built")

    # four weights of 1000 digits sit at the budget; one digit more is past it
    weights = ["-" + "9" * (MAX_INPUT_DIGITS // 4)] * 4
    code, out, _ = run_cli(capsys, "plumbing", "cp", "--weights=" + ",".join(weights), "--json")
    assert code == 0 and len(str(json.loads(out)["determinant"])) > 3000
    monkeypatch.setattr(plumbing, "_continuants", refuse)
    past = weights[:-1] + ["-1" + weights[-1][1:]]
    code, out, err = run_cli(capsys, "plumbing", "cp", "--weights=" + ",".join(past), "--invert")
    assert (code, out) == (2, "")
    assert f"the weights have {MAX_INPUT_DIGITS + 1} digits; the limit is {MAX_INPUT_DIGITS}" in err


def test_sw_e1_surgery(capsys):
    code, out, _ = run_cli(capsys, "sw", "e1-surgery", "--knots", "1,3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["table"] == {"3": 3, "1": -5, "-1": 5, "-3": -3}
    code, _, _ = run_cli(capsys, "sw", "e1-surgery", "--knots", "1,oops")
    assert code == 2


def test_lattice_ops_on_builtin(capsys):
    code, out, _ = run_cli(capsys, "lattice", "square", "--model", "zn:2",
                           "--class", "T+E0+E1+E2", "--json")
    assert code == 0
    assert json.loads(out)["value"] == -3
    code, out, _ = run_cli(capsys, "lattice", "characteristic", "--model", "zn:2",
                           "--class", "T+E0+E1+E2", "--json")
    assert code == 0
    assert json.loads(out)["value"] is True
    code, out, _ = run_cli(capsys, "lattice", "pair", "--model", "e1",
                           "--class", "T", "--class", "eta")
    assert code == 0
    assert "pair = 3" in out


def test_builtin_model_not_shadowed_by_file(capsys, tmp_path, monkeypatch):
    (tmp_path / "e1").write_text("not a model\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "lattice", "pair", "--model", "e1",
                           "--class", "T", "--class", "eta")
    assert code == 0
    assert "pair = 3" in out


def test_lattice_on_model_file(capsys, tmp_path):
    path = tmp_path / "y3.json"
    code, _, _ = run_cli(capsys, "family", "xn", "--n", "3", "--model-out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "lattice", "square", "--model", str(path),
                           "--class", "h", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 5


def test_model_file_with_fractional_dimension(capsys, tmp_path):
    from swsurgery.models import y_n

    data = y_n(3).to_dict()
    data["euler"], data["simply_connected"] = 13, False  # d(k) = -1/2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "lattice", "square", "--model", str(path), "--class", "T")
    assert (code, out) == (2, "")
    assert "has d = -1/2; need d >= 0 and even" in err


def _yn_payload(**changes):
    from swsurgery.models import y_n

    return {**y_n(3).to_dict(), **changes}


@pytest.mark.parametrize("payload, fault", [
    ([1, 2], "must be an object"),
    (_yn_payload(sw=None), "'sw' must be"),
    (_yn_payload(marked=None), "'marked' must be"),
    (_yn_payload(simply_connected="yes"), "'simply_connected' must be true or false"),
    (_yn_payload(euler=12.0), "'euler' must be an integer"),
    (_yn_payload(gram=[[1, 0], [0, "x"]]), "'gram' must be"),
    (_yn_payload(marked={"T": [3, -1]}), "has 2 coordinates"),
    ({"name": "M"}, "lacks the required field 'basis'"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
])
def test_malformed_model_file_exits_2(capsys, tmp_path, payload, fault):
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run_cli(capsys, "lattice", "pair", "--model", str(path),
                             "--class", "T", "--class", "h")
    assert (code, out) == (2, "")
    assert fault in err and "Traceback" not in err


def test_model_file_gram_is_bounded_before_it_is_built(capsys, tmp_path, monkeypatch):
    import random

    rng = random.Random(160)
    n = 160  # 25600 entries: far past MAX_INPUT_DIGITS, which caps the rank at 63
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = rng.randint(-9, 9)
    payload = {"name": "M", "basis": [f"x{i}" for i in range(n)], "gram": gram,
               "euler": n + 2, "sign": 0, "simply_connected": True}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))

    def unreachable(data):
        raise AssertionError("from_dict was reached")

    monkeypatch.setattr(FourManifoldModel, "from_dict", staticmethod(unreachable))
    code, out, err = run_cli(capsys, "lattice", "pair", "--model", str(path),
                             "--class", "x0", "--class", "x1")
    assert (code, out) == (2, "")
    # one digit per entry
    assert f"the model Gram entries have {n * n} digits; the limit is {MAX_INPUT_DIGITS}" in err
    assert "Traceback" not in err


def _gram_file(path, gram):
    n = len(gram)
    payload = {"name": "M", "basis": [f"x{i}" for i in range(n)], "gram": gram,
               "euler": n + 2, "sign": 0, "simply_connected": True}
    path.write_text(json.dumps(payload))
    return ("lattice", "pair", "--model", str(path), "--class", "x0", "--class", "x1")


_BIG = 10 ** (MAX_INPUT_DIGITS // 2)  # two of these have MAX_INPUT_DIGITS + 2 digits
_HEAVY_HEAD = f"--weights=-{10 ** 600}," + ",".join(["-2"] * (MAX_CHAIN_VERTICES - 1))


# one case per budget, named by its id: (argv past the budget, argv within it,
# the expensive call, by its path in the swsurgery module that defines it,
# what the refusal says); an argv may be a function of tmp_path
@pytest.mark.parametrize("past, within, call, message", [
    pytest.param(("monodromy", "check", f"a^{MAX_WORD_LETTERS + 1}"), ("monodromy", "check", "a"),
                 "monodromy.verify_factorization", f"the limit is {MAX_WORD_LETTERS}", id="word letters"),
    pytest.param(("plumbing", "cp", "--p", str(MAX_CHAIN_VERTICES + 2)),
                 ("plumbing", "cp", "--p", "7"),
                 "plumbing.cp_chain", f"the limit is {MAX_CHAIN_VERTICES}", id="chain vertices --p"),
    pytest.param(("plumbing", "cp", "--weights=" + ",".join(["-2"] * (MAX_CHAIN_VERTICES + 1))),
                 ("plumbing", "cp", "--weights=-2"),
                 "plumbing.PlumbingChain", f"the limit is {MAX_CHAIN_VERTICES}", id="chain vertices --weights"),
    pytest.param(("sw", "e1-surgery", "--knots=" + ",".join(["1"] * (MAX_KNOTS + 1))),
                 ("sw", "e1-surgery", "--knots=1"),
                 "knots.e1_knot_surgery_sw", f"the limit is {MAX_KNOTS}", id="knots"),
    pytest.param(("plumbing", "cp", _HEAVY_HEAD, "--invert"), ("plumbing", "cp", "--p", "7", "--invert"),
                 "plumbing.intersection_matrix", f"the limit for --invert is {MAX_ADJUGATE_BITS}",
                 id="adjugate bits"),
    pytest.param(("plumbing", "cp", f"--weights=-{_BIG},-{_BIG}"), ("plumbing", "cp", "--weights=-2"),
                 "plumbing.PlumbingChain", f"digits; the limit is {MAX_INPUT_DIGITS}", id="weight digits"),
    pytest.param(("sw", "e1-surgery", f"--knots={_BIG},{_BIG}"), ("sw", "e1-surgery", "--knots=1"),
                 "knots.e1_knot_surgery_sw", f"digits; the limit is {MAX_INPUT_DIGITS}", id="twist digits"),
    pytest.param(lambda tmp: _gram_file(tmp / "past.json", [[_BIG, 0], [0, -_BIG]]),
                 lambda tmp: _gram_file(tmp / "within.json", [[1, 0], [0, -1]]),
                 "manifold.FourManifoldModel.from_dict", f"digits; the limit is {MAX_INPUT_DIGITS}",
                 id="model Gram digits"),
])
def test_every_budget_refuses_before_its_expensive_call(capsys, monkeypatch, tmp_path,
                                                        past, within, call, message):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{call} was reached")

    # the CLI imports each call from its module when the command runs
    monkeypatch.setattr(f"swsurgery.{call}", refuse)
    past, within = (argv(tmp_path) if callable(argv) else argv for argv in (past, within))
    code, out, err = run_cli(capsys, *past)
    assert (code, out) == (2, "")
    assert message in err and "Traceback" not in err
    # within the budget the same command does reach the call
    with pytest.raises(AssertionError, match=f"{call} was reached"):
        run_cli(capsys, *within)


def test_lattice_errors(capsys):
    for op, classes, wanted in (("pair", ["T"], "exactly two --class arguments"),
                                ("square", ["T", "h"], "exactly one --class argument"),
                                ("characteristic", ["T", "h"], "exactly one --class argument")):
        flags = [x for c in classes for x in ("--class", c)]
        code, out, err = run_cli(capsys, "lattice", op, "--model", "e1", *flags)
        assert (code, out, err) == (2, "", f"error: {op} needs {wanted}\n")
        # the model is resolved first, so a bad model is reported before the arity
        code, _, err = run_cli(capsys, "lattice", op, "--model", "nosuch:3", *flags)
        assert code == 2 and "no model file or builtin named 'nosuch:3'" in err
    code, _, err = run_cli(capsys, "lattice", "square", "--model", "e1", "--class", "bogus")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["family", "xn"]) == 2  # missing --n
    assert main(["no-such-command"]) == 2


def test_unknown_family_or_section_lists_the_valid_keys(capsys):
    from swsurgery.pipelines import FAMILIES, SECTIONS

    for argv, keys in ((("family", "zz", "--n", "1"), FAMILIES), (("verify-paper", "--only", "zz"), SECTIONS)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"invalid choice: 'zz' (choose from {', '.join(map(repr, keys))})" in err
        assert "Traceback" not in err


# Run in a fresh interpreter: the swsurgery modules a command leaves imported,
# and how many dataclasses they declare.
_IMPORTS = """
import contextlib, dataclasses, io, json, sys
from swsurgery.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
names = sorted(n for n in sys.modules if n.partition(".")[0] == "swsurgery")
declared = [c for n in names for c in vars(sys.modules[n]).values()
            if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == n]
print(json.dumps([code, names, len(declared)]))
"""
_MATH = ("exactmat", "lattice", "manifold")
# (argv, the modules it imports besides swsurgery, cli and report, dataclasses declared)
_COMMAND_IMPORTS = [
    (("--version",), (), 2),
    (("monodromy", "check", "(ab)^6"), ("monodromy",), 4),
    (("plumbing", "cp", "--p", "7", "--invert", "--boundary"), _MATH + ("plumbing",), 11),
    (("sw", "e1-surgery", "--knots=1,3"), _MATH + ("knots",), 8),
    (("verify-paper",), _MATH + ("knots", "models", "monodromy", "pipelines", "plumbing"), 14),
]


@pytest.mark.parametrize("argv, modules, dataclasses", _COMMAND_IMPORTS,
                         ids=[" ".join(argv) for argv, _, _ in _COMMAND_IMPORTS])
def test_each_command_imports_only_what_it_runs(argv, modules, dataclasses):
    proc = subprocess.run([sys.executable, "-c", _IMPORTS, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    code, names, declared = json.loads(proc.stdout)
    assert code == 0
    assert names == sorted(["swsurgery", "swsurgery.cli", "swsurgery.report"]
                           + [f"swsurgery.{m}" for m in modules])
    assert declared == dataclasses


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "swsurgery", "plumbing", "cp", "--p", "3", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["determinant"] == 9


def test_closed_stdout_exits_1_without_traceback():
    # more output than a pipe buffers, so the reader closes it mid-write
    proc = subprocess.Popen(
        [sys.executable, "-m", "swsurgery", "plumbing", "cp", "--p", "301", "--invert"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == ""
