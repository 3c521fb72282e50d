import hashlib
import json
import subprocess
import sys

import pytest

from swsurgery.cli import MAX_CHAIN_VERTICES, MAX_KNOTS, main
from swsurgery.manifold import FourManifoldModel


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
    from swsurgery.lattice import _signature_cached
    from swsurgery.plumbing import _blowdown_geometry, intersection_matrix

    commands = [("verify-paper", "--json")] + [
        ("family", key, "--n", str(n), "--json")
        for key in ("xn", "qn", "b7", "b8") for n in range(1, 6)
    ]
    for memo in (_signature_cached, _blowdown_geometry, intersection_matrix):
        memo.cache_clear()
    cold = [run_cli(capsys, *argv) for argv in commands]
    assert _blowdown_geometry.cache_info().hits > 0
    warm = [run_cli(capsys, *argv) for argv in commands]
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


def test_sw_knot_count_limit(capsys):
    knots = ",".join(["1000000"] * MAX_KNOTS)
    code, out, _ = run_cli(capsys, "sw", "e1-surgery", f"--knots={knots}", "--json")
    assert code == 0
    assert len(json.loads(out)["knots"]) == MAX_KNOTS
    code, out, err = run_cli(capsys, "sw", "e1-surgery", f"--knots={knots},1")
    assert (code, out) == (2, "")
    assert f"{MAX_KNOTS + 1} knots given; the limit is {MAX_KNOTS}" in err


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


def test_lattice_errors(capsys):
    code, _, err = run_cli(capsys, "lattice", "pair", "--model", "e1", "--class", "T")
    assert code == 2
    code, _, err = run_cli(capsys, "lattice", "square", "--model", "nosuch:3", "--class", "T")
    assert code == 2
    code, _, err = run_cli(capsys, "lattice", "square", "--model", "e1", "--class", "bogus")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["family", "xn"]) == 2  # missing --n
    assert main(["no-such-command"]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "swsurgery", "plumbing", "cp", "--p", "3", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["determinant"] == 9
