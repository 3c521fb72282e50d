import hashlib
import json
import subprocess
import sys

from swsurgery.cli import main
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
