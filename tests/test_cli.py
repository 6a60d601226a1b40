import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "probframes.cli"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True
    )


def test_analyze_fixture():
    r = run_cli("analyze", "axes_2d")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["is_tight"] is True
    assert doc["lower_bound"] == 0.5
    assert doc["redundancy_rank"] == 0


def test_fixture_flag_equivalent_to_positional():
    a = run_cli("analyze", "axes_2d")
    b = run_cli("analyze", "--fixture", "axes_2d")
    assert a.stdout == b.stdout


def test_w2_value():
    r = run_cli("w2", "near_dirac_pair", "dirac_one")
    doc = json.loads(r.stdout)
    assert abs(doc["cost"] - 0.125) < 1e-15


def test_output_is_byte_identical_across_runs():
    first = run_cli("canonical-dual", "mean_one_pair")
    second = run_cli("canonical-dual", "mean_one_pair")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_certify_coupling_fixture():
    r = run_cli("certify", "permuted_axes_coupling")
    doc = json.loads(r.stdout)
    assert doc["classification"] == "none"
    assert doc["source_redundancy"] == 0


def test_certify_search_two_measures():
    r = run_cli("certify", "axes_2d", "axes_2d")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["search"]["residual"] <= 1e-6 or doc["classification"] != "none"


def test_coupling_check():
    r = run_cli("coupling-check", "permuted_axes_coupling")
    doc = json.loads(r.stdout)
    assert doc["valid"] is True
    assert doc["row_error"] <= 1e-12


def test_neumann_sequence(tmp_path):
    r = run_cli("canonical-dual", "mean_one_pair")
    coupling = json.loads(r.stdout)["coupling"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(coupling))
    q = run_cli("neumann", str(path), "--terms", "3")
    assert q.returncode == 0
    doc = json.loads(q.stdout)
    assert len(doc["sequence"]) == 4
    assert all(s["deviation"] <= s["error_bound"] + 1e-12 for s in doc["sequence"])


def test_uncertainty_command(tmp_path):
    # canonical dual coupling written to disk, then queried
    r = run_cli("canonical-dual", "axes_2d")
    coupling = json.loads(r.stdout)["coupling"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(coupling))
    q = run_cli("uncertainty", str(path), "--vector", "1,0")
    doc = json.loads(q.stdout)
    assert doc["satisfied"] is True
    assert doc["rhs"] == 1.0


def test_text_output_mode():
    r = run_cli("analyze", "dirac_one", "--output", "text")
    assert r.returncode == 0
    assert "is_parseval: true" in r.stdout


def test_validation_errors_exit_2(tmp_path):
    assert run_cli("analyze", "no_such_fixture").returncode == 2
    assert run_cli("rescue", "permuted_axes_coupling").returncode == 2
    assert run_cli("certify", "axes_2d", "axes_2d", "axes_2d").returncode == 2
    # a missing input is named, not reported by a failed tuple unpacking
    for argv, message in (
        (["analyze"], "error: analyze takes 1 input, got 0"),
        (["w2", "axes_2d"], "error: w2 takes 2 inputs, got 1"),
    ):
        r = run_cli(*argv)
        assert r.returncode == 2 and r.stderr.strip() == message, r.stderr
    for name, text in (("number.json", "5"), ("string.json", '"atoms"')):
        (tmp_path / name).write_text(text)
        assert run_cli("analyze", str(tmp_path / name)).returncode == 2
    assert run_cli("analyze", str(tmp_path)).returncode == 2
    assert run_cli("certify", "axes_2d", "axes_2d", "--iters", "0").returncode == 2
    assert run_cli("neumann", "permuted_axes_coupling", "--terms", "-1").returncode == 2
    # fields of the wrong type are bad input too, not internal errors
    axes = {"atoms": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]}
    for name, doc in (
        ("dim_null.json", {"dim": None, **axes}),
        ("atoms_object.json", {**axes, "atoms": {"x": 1.0}}),
        ("weights_object.json", {**axes, "weights": {"w": 1.0}}),
    ):
        (tmp_path / name).write_text(json.dumps(doc))
        r = run_cli("analyze", str(tmp_path / name))
        assert r.returncode == 2, r.stderr
    plan = tmp_path / "plan_object.json"
    plan.write_text(json.dumps({"source": axes, "target": axes, "plan": {"p": 1.0}}))
    assert run_cli("coupling-check", str(plan)).returncode == 2
    operator = tmp_path / "operator.json"
    operator.write_text(json.dumps({"atoms": {"x": 1.0}}))
    r = run_cli("approx-dual", "axes_2d", "--operator", str(operator))
    assert r.returncode == 2, r.stderr
    # string weights were accepted before and still are
    strings = tmp_path / "string_weights.json"
    strings.write_text(json.dumps({**axes, "weights": ["0.5", "0.5"]}))
    assert run_cli("analyze", str(strings)).returncode == 0


def test_failed_hypotheses_exit_3():
    r = run_cli("perturb", "dirac_one", "dirac_zero", "--mode", "bound")
    assert r.returncode == 3
    doc = json.loads(r.stdout)
    assert doc["flags"]["quadratic_closeness"] is False


def test_perturb_bound_values():
    r = run_cli("perturb", "dirac_one", "near_dirac_pair", "--mode", "bound")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert abs(doc["lambda"] - 0.125) < 1e-15


def test_sample_dual_runs():
    r = run_cli(
        "sample-dual", "shifted_gauss_100", "--samples", "12", "--a-n", "0.3"
    )
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["subsample"]["atoms"]) == 12
    assert doc["certificate"]["deviation"] < 1.0


def entry_point_launcher() -> str:
    """Python code that calls the console script declared in pyproject.toml
    the way an installed launcher does, so it runs without an install."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["probframes"]
    module, func = target.split(":")
    return f"import sys; from {module} import {func}; sys.exit({func}())"


def test_console_script_entry_point():
    args = ["analyze", "dirac_one"]
    r = subprocess.run(
        [sys.executable, "-c", entry_point_launcher(), *args],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["is_parseval"] is True

    installed = shutil.which("probframes")
    if installed is not None:
        s = subprocess.run([installed, *args], capture_output=True, text=True)
        assert s.returncode == 0, s.stderr
        assert s.stdout == r.stdout


def test_runs_without_scipy():
    """The runtime needs numpy only: with scipy made unimportable, the
    entry point prints the same bytes and exits with the same code."""
    launcher = entry_point_launcher()
    hidden = "import sys; sys.modules['scipy'] = None; " + launcher
    for args in (
        ["analyze", "mean_one_triple"],
        ["w2", "near_dirac_pair", "dirac_one"],
        ["certify", "axes_2d", "axes_2d", "--iters", "200"],
        ["sample-dual", "shifted_gauss_100", "--samples", "12", "--a-n", "0.3"],
        ["rescue", "permuted_axes_coupling"],  # inverse raises Singular
    ):
        runs = [
            subprocess.run(
                [sys.executable, "-c", code, *args], capture_output=True, text=True
            )
            for code in (launcher, hidden)
        ]
        assert runs[0].stdout == runs[1].stdout, args
        assert runs[0].returncode == runs[1].returncode, args
        assert runs[1].returncode == (2 if args[0] == "rescue" else 0), runs[1].stderr
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, probframes.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
        ],
        capture_output=True,
        text=True,
    )
    assert loaded.stdout == "[]\n", loaded.stderr


def test_bugs_exit_1_even_when_they_raise_value_error(monkeypatch, capsys):
    from probframes import cli

    def raises(args):
        raise ValueError("a handler bug")

    def non_finite(args):
        return {"value": float("nan")}, True

    monkeypatch.setitem(cli.COMMANDS, "analyze", (raises, ""))
    assert cli.main(["analyze", "axes_2d"]) == 1
    assert capsys.readouterr().err == "internal error: ValueError: a handler bug\n"
    monkeypatch.setitem(cli.COMMANDS, "analyze", (non_finite, ""))
    assert cli.main(["analyze", "axes_2d"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "internal error: ValueError: cannot serialize non-finite value nan\n"
    )
