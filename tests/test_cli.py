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


def test_uncertainty_equality_is_satisfied(tmp_path):
    # S is diagonal, so f along an axis is an eigenvector and lhs = rhs =
    # |f|^4 in exact arithmetic; both sides round at the scale of 1e12
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps({"atoms": [[1.27, 0], [-0.72, 0], [0, 1.93]]}))
    r = run_cli("canonical-dual", str(measure))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(json.loads(r.stdout)["coupling"]))
    # argparse reads "-1000,0" after a space as an option, so the = form
    for vector in ("--vector=1000,0", "--vector=-1000,0"):
        q = run_cli("uncertainty", str(path), vector)
        assert q.returncode == 0, q.stderr
        doc = json.loads(q.stdout)
        assert doc["rhs"] == 1e12
        assert doc["satisfied"] is True


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
    # no atoms, with or without weights: the same bad-input line
    empty = tmp_path / "empty_atoms.json"
    empty.write_text(json.dumps({"atoms": []}))
    for argv in (["analyze", empty], ["w2", empty, "axes_2d"]):
        r = run_cli(*map(str, argv))
        assert r.returncode == 2 and r.stderr == (
            "error: measure needs at least one atom\n"
        ), (argv, r.stderr)
    # atoms without a coordinate: no frame to analyse and no cost to move
    flat = tmp_path / "zero_dim.json"
    flat.write_text(json.dumps({"atoms": [[]]}))
    for argv in (["analyze", flat], ["canonical-dual", flat], ["w2", flat, flat]):
        r = run_cli(*map(str, argv))
        assert r.returncode == 2 and r.stderr == (
            "error: atoms need at least one coordinate, got shape (1, 0)\n"
        ), (argv, r.stderr)
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
    # non-finite vectors and tolerances, and an A_N that is negative or
    # not finite, are bad input, not internal errors
    coupling = tmp_path / "coupling.json"
    dual = json.loads(run_cli("canonical-dual", "axes_2d").stdout)
    coupling.write_text(json.dumps(dual["coupling"]))
    sample = ["sample-dual", "shifted_gauss_100", "--samples", "10", "--a-n"]
    for argv in (
        ["uncertainty", str(coupling), "--vector", "nan,1"],
        ["uncertainty", str(coupling), "--vector", "1,inf"],
        ["certify", "permuted_axes_coupling", "--tol", "nan"],
        ["certify", "permuted_axes_coupling", "--tol", "inf"],
        [*sample, "-1"],
        [*sample, "nan"],
        [*sample, "inf"],
    ):
        r = run_cli(*argv)
        assert r.returncode == 2 and r.stderr.startswith("error: "), (argv, r.stderr)
    # coordinates near 1e160 are finite, but their squared distances and
    # the search's oracle costs overflow; near 1e154 the squared distances
    # are finite, but the simplex's potentials and reduced costs overflow:
    # bad input, refused before any pivot, and stderr is the error line
    # alone, with no numpy warning naming a source line
    third = [1 / 3] * 3
    docs = (
        ({**axes, "atoms": [[1e160, 0.0], [0.0, 1e160]]},
         {**axes, "atoms": [[1e160, 1e160], [0.0, -1e160]]}),
        ({"atoms": [[-5e153], [5e153], [-3e153]], "weights": third},
         {"atoms": [[-6e153], [5e153], [1e153]], "weights": third}),
    )
    for k, pair in enumerate(docs):
        paths = [tmp_path / f"huge_{k}_{side}.json" for side in "mn"]
        for path, doc in zip(paths, pair):
            path.write_text(json.dumps(doc))
        for command in ("w2", "certify"):
            r = run_cli(command, *map(str, paths))
            assert r.returncode == 2, (command, pair, r.stderr)
            assert r.stderr == (
                "error: cost matrix has entries too large or not finite\n"
            )
    # near 1e160 the frame operator overflows too
    for command in ("analyze", "canonical-dual"):
        r = run_cli(command, str(tmp_path / "huge_0_m.json"))
        assert r.returncode == 2, (command, r.stderr)
        assert r.stderr == "error: matrix has non-finite entries\n"


def test_each_command_takes_only_the_flags_it_reads(capsys):
    from probframes import cli

    reads = {
        "--tol": {
            "certify", "canonical-dual", "approx-dual", "neumann", "rescue",
            "pushforward", "perturb",
        },
        "--iters": {"certify"},
        "--seed": set(),
        "--fixture": set(),
    }
    parser = cli.build_parser()
    required = {
        "approx-dual": ["--operator", "op"],
        "uncertainty": ["--vector", "1"],
        "sample-dual": ["--samples", "3"],
    }
    for command in cli.COMMANDS:
        for flag, commands in reads.items():
            argv = [command, "input", *required.get(command, []), flag, "3"]
            if command in commands:
                assert vars(parser.parse_args(argv))[flag[2:]] == 3
            else:
                with pytest.raises(SystemExit) as stop:
                    parser.parse_args(argv)
                assert stop.value.code == 2
    capsys.readouterr()
    # the golden sweep's runs with these flags parse as they did
    for argv, flag, value in (
        (["certify", "axes_2d", "axes_2d", "--iters", "200"], "iters", 200),
        (["certify", "c.json", "--tol", "1e-3", "--output", "text"], "tol", 1e-3),
    ):
        assert vars(parser.parse_args(argv))[flag] == value
    # flags that these commands accepted and dropped
    for argv in (
        ["sample-dual", "shifted_gauss_100", "--samples", "10", "--tol", "inf"],
        ["analyze", "dirac_one", "--iters", "5"],
        ["w2", "axes_2d", "axes_2d", "--seed", "3"],
        ["sample-dual", "shifted_gauss_100", "--samples", "10", "--seed", "4"],
    ):
        r = run_cli(*argv)
        assert r.returncode == 2 and "unrecognized arguments" in r.stderr, argv
    # a command that takes --tol rejects a non-finite one even where it
    # never reaches a certificate
    r = run_cli("perturb", "axes_2d", "axes_2d", "--mode", "bound", "--tol", "nan")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: --tol must be a finite number >= 0, got nan\n"


def test_a_negative_tol_is_bad_input():
    # no deviation is at or below a negative tolerance, so an exact pair
    # would certify "approximate"
    for argv in (
        ["canonical-dual", "axes_2d", "--tol", "-0.5"],
        ["certify", "permuted_axes_coupling", "--tol", "-1"],
        ["perturb", "axes_2d", "axes_2d", "--tol", "-1"],
        ["neumann", "permuted_axes_coupling", "--tol", "-1"],
    ):
        r = run_cli(*argv)
        assert r.returncode == 2 and r.stdout == "", argv
        tol = float(argv[-1])
        assert r.stderr == f"error: --tol must be a finite number >= 0, got {tol}\n"


# a good run of each command for each input count its row takes, with its
# exit code; "c.json" is an exact dual coupling of axes_2d
GOOD_RUNS = {
    ("analyze", 1): (["axes_2d"], 0),
    ("w2", 2): (["near_dirac_pair", "dirac_one"], 0),
    ("coupling-check", 1): (["permuted_axes_coupling"], 0),
    ("certify", 1): (["permuted_axes_coupling"], 0),
    ("certify", 2): (["axes_2d", "axes_2d", "--iters", "200"], 0),
    ("canonical-dual", 1): (["mean_one_pair"], 0),
    ("approx-dual", 1): (["axes_2d", "--operator", "axes_2d"], 0),
    ("neumann", 1): (["c.json", "--terms", "2"], 0),
    ("rescue", 1): (["c.json"], 0),
    ("pushforward", 1): (["axes_2d"], 0),
    ("uncertainty", 1): (["c.json", "--vector", "1,0"], 0),
    ("bounds-ineq", 1): (["c.json"], 0),
    ("perturb", 2): (["dirac_one", "dirac_zero", "--mode", "bound"], 3),
    ("sample-dual", 1): (["shifted_gauss_100", "--samples", "12", "--a-n", "0.3"], 0),
}


def command_input_counts():
    from probframes import cli

    return [(name, k) for name, row in cli.COMMANDS.items() for k in row[1]]


@pytest.mark.parametrize("command, count", command_input_counts())
def test_every_command_runs_with_each_input_count_it_takes(
    command, count, tmp_path, monkeypatch, capsys
):
    from probframes import cli

    assert set(GOOD_RUNS) == set(command_input_counts())
    axes = {"atoms": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]}
    doubled = {"atoms": [[2.0, 0.0], [0.0, 2.0]], "weights": [0.5, 0.5]}
    plan = [[0.5, 0.0], [0.0, 0.5]]
    (tmp_path / "c.json").write_text(
        json.dumps({"source": axes, "target": doubled, "plan": plan})
    )
    monkeypatch.chdir(tmp_path)
    argv, code = GOOD_RUNS[command, count]
    # main hands the row's count of inputs to the handler as its parameters
    assert cli.main([command, *argv]) == code
    out = capsys.readouterr()
    assert out.err == "" and isinstance(json.loads(out.out), dict)


def test_perturb_certifies_glue_and_variants_at_the_given_tol(tmp_path):
    dual = tmp_path / "dual.json"
    coupling = json.loads(run_cli("canonical-dual", "axes_2d").stdout)["coupling"]
    dual.write_text(json.dumps(coupling))
    near = tmp_path / "near.json"
    near.write_text(json.dumps(
        {"dim": 2, "atoms": [[1.0, 0.001], [0.0, 1.0]], "weights": [0.5, 0.5]}
    ))
    # the glued coupling deviates by 1e-3: approximate at the default
    # tolerance, exact at --tol 0.01
    for mode in ("glue", "variants"):
        argv = ["perturb", "axes_2d", str(near), "--mode", mode, "--dual", str(dual)]
        for tol, classification in (([], "approximate"), (["--tol", "0.01"], "exact")):
            r = run_cli(*argv, *tol)
            assert r.returncode == 0, r.stderr
            cert = json.loads(r.stdout)["certificate"]
            assert abs(cert["deviation"] - 1e-3) < 1e-12
            assert cert["classification"] == classification, (mode, tol)


def test_perturb_bound_rejects_a_tol_it_would_not_read():
    r = run_cli("perturb", "axes_2d", "axes_2d", "--mode", "bound", "--tol", "1e-9")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == (
        "error: --tol is not read in --mode bound, which prints no certificate\n"
    )
    assert run_cli("perturb", "axes_2d", "axes_2d", "--mode", "bound").returncode == 0


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

    def raises(args, name):
        raise ValueError("a handler bug")

    def non_finite(args, name):
        return {"value": float("nan")}, True

    monkeypatch.setitem(cli.COMMANDS, "analyze", (raises, (1,), "", ()))
    assert cli.main(["analyze", "axes_2d"]) == 1
    assert capsys.readouterr().err == "internal error: ValueError: a handler bug\n"
    monkeypatch.setitem(cli.COMMANDS, "analyze", (non_finite, (1,), "", ()))
    assert cli.main(["analyze", "axes_2d"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "internal error: ValueError: cannot serialize non-finite value nan\n"
    )
