import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_sweep.py"


@pytest.fixture(scope="module")
def golden_sweep():
    spec = importlib.util.spec_from_file_location("golden_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def swept(*argvs, **changed):
    return [
        {"argv": argv, "exit": 0, "stdout_sha256": "s", "stderr": "", **changed}
        for argv in argvs
    ]


W2 = ["w2", "axes_2d", "axes_2d"]
ANALYZE = ["analyze", "dirac_one"]


def test_compare_accepts_identical_records(golden_sweep, capsys):
    assert golden_sweep.compare(swept(W2, ANALYZE), swept(W2, ANALYZE)) == 0
    out = capsys.readouterr().out
    assert "differs" not in out and "2 runs, 0 differ" in out


@pytest.mark.parametrize(
    "field, value", [("exit", 1), ("stdout_sha256", "t"), ("stderr", "error\n")]
)
def test_compare_flags_a_changed_field(golden_sweep, capsys, field, value):
    old = swept(W2, ANALYZE)
    new = swept(W2) + swept(ANALYZE, **{field: value})
    assert golden_sweep.compare(old, new) == 1
    out = capsys.readouterr().out
    assert f"differs ({field}): analyze dirac_one" in out
    assert "w2 axes_2d axes_2d" not in out


def test_compare_flags_new_and_missing_runs(golden_sweep, capsys):
    assert golden_sweep.compare(swept(W2), swept(W2, ANALYZE)) == 1
    assert "new run: analyze dirac_one" in capsys.readouterr().out
    assert golden_sweep.compare(swept(W2, ANALYZE), swept(W2)) == 1
    assert "missing run: analyze dirac_one" in capsys.readouterr().out
