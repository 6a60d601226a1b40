import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_replay.py"


@pytest.fixture(scope="module")
def solve_replay():
    spec = importlib.util.spec_from_file_location("solve_replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(*solves):
    return [{"run": "cloud_0", "subsample_sha256": "s", "solves": list(solves)}]


def ended(cost="c", plan="p", stats=(3, 1, 0), reported=1.0):
    return {"cost": cost, "plan": plan, "stats": list(stats), "reported": reported}


def refused(threshold, cost="c"):
    return {"cost": cost, "refused_at": threshold}


def screened(lower, cost="c"):
    return {"cost": cost, "screened_at": lower}


@pytest.mark.parametrize(
    "old, new, code",
    [
        (ended(), ended(), 0),
        # a refusal the full solve's reported cost justifies, either way round
        (ended(reported=1.0), refused(1.0), 0),
        (refused(0.5), ended(reported=1.0), 0),
        (refused(0.5), refused(0.5), 0),
        # the full solve reported a cost below the threshold: the refused
        # trial would have been accepted
        (ended(reported=1.0), refused(1.0000000000000002), 1),
        (refused(2.0), ended(reported=1.0), 1),
        (refused(0.5), refused(0.25), 1),
        (ended(), ended(plan="q"), 1),
        (ended(), ended(stats=(4, 1, 0)), 1),
        (ended(), ended(cost="d"), 1),
        (refused(0.5), refused(0.5, cost="d"), 1),
        # a trial the other side's screen refused before any solve: a
        # refusal needs the screen's bound at or above its threshold, and
        # a full solve must report a cost at or above that bound
        (screened(1.0), refused(1.0), 0),
        (screened(1.0), refused(0.5), 0),
        (refused(0.5), screened(1.0), 0),
        (screened(0.5), refused(1.0), 1),
        (screened(0.9999999999999999), refused(1.0), 1),
        (screened(0.5), ended(reported=1.0), 0),
        (screened(1.0), ended(reported=0.5), 1),
        (screened(0.5), screened(0.5), 0),
        (screened(0.5), screened(0.25), 1),
        (screened(1.0), refused(0.5, cost="d"), 1),
    ],
)
def test_compare_accepts_only_refusals_a_full_solve_justifies(
    solve_replay, capsys, old, new, code
):
    assert solve_replay.compare(run(old), run(new)) == code
    out = capsys.readouterr().out
    assert ("differs: cloud_0" in out) == bool(code)


def test_compare_requires_the_same_subsample_and_solve_sequence(solve_replay, capsys):
    assert solve_replay.compare(run(ended()), run(ended(), refused(0.5))) == 1
    changed = run(ended())
    changed[0]["subsample_sha256"] = "t"
    assert solve_replay.compare(run(ended()), changed) == 1
    assert "subsample differs" in capsys.readouterr().out


def test_replay_keeps_only_the_trials_a_screen_refused(solve_replay, monkeypatch):
    # a search in the shape of one that screens its trials before solving
    # them: the first trial passes the screen and is solved, the second
    # is screened out
    from probframes import perturbation, transport
    from probframes.measures import uniform

    a, b = np.full(3, 1.0 / 3), np.full(2, 0.5)
    costs = [np.arange(6.0).reshape(3, 2) + k for k in range(3)]

    def screen(a, b, cols, v):
        return float(cols.min())

    def search(eta, n):
        transport._transport_simplex(a, b, costs[0])
        for cols in costs[1:]:
            lower = perturbation._swap_lower_bound(a, b, cols, None)
            if lower < 2.0:
                transport._transport_simplex(a, b, cols, refuse_at=1.0)
        return eta

    eta, solve = uniform(np.eye(2)), transport._transport_simplex
    monkeypatch.setattr(solve_replay, "inputs", lambda: [("toy", eta, 2)])
    monkeypatch.setattr(perturbation, "_swap_lower_bound", screen, raising=False)
    monkeypatch.setattr(perturbation, "greedy_subsample", search)
    monkeypatch.setattr(sys, "path", list(sys.path))
    (run,) = solve_replay.replay(solve_replay.REPO_SRC)
    kinds = [next(k for k in s if k != "cost") for s in run["solves"]]
    assert kinds == ["plan", "refused_at", "screened_at"]
    assert [s["cost"] for s in run["solves"]] == [solve_replay._sha(c) for c in costs]
    assert run["solves"][2]["screened_at"] == 2.0
    # the screen and the solver are restored
    assert perturbation._swap_lower_bound is screen
    assert transport._transport_simplex is solve
