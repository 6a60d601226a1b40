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


def refused(threshold, cost="c", floor=None, pivots=2):
    floor = threshold if floor is None else floor
    return {"cost": cost, "refused_at": threshold, "floor": floor, "pivots": pivots}


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
    ],
)
def test_compare_accepts_only_refusals_a_full_solve_justifies(
    solve_replay, capsys, old, new, code
):
    assert solve_replay.compare(run(old), run(new)) == code
    out = capsys.readouterr().out
    assert ("differs: cloud_0" in out) == bool(code)
    # a solve that ended on one side and was refused on the other is
    # counted whether or not the runs agree
    switched = int(solve_replay._kind(old) != solve_replay._kind(new))
    assert f"\n{switched} solves ended on one side and were refused" in out


def test_compare_requires_the_same_subsample_and_solve_sequence(solve_replay, capsys):
    assert solve_replay.compare(run(ended()), run(ended(), refused(0.5))) == 1
    changed = run(ended())
    changed[0]["subsample_sha256"] = "t"
    assert solve_replay.compare(run(ended()), changed) == 1
    assert "subsample differs" in capsys.readouterr().out


A, B = np.full(3, 1.0 / 3), np.full(2, 0.5)
COSTS = [np.arange(6.0).reshape(3, 2) + k for k in range(3)]


def replay_toy_search(solve_replay, monkeypatch):
    """The one run replay records of a search in the shape of the greedy
    one: a cold solve, then warm solves handed a threshold, one of which
    refuses its trial."""
    from probframes import perturbation, transport
    from probframes.measures import uniform

    def search(eta, n):
        tree = transport._transport_simplex(A, B, COSTS[0])[0]
        # no cost reaches an infinite threshold, and every one a negative one
        for cols, refuse_at in zip(COSTS[1:], (np.inf, -np.inf)):
            transport._transport_simplex(A, B, cols, start=tree, refuse_at=refuse_at)
        return eta

    eta = uniform(np.eye(2))
    monkeypatch.setattr(solve_replay, "inputs", lambda: [("toy", eta, 2)])
    monkeypatch.setattr(perturbation, "greedy_subsample", search)
    monkeypatch.setattr(sys, "path", list(sys.path))
    (run,) = solve_replay.replay(solve_replay.REPO_SRC)
    kinds = [solve_replay._kind(s) for s in run["solves"]]
    assert kinds == ["reported", "reported", "refused_at"]
    assert [s["cost"] for s in run["solves"]] == [solve_replay._sha(c) for c in COSTS]
    assert run["solves"][2]["refused_at"] == -np.inf
    return run


def test_replay_records_each_solve_and_restores_the_solver(solve_replay, monkeypatch):
    from probframes import transport

    solve = transport._transport_simplex
    run = replay_toy_search(solve_replay, monkeypatch)
    # the reported cost is worked out from the recorded plan
    tree = solve(A, B, COSTS[0])[0]
    assert run["solves"][0]["plan"] == solve_replay._sha(tree.plan)
    assert run["solves"][0]["reported"] == float((tree.plan * COSTS[0]).sum())
    # the refusal's floor and pivot count, which the summary adds up
    _, floor, stats = solve(A, B, COSTS[2], start=tree, refuse_at=-np.inf)
    refusal = run["solves"][2]
    assert (refusal["floor"], refusal["pivots"]) == (floor, stats.pivots)
    assert solve_replay._solve_counts([run]) == (
        f"3 solves (1 refused, {int(not stats.pivots)} with no pivot, "
        f"making {stats.pivots} pivots)"
    )
    # the solver is restored
    assert transport._transport_simplex is solve


def test_compare_sums_the_pivots_of_refused_solves(solve_replay, capsys):
    new = run(ended(), refused(0.5, floor=0.75, pivots=4),
              refused(0.5, cost="d", pivots=3), refused(0.5, cost="e", pivots=0))
    old = run(ended(), refused(0.5), refused(0.5, cost="d"), refused(0.5, cost="e"))
    assert solve_replay.compare(old, new) == 0
    assert "4 solves (3 refused, 1 with no pivot, making 7 pivots), 0 runs differ" in (
        capsys.readouterr().out
    )
