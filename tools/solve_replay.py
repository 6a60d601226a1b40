"""Record and compare every simplex solve of the greedy subsample search.

Runs ``probframes.perturbation.greedy_subsample`` on seeded 80-point
Gaussian clouds (n = 16, the shape of the ``pipeline_warm`` benchmark
op), on the bundled ``shifted_gauss_100`` at n = 12, 20 and 30 and on
45-point clouds with repeated atoms, whose tied reduced costs make the
pivots depend on the last bits of the pricing. It records for each run
the SHA-256 of the chosen subsample's atoms and, for every simplex
solve the search makes, the SHA-256 of its cost matrix and either
- of a solve that ends, the SHA-256 of its plan, its pivot counts
  (``SolveStats``) and the cost it reports, ``fl(sum(plan * cost))``,
  worked out here from the plan; or
- of a solve that refuses its trial (its dual bound, less a rounding
  margin, reached the ``refuse_at`` threshold it was handed), which
  returns ``(None, floor, stats)``: that threshold, the certified floor
  the refusal compared with it and the pivots it made.

    python tools/solve_replay.py record OUT.json [--src DIR]
    python tools/solve_replay.py compare OUT.json [--src DIR]

``--src`` selects the ``src`` directory whose ``probframes`` is run
(default: the one next to this script). Record at the parent commit,
then compare at the change. Two runs agree when they choose the same
subsample and solve the same sequence of cost matrices, and each pair
of solves agrees: two solves that end give the same plan and pivot
counts; two refusals have the same threshold; and a refusal is
accepted against a solve that ends only when that solve reported a
cost at or above the threshold, so the trial would have been refused
anyway. ``compare`` prints every run that does not agree and exits 1
if there is one; it also counts the solves that ended on one side and
were refused on the other, which a stronger or weaker refusal bound
changes even when every run agrees, the refused solves that made no
pivot and the pivots that refused solves made. Float bits may differ
between BLAS builds, so compare only records made on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
CLOUDS = 10
CLOUD_SEED = 1
DUPLICATED_CLOUDS = 6


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def inputs():
    """(name, measure, n) of every run."""
    from probframes.fixtures import load_measure
    from probframes.measures import DiscreteMeasure, uniform

    rng = np.random.default_rng(CLOUD_SEED)
    for k in range(CLOUDS):
        # the recipe of shifted_gauss_100: standard normal points in the
        # plane, shifted by e1
        points = rng.standard_normal((80, 2))
        points[:, 0] += 1.0
        yield f"cloud_{k}", uniform(points), 16
    eta = load_measure("shifted_gauss_100")
    for n in (12, 20, 30):
        yield f"shifted_gauss_100_n{n}", eta, n
    # clouds with a third of their atoms repeated, under uniform or skewed
    # weights: their swap solves meet tied reduced costs, where the last
    # bits of the pricing decide the pivots
    for seed in range(DUPLICATED_CLOUDS):
        rng = np.random.default_rng(900 + seed)
        points = rng.standard_normal((30, 2)) * 10.0 ** (seed % 3 - 1)
        atoms = np.vstack([points, points[rng.integers(0, 30, 15)]])
        w = rng.uniform(0.5, 1.5, len(atoms)) if seed % 2 else np.ones(len(atoms))
        n = int(rng.integers(4, 12))
        yield f"duplicated_{seed}", DiscreteMeasure(atoms, w / w.sum()), n


def replay(src: Path) -> list[dict]:
    sys.path.insert(0, str(src.resolve()))
    from probframes import perturbation, transport

    solve = transport._transport_simplex
    solves: list[dict] = []

    def recording(a, b, cost, **options):
        sha = _sha(cost)
        result = solve(a, b, cost, **options)
        if result[0] is None:
            solves.append({"cost": sha, "refused_at": options["refuse_at"],
                           "floor": result[1], "pivots": result[2].pivots})
            return result
        plan, stats = result[0].plan, result[2]
        solves.append({
            "cost": sha,
            "plan": _sha(plan),
            "stats": [stats.pivots, stats.degenerate_pivots, stats.bland_pivots],
            "reported": float((plan * cost).sum()),
        })
        return result

    runs = []
    transport._transport_simplex = recording
    try:
        for name, eta, n in inputs():
            solves = []
            chosen = perturbation.greedy_subsample(eta, n)
            runs.append({"run": name, "subsample_sha256": _sha(chosen.atoms),
                         "solves": solves})
    finally:
        transport._transport_simplex = solve
    return runs


# what a record of one trial holds, the stronger evidence of its cost
# first: the cost a full solve reported, the threshold at which a solve
# refused it
KINDS = ("reported", "refused_at")


def _kind(entry: dict) -> str:
    return next(k for k in KINDS if k in entry)


def _solve_counts(runs: list[dict]) -> str:
    solves = [s for r in runs for s in r["solves"]]
    refused = [s for s in solves if _kind(s) == "refused_at"]
    pivots = [s["pivots"] for s in refused]
    return (
        f"{len(solves)} solves ({len(refused)} refused, {pivots.count(0)} with no "
        f"pivot, making {sum(pivots)} pivots)"
    )


def _disagreement(p: dict, q: dict) -> str | None:
    """Why two records of one solve disagree, or None when they agree."""
    if p["cost"] != q["cost"]:
        return "cost matrices differ"
    (strong, ks), (weak, kw) = sorted(
        ((p, _kind(p)), (q, _kind(q))), key=lambda entry: KINDS.index(entry[1])
    )
    if ks == kw == "reported":
        if (p["plan"], p["stats"]) != (q["plan"], q["stats"]):
            return "plans or pivot counts differ"
        return None
    if ks == kw:
        return None if p[ks] == q[ks] else "thresholds differ"
    # a refusal is justified only by a reported cost at or above it
    if strong[ks] >= weak[kw]:
        return None
    return f"refused at {weak[kw]!r}, but the full solve reported {strong[ks]!r}"


def compare(old: list[dict], new: list[dict]) -> int:
    before = {r["run"]: r for r in old}
    differing = switched = 0
    for r in new:
        o = before.pop(r["run"], None)
        if o is None:
            print(f"new run: {r['run']}")
            differing += 1
            continue
        pairs = list(zip(o["solves"], r["solves"]))
        switched += sum(_kind(p) != _kind(q) for p, q in pairs)
        notes = []
        if o["subsample_sha256"] != r["subsample_sha256"]:
            notes.append("subsample differs")
        if len(o["solves"]) != len(r["solves"]):
            notes.append(f"{len(o['solves'])} -> {len(r['solves'])} solves")
        first = next(
            (
                (k, why)
                for k, (p, q) in enumerate(pairs)
                if (why := _disagreement(p, q))
            ),
            None,
        )
        if first is not None:
            notes.append(f"solve {first[0]} differs first: {first[1]}")
        if notes:
            differing += 1
            print(f"differs: {r['run']}: " + "; ".join(notes))
    for name in before:
        print(f"missing run: {name}")
        differing += 1
    print(f"{len(new)} runs, {_solve_counts(new)}, {differing} runs differ")
    print(f"{switched} solves ended on one side and were refused on the other")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("record", "compare"))
    parser.add_argument("path", type=Path, help="solve record (JSON)")
    parser.add_argument("--src", type=Path, default=REPO_SRC,
                        help="src directory holding the probframes to run")
    args = parser.parse_args(argv)
    runs = replay(args.src)
    if args.mode == "record":
        args.path.write_text(json.dumps({"runs": runs}) + "\n")
        print(f"{len(runs)} runs recorded, {_solve_counts(runs)}")
        return 0
    return compare(json.loads(args.path.read_text())["runs"], runs)


if __name__ == "__main__":
    sys.exit(main())
