"""Benchmark of probframes, one workload per invocation.

    python3 perfbench/run.py --workload pipeline_warm --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the workload is set up several times, each time in a
fresh process, and the last of those processes then runs operations in
a closed loop with one client for ``--seconds``. The end-to-end metrics
come from that untraced run. With ``--trace 1`` a fresh process replays
a fixed list of the workload's operations in-process with spans around
each layer's entry points, and the per-layer metrics come from there.

Every output is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"  # inputs (removed after each run) and span files
SETUP_REPS = 5  # set-up runs per measured run; setup_s is their median
RUN_BUDGET_S = 170.0  # every worker of one invocation ends within this
TAIL_BEYOND = 10
TAIL_MIN_PCT = 75.0  # below this the rule's percentile is no tail


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit of the end_to_end or per_layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile that leaves TAIL_BEYOND samples beyond it.

    Returns (value, percentile). The value is the order statistic with
    exactly TAIL_BEYOND larger samples; with too few samples for that,
    the maximum at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based rank of the returned sample
    return ordered[rank - 1], 100.0 * rank / n


class WorkerFailed(Exception):
    pass


def run_worker(args, mode: str, workdir: Path, deadline: float,
               extra: tuple[str, ...] = ()) -> tuple[float, dict]:
    """Start worker.py in a fresh process; return (spawn time, its report)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(workdir),
        "--mode", mode, "--size", args.size, *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its CLI children
        proc.communicate()
        raise WorkerFailed(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0 or not out.strip():
        raise WorkerFailed(
            f"{mode} worker exited {proc.returncode}: {err.decode()[-2000:]}"
        )
    return spawned, json.loads(out.decode().strip().splitlines()[-1])


def measure(args, workdir: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    """Set-ups plus one timed run: (report of the run, metrics, errors)."""
    setups, digests, warm, errors = [], set(), set(), []
    for k in range(SETUP_REPS):
        mode = "run" if k == SETUP_REPS - 1 else "setup"
        spawned, report = run_worker(args, mode, workdir / f"setup{k}", deadline)
        setups.append(report["ready"] - spawned)
        digests.add(report["digest"])
        warm.add(report.get("warm_sha"))
        errors += report.get("errors", [])
    if len(digests) != 1:
        errors.append("set-ups generated different inputs from one seed")
    if len(warm) != 1:
        errors.append("the warm-up op printed different outputs in different set-ups")
    if report["failed"] or not report["latencies"]:
        return report, {}, errors
    lat = report["latencies"]
    metrics = {
        "ops_per_s": len(lat) / report["elapsed"],
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return report, metrics, errors


def describe_run(args, report: dict, metrics: dict, unit: dict):
    attempted, failed = report["attempted"], report["failed"]
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"fail_ratio {failed / attempted:.4g}, "
          f"exact_share {report.get('exact_share', 0.0):.4g}")
    for name, value in metrics.items():
        note = f"  (median of {SETUP_REPS} fresh-process set-ups)" if name == "setup_s" else ""
        print(f"  {name:<16} {value:.6g} {unit[name]}{note}")
    lat = report.get("latencies", [])
    if lat:
        tail, pct = tail_percentile(lat)
        if pct >= TAIL_MIN_PCT:
            print(f"  latency tail     {tail:.6g} s  (p{pct:.1f} of {len(lat)} samples)")
        else:
            print(f"  latency tail     not reported: {len(lat)} samples leave ten "
                  f"beyond p{pct:.1f} only, below p{TAIL_MIN_PCT:.0f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "probframes" / "cli.py").is_file():
        print(f"error: no probframes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.json"
            _, report = run_worker(args, "trace", workdir, deadline, ("--spans", str(spans)))
            errors = report["errors"]
            metrics = report["metrics"]
            unit = units("per_layer")
            print(f"{args.workload} seed {args.seed}: traced {report['attempted']} ops, "
                  f"spans in {spans.relative_to(ROOT)}")
            for name, value in sorted(metrics.items()):
                print(f"  {name:<34} {value:.6g} {unit[name]}")
        else:
            report, metrics, errors = measure(args, workdir, deadline)
            unit = units("end_to_end")
            describe_run(args, report, metrics, unit)
        attempted, failed = report["attempted"], report["failed"]
    except WorkerFailed as exc:
        errors, metrics, unit, attempted, failed = [str(exc)], {}, {}, 1, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in errors:
        print(f"FAILED: {line}", file=sys.stderr)
    correct = not errors and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
