"""One workload in a fresh Python process.

``run.py`` starts this script once per set-up and once per measured or
traced run. It prints one JSON object as the last line of its standard
output. Modes:

- ``setup``: generate and write the seeded inputs, run the first
  operation untimed as the warm-up, report when the first timed
  operation could start;
- ``run``: set up, then run operations in a closed loop with one client
  for the given seconds (and at least MIN_OPS operations), then check
  every output;
- ``trace``: set up, then replay a fixed list of operations in-process,
  each once untraced and once traced, write the spans to a file and report
  per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

OP_TIMEOUT_S = 60.0
MIN_OPS = 9  # the median of a timed run rests on at least this many ops
TRACE_OPS = 6
IMPORT_REPS = 3


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


@dataclass
class Result:
    """Outcome of one operation."""

    latency: float
    ok: bool
    out: object = None  # stdout bytes of a CLI op, the result otherwise
    rss_mb: float = 0.0
    error: str = ""


def run_cli(argv: list[str], env: dict) -> Result:
    """Run one CLI command as a child process; its peak RSS comes from wait4."""
    timed_out = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "probframes.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(OP_TIMEOUT_S, kill)
    timer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    latency = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    rss = usage.ru_maxrss / 1024.0
    if timed_out.is_set():
        return Result(latency, False, out, rss, f"timed out after {OP_TIMEOUT_S} s")
    if code != 0:
        return Result(latency, False, out, rss, f"exit {code}: {err.decode()[-500:]}")
    return Result(latency, True, out, rss)


def run_in_process(wl, op) -> Result:
    t0 = time.perf_counter()
    try:
        result = wl.run(op)
    except Exception:
        return Result(time.perf_counter() - t0, False, error=traceback.format_exc())
    return Result(time.perf_counter() - t0, True, result)


def execute(wl, op, env) -> Result:
    return run_in_process(wl, op) if wl.in_process else run_cli(op.argv, env)


def output_bytes(wl, res: Result) -> bytes:
    return wl.render(res.out) if wl.in_process else res.out


def check_outputs(wl, ops, results):
    """Independent checks of every successful output; a failed check
    marks its op as failed."""
    for k, res in enumerate(results):
        if not res.ok:
            continue
        op = ops[k % len(ops)]
        try:
            problems = wl.check(op, res.out)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            res.ok = False
            res.error = "; ".join(problems)


def setup(wl, seed: int, workdir: Path, env: dict):
    if wl.in_process:
        import probframes  # noqa: F401  the fresh-process import is set-up work
    workdir.mkdir(parents=True, exist_ok=True)
    ops = wl.generate(seed, workdir)
    warm = execute(wl, ops[0], env)
    return ops, warm


def mode_run(wl, args, env) -> dict:
    ops, warm = setup(wl, args.seed, Path(args.workdir), env)
    ready = time.monotonic()
    report = {"ready": ready, "digest": workloads.digest(ops)}
    if not warm.ok:
        report.update(attempted=1, failed=1, errors=[f"warm-up: {warm.error}"])
        return report
    report["warm_sha"] = hashlib.sha256(output_bytes(wl, warm)).hexdigest()
    if args.mode == "setup":
        return report

    results: list[Result] = []
    start = time.perf_counter()
    while True:
        results.append(execute(wl, ops[len(results) % len(ops)], env))
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(results) >= MIN_OPS:
            break
    check_outputs(wl, ops, results)
    # the warm-up ran op 0 already: the first timed op is its re-run
    if results[0].ok and output_bytes(wl, results[0]) != output_bytes(wl, warm):
        results[0].ok = False
        results[0].error = "output differs between warm-up and re-run"
    if wl.in_process:
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    else:
        rss = [r.rss_mb for r in results]
    report.update(
        elapsed=elapsed,
        latencies=[r.latency for r in results if r.ok],
        attempted=len(results),
        failed=sum(not r.ok for r in results),
        peak_rss_mb=max(rss),
        exact_share=sum(
            r.ok and wl.classification(r.out) == "exact" for r in results
        ) / len(results),
        errors=[f"op {k}: {r.error}" for k, r in enumerate(results) if not r.ok],
    )
    return report


def import_seconds(env: dict) -> float:
    """Median wall time of a fresh ``import probframes.cli`` minus a bare start."""
    diffs = []
    for _ in range(IMPORT_REPS):
        walls = []
        for code in ("pass", "import probframes.cli"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            walls.append(time.perf_counter() - t0)
        diffs.append(walls[1] - walls[0])
    return float(np.median(diffs))


def replay(wl, op, tracer=None):
    """One op in-process: (wall seconds, output). The output is the CLI's
    stdout bytes, or the result object of an in-process op."""
    if wl.in_process:
        t0 = time.perf_counter()
        result = wl.run(op)
        return time.perf_counter() - t0, result
    from probframes import cli

    main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(op.argv)
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"cli.main({op.argv}) returned {code}")
    return wall, buf.getvalue().encode()


def traced(wl, op, tracer):
    tracer.install()
    try:
        return replay(wl, op, tracer)
    finally:
        tracer.restore()


def mode_trace(wl, args, env) -> dict:
    import probframes.cli  # noqa: F401  load every module before rebinding

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = wl.generate(args.seed, workdir)[:TRACE_OPS]
    replay(wl, ops[0])  # warm-up

    tracer = tracing.Tracer(keep_results=("transport.fw",))
    walls, plain, outs = [0.0, 0.0], [], []
    for k, op in enumerate(ops):
        tracer.op = k
        # alternate which of the two runs of an op goes first, so that
        # neither always gets the warmer caches
        for is_traced in (k % 2 == 1, k % 2 == 0):
            wall, out = traced(wl, op, tracer) if is_traced else replay(wl, op)
            walls[is_traced] += wall
            (outs if is_traced else plain).append(out)
    metrics = tracing.layer_metrics(tracer.spans, len(ops))
    metrics["exact_share"] = sum(wl.classification(o) == "exact" for o in outs) / len(ops)

    problems = [wl.check(op, out) for op, out in zip(ops, outs)]
    for s in tracer.spans:
        if s.name == "transport.fw":
            plan = np.asarray(s.result.coupling.plan)
            problems[s.op] += wl.check_plan(ops[s.op], outs[s.op], plan)
    # rendering stays outside the traced section: pipeline_warm renders nothing
    if wl.in_process:
        plain, outs = [wl.render(r) for r in plain], [wl.render(r) for r in outs]
    elif run_cli(ops[0].argv, env).out != outs[0]:
        problems[0].append("CLI stdout differs from the traced in-process stdout")
    for k, (a, b) in enumerate(zip(plain, outs)):
        if a != b:
            problems[k].append("traced output differs from untraced output")
    again = tracing.Tracer()
    again.op = 0
    traced(wl, ops[0], again)
    first = tracing.layer_metrics(tracing.select(tracer.spans, 0), 1)
    if tracing.counts(tracing.layer_metrics(again.spans, 1)) != tracing.counts(first):
        problems[0].append("counts differ between two traced replays")

    tracing.write_spans(tracer.spans, Path(args.spans))
    metrics["cli.import_s"] = import_seconds(env)
    metrics["trace.overhead_ratio"] = walls[1] / walls[0]
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": sum(bool(p) for p in problems),
        "errors": [f"op {k}: {'; '.join(p)}" for k, p in enumerate(problems) if p],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.size)
    env = cli_env()
    report = mode_trace(wl, args, env) if args.mode == "trace" else mode_run(wl, args, env)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
