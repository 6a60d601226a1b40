"""Tests of the benchmark itself.

    python -m pytest perfbench/tests

They need numpy and scipy but not an installed probframes: the
benchmark runs the package from ``src``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_input_bytes(name, tmp_path):
    wl = workloads.WORKLOADS[name]("tiny")
    digests = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / sub).mkdir()
        digests.append(workloads.digest(wl.generate(seed, tmp_path / sub)))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    assert run.tail_percentile(samples) == (90.0, 90.0)
    # 40 samples are the fewest that put the rule's percentile at p75
    assert run.tail_percentile(samples[60:]) == (30.0, run.TAIL_MIN_PCT)
    assert run.tail_percentile(samples[61:])[1] < run.TAIL_MIN_PCT
    value, pct = run.tail_percentile([3.0, 1.0] + [2.0] * 48)
    assert value == 2.0 and pct == pytest.approx(80.0)
    assert run.tail_percentile([1.0, 4.0, 2.0]) == (4.0, 100.0)


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S("cli.main", None, 0, 0.0, 10.0),
        S("perturbation.greedy", 0, 0, 1.0, 4.0),
        S("transport.simplex", 1, 0, 2.0, 3.0, {"cells": 6, "warm": True}),
        S("transport.simplex", 0, 0, 5.0, 6.0, {"cells": 4, "warm": False}),
        # overlaps its sibling and runs past its parent: counted once, clipped
        S("duals.certify", 0, 0, 5.5, 11.0),
    ]
    assert tracing.self_times(spans) == [2.0, 2.0, 1.0, 1.0, 5.5]
    m = tracing.layer_metrics(spans, n_ops=2)
    assert m["cli.main_self_s"] == 1.0
    assert m["perturbation.greedy_self_s"] == 1.0
    assert m["transport.simplex_calls"] == 1.0
    assert m["transport.simplex_warm_calls"] == 0.5
    assert m["transport.simplex_cells"] == 5.0
    assert m["transport.simplex_s"] == 1.0
    assert m["perturbation.greedy_simplex_calls"] == 0.5
    # renumbered parents keep the tree of one op intact
    assert tracing.self_times(tracing.select(spans, 0)) == tracing.self_times(spans)


def test_wrappers_bind_every_namespace_and_restore():
    import probframes.cli  # noqa: F401
    from probframes import measures

    original = measures.group_atoms
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert {"probframes.measures", "probframes.transport"} <= set(
            tracer.bindings("group_atoms")
        )
        assert {
            "probframes.frames", "probframes.duals", "probframes.redundancy",
            "probframes.perturbation", "probframes.cli",
        } <= set(tracer.bindings("analyze"))
        assert tracer.bindings("_transport_simplex") == ["probframes.transport"]
        assert probframes.transport.group_atoms is measures.group_atoms
        assert measures.group_atoms is not original
    finally:
        tracer.restore()
    assert measures.group_atoms is original
    assert probframes.transport.group_atoms is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name):
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        doc = result(proc)
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        assert set(doc["metrics"]) == {m["name"] for m in SPEC[kind]}


def test_traced_counts_repeat_exactly():
    runs = [
        bench("--workload", "mixed_search", "--seed", "4", "--trace", "1",
              "--size", "tiny")
        for _ in range(2)
    ]
    values = [
        {k: v["value"] for k, v in result(p)["metrics"].items()} for p in runs
    ]
    assert tracing.counts(values[0]) == tracing.counts(values[1])
    assert values[0]["transport.fw_iterations"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "w2_cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
