"""Spans around the entry points of each probframes layer.

The wrappers live in the benchmark, not in the package: ``install``
rebinds an entry point in every probframes module namespace that holds
it (``from .x import f`` copies the binding), and ``Tracer.restore``
puts every original back. Spans stay in memory; ``layer_metrics`` turns
them into per-operation counts and times.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
import time
from dataclasses import dataclass, field, replace

# (module, attribute, span name, what to record from the call)
ENTRY_POINTS = (
    ("transport", "_transport_simplex", "transport.simplex", "simplex"),
    ("transport", "solve_w2", "transport.solve_w2", None),
    ("transport", "optimize_mixed_operator", "transport.fw", "fw"),
    ("perturbation", "greedy_subsample", "perturbation.greedy", None),
    ("perturbation", "discrete_dual_pipeline", "perturbation.pipeline", None),
    ("measures", "group_atoms", "measures.group_atoms", "atoms"),
    ("measures", "measure_from_dict", "measures.from_dict", None),
    ("frames", "analyze", "frames.analyze", None),
    ("numerics", "eig_sym", "numerics.eig_sym", None),
    ("numerics", "inverse", "numerics.inverse", None),
    ("numerics", "numeric_rank", "numerics.numeric_rank", None),
    ("numerics", "spectral_norm", "numerics.spectral_norm", None),
    ("duals", "certify", "duals.certify", None),
    ("jsonio", "dumps", "jsonio.dumps", "bytes"),
)


def _note(kind, args, kwargs, result) -> dict:
    if kind == "simplex":
        cost = args[2] if len(args) > 2 else kwargs["cost"]
        start = args[3] if len(args) > 3 else kwargs.get("start")
        return {"cells": cost.shape[0] * cost.shape[1], "warm": start is not None}
    if kind == "fw":
        return {"iterations": result.iterations}
    if kind == "atoms":
        return {"atoms": (args[0] if args else kwargs["atoms"]).shape[0]}
    if kind == "bytes":
        return {"bytes": len(result.encode())}
    return {}


@dataclass
class Span:
    name: str
    parent: int | None
    op: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)
    result: object = None


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self, keep_results: tuple[str, ...] = ()):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._keep = set(keep_results)
        self._bound: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, kind: str | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if kind:
                span.info = _note(kind, args, kwargs, result)
            if name in self._keep:
                span.result = result
            return result

        return traced

    def install(self):
        """Rebind every entry point in each probframes namespace holding it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "probframes" or key.startswith("probframes."))
        ]
        for module_name, attr, name, kind in ENTRY_POINTS:
            original = getattr(sys.modules[f"probframes.{module_name}"], attr)
            wrapper = self.wrap(name, original, kind)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._bound.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def bindings(self, attr: str) -> list[str]:
        """Names of the modules in which ``attr`` is currently wrapped."""
        return sorted(m.__name__ for m, a, _ in self._bound if a == attr)


def select(spans: list[Span], op: int) -> list[Span]:
    """The spans of one operation, with parent links renumbered."""
    index: dict[int, int] = {}
    out = []
    for i, s in enumerate(spans):
        if s.op == op:
            index[i] = len(out)
            out.append(replace(s, parent=index.get(s.parent)))
    return out


def write_spans(spans: list[Span], path: Path):
    """Spans as JSON rows [name, op, parent, start, end, info], with times
    in seconds from the first span's start."""
    t0 = spans[0].start if spans else 0.0
    rows = [[s.name, s.op, s.parent, s.start - t0, s.end - t0, s.info] for s in spans]
    path.write_text(json.dumps(rows))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, cursor), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


# per-layer metric -> (span name, statistic); statistics are "calls",
# "total" (inclusive seconds), "self" (seconds) or an info key to sum
LAYER_METRICS = {
    "transport.simplex_calls": ("transport.simplex", "calls"),
    "transport.simplex_warm_calls": ("transport.simplex", "warm"),
    "transport.simplex_cells": ("transport.simplex", "cells"),
    "transport.simplex_s": ("transport.simplex", "total"),
    "transport.solve_w2_self_s": ("transport.solve_w2", "self"),
    "transport.fw_iterations": ("transport.fw", "iterations"),
    "transport.fw_self_s": ("transport.fw", "self"),
    "perturbation.greedy_self_s": ("perturbation.greedy", "self"),
    "perturbation.pipeline_self_s": ("perturbation.pipeline", "self"),
    "measures.group_atoms_calls": ("measures.group_atoms", "calls"),
    "measures.group_atoms_atoms": ("measures.group_atoms", "atoms"),
    "measures.group_atoms_s": ("measures.group_atoms", "total"),
    "measures.from_dict_s": ("measures.from_dict", "total"),
    "frames.analyze_calls": ("frames.analyze", "calls"),
    "frames.analyze_s": ("frames.analyze", "total"),
    "numerics.eig_sym_calls": ("numerics.eig_sym", "calls"),
    "numerics.eig_sym_s": ("numerics.eig_sym", "total"),
    "numerics.inverse_calls": ("numerics.inverse", "calls"),
    "numerics.inverse_s": ("numerics.inverse", "total"),
    "numerics.numeric_rank_s": ("numerics.numeric_rank", "total"),
    "numerics.spectral_norm_s": ("numerics.spectral_norm", "total"),
    "duals.certify_calls": ("duals.certify", "calls"),
    "duals.certify_self_s": ("duals.certify", "self"),
    "jsonio.dumps_calls": ("jsonio.dumps", "calls"),
    "jsonio.dumps_bytes": ("jsonio.dumps", "bytes"),
    "jsonio.dumps_s": ("jsonio.dumps", "total"),
    "cli.main_self_s": ("cli.main", "self"),
}


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-operation means of every metric in LAYER_METRICS, plus the
    simplex calls made directly by the greedy subsample search."""
    selfs = self_times(spans)
    out = {}
    for metric, (name, stat) in LAYER_METRICS.items():
        total = 0.0
        for s, self_s in zip(spans, selfs):
            if s.name != name:
                continue
            if stat == "calls":
                total += 1
            elif stat == "total":
                total += s.end - s.start
            elif stat == "self":
                total += self_s
            else:
                total += s.info[stat]
        out[metric] = total / n_ops
    out["perturbation.greedy_simplex_calls"] = sum(
        1 for s in spans
        if s.name == "transport.simplex" and s.parent is not None
        and spans[s.parent].name == "perturbation.greedy"
    ) / n_ops
    return out


COUNT_SUFFIXES = ("_calls", "_cells", "_atoms", "_bytes", "fw_iterations")


def counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly between runs with one seed."""
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}

