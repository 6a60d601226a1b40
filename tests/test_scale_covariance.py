"""Scale covariance of the command line, as a tested contract.

Every command and mode runs in process on seeded inputs, once as
generated and once with each input scaled by 2^k, k in SCALES. A
power-of-two scale is exact in floats, so the expected answer is known
exactly. A measure's atoms scale by 2^k, and the second marginal of a
dual pair by 2^-k, so that the pair's mixed operator stays the same.
Each float field of a document follows the law LAWS gives it, an
exponent e for a factor 2^(e k): frame bounds and squared costs 4^k,
W2 2^k, dual atoms 2^-k, deviations and mixed operators of dual pairs
unchanged. Every other field (exit code, flag, classification,
redundancy rank, iteration count, dimension) must equal the unscaled
run's.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from probframes.cli import main

SCALES = (-30, -20, -10, 10, 20, 30)
SEEDS = range(12)
# a number x of law e must read 2^(e k) x within RTOL times 2^(e k) and
# the largest |x| of that law in its unscaled document; on these inputs
# every number is in fact 2^(e k) x bit for bit
RTOL = 1e-12


def _prefixed(prefix: str, law: dict) -> dict:
    return {f"{prefix}.{key}": e for key, e in law.items()}


def _measure_law(e: int) -> dict:
    return {"atoms": e, "weights": 0}


def _coupling_law(source: int, target: int) -> dict:
    return {
        **_prefixed("source", _measure_law(source)),
        **_prefixed("target", _measure_law(target)),
        "plan": 0,
    }


CERTIFICATE = {
    "deviation": 0,
    "mixed_operator": 0,
    "dual_lower_bound": -2,
    "dual_upper_bound": -2,
    "tol": 0,
}
DUAL_DOC = {
    **_prefixed("dual", _measure_law(-1)),
    **_prefixed("coupling", _coupling_law(1, -1)),
    **_prefixed("certificate", CERTIFICATE),
}
REPORT = {
    "lambda": 2,
    "lower_bound_estimate": 2,
    **_prefixed("certificate", CERTIFICATE),
    **_prefixed("details", {
        "base_lower_bound": 2,
        "eta_lower_bound": 2,
        "dual_upper_bound": -2,
        "direction_constant": 2,
        "dual_second_moment": -2,
        "displaced_cost": 2,
        "w2": 1,
        "a_n": 2,
        "c_n": -2,
        "subsample_lower_bound": 2,
    }),
}
LAWS = {
    "analyze": {
        "frame_operator": 2,
        "lower_bound": 2,
        "upper_bound": 2,
        "second_moment": 2,
        "redundancy_trace": 0,
    },
    "w2": {"cost": 2, "w2": 1, **_prefixed("plan", _coupling_law(1, 1))},
    "coupling-check": {
        "row_error": 0, "col_error": 0, "mixed_operator": 2, "cost": 2
    },
    "certify": {**CERTIFICATE, "search.residual": 0, "search.gap": 0},
    "canonical-dual": DUAL_DOC,
    "approx-dual": DUAL_DOC,
    "rescue": DUAL_DOC,
    "pushforward": DUAL_DOC,
    "neumann": {
        "sequence.deviation": 0,
        "sequence.error_bound": 0,
        **_prefixed("dual", _measure_law(-1)),
        **_prefixed("coupling", _coupling_law(1, -1)),
    },
    "uncertainty": {"lhs": 0, "rhs": 0},
    "bounds-ineq": {
        "source_lower": 2,
        "source_upper": 2,
        "source_slack": 2,
        "target_lower": -2,
        "target_upper": -2,
        "target_slack": -2,
        "inverse_norm": 0,
    },
    "perturb": {**REPORT, **DUAL_DOC},
    "sample-dual": {
        **REPORT,
        **_prefixed("subsample", _measure_law(1)),
        **_prefixed("dual", _measure_law(-1)),
    },
}


def _measure_doc(atoms, weights) -> dict:
    return {"atoms": atoms.tolist(), "weights": weights.tolist()}


def _graph_doc(atoms, weights, images) -> dict:
    return {
        "source": _measure_doc(atoms, weights),
        "target": _measure_doc(images, weights),
        "plan": np.diag(weights).tolist(),
    }


def write_inputs(seed: int, k: int, root) -> list[list[str]]:
    """One seed's inputs at scale 2^k under root; the argv of each run."""
    folder = root / f"{seed}_{k}"
    folder.mkdir()
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    x = rng.standard_normal((n, 2))
    w = rng.uniform(0.2, 1.0, n)
    w /= w.sum()
    y = rng.standard_normal((int(rng.integers(3, 10)), 2))
    v = rng.uniform(0.2, 1.0, y.shape[0])
    v /= v.sum()
    canonical = x @ np.linalg.inv((x * w[:, None]).T @ x)
    op = np.eye(2) + 0.3 * rng.uniform(-1.0, 1.0, (2, 2))
    eta = x + 0.05 * rng.standard_normal(x.shape)
    # mu and a near copy of its first atom, within the package's merge radius
    dup = np.vstack([x, x[:1] * (1.0 + 2.0**-42)])
    s = 2.0**k
    docs = {
        "mu": _measure_doc(s * x, w),
        "mu_dup": _measure_doc(s * dup, np.append(w, w[:1]) / (1.0 + w[0])),
        "nu": _measure_doc(s * y, v),
        "nu_dual": _measure_doc(y / s, v),
        "eta": _measure_doc(s * eta, w),
        "pair": _graph_doc(s * x, w, canonical @ op / s),
        "exact": _graph_doc(s * x, w, canonical / s),
        "close": _graph_doc(s * eta, w, s * x),
        "operator": op.tolist(),
        "offsets": (0.1 * rng.standard_normal(x.shape) / s).tolist(),
    }
    f = {}
    for name, doc in docs.items():
        f[name] = str(folder / f"{name}.json")
        with open(f[name], "w") as fh:
            json.dump(doc, fh)
    vector = "--vector=" + ",".join(repr(float(t)) for t in rng.standard_normal(2))
    return [
        ["analyze", f["mu"]],
        ["analyze", f["mu_dup"]],
        ["canonical-dual", f["mu_dup"]],
        ["w2", f["mu"], f["nu"]],
        ["coupling-check", f["close"]],
        ["certify", f["pair"]],
        ["certify", f["mu"], f["nu_dual"], "--iters", "50"],
        ["canonical-dual", f["mu"]],
        ["approx-dual", f["mu"], "--operator", f["operator"]],
        ["neumann", f["pair"], "--terms", "2"],
        ["rescue", f["pair"]],
        ["pushforward", f["mu"], "--offsets", f["offsets"]],
        ["uncertainty", f["pair"], vector],
        ["bounds-ineq", f["pair"]],
        ["perturb", f["mu"], f["eta"]],
        ["perturb", f["mu"], f["eta"], "--coupling", f["close"]],
        ["perturb", f["mu"], f["eta"], "--mode", "glue", "--dual", f["exact"]],
        ["perturb", f["mu"], f["eta"], "--mode", "variants", "--dual", f["pair"],
         "--coupling", f["close"]],
        ["perturb", f["mu"], f["eta"], "--mode", "matched", "--dual", f["pair"],
         "--coupling", f["close"]],
        ["sample-dual", f["mu"], "--samples", str(n - 1)],
    ]


def run(argv: list[str]) -> tuple[int, object]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue()) if code in (0, 3) else None


def _leaves(doc, path=()):
    """(dotted key path, value) of every leaf; list indices are not keys."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value, path)
    else:
        yield ".".join(path), doc


def mismatches(base, scaled, law: dict, k: int) -> list[str]:
    """Where scaled breaks the law that takes base to scale 2^k."""
    if [key for key, _ in _leaves(base)] != [key for key, _ in _leaves(scaled)]:
        return ["the documents differ in layout"]
    reach: dict[int, float] = {}
    for key, x in _leaves(base):
        if key in law and x is not None:
            reach[law[key]] = max(reach.get(law[key], 0.0), abs(float(x)))
    found = []
    for (key, x), (_, got) in zip(_leaves(base), _leaves(scaled)):
        if key not in law or x is None or got is None:
            if got != x:
                found.append(f"{key}: {got!r} != {x!r}")
            continue
        factor = 2.0 ** (law[key] * k)
        want = factor * float(x)
        if abs(float(got) - want) > RTOL * factor * reach[law[key]]:
            found.append(f"{key}: {float(got)!r} is not {want!r}")
    return found


def test_every_command_follows_its_power_of_two_scaling_law(tmp_path):
    failures = []
    for seed in SEEDS:
        base = [run(argv) for argv in write_inputs(seed, 0, tmp_path)]
        # every unscaled run prints its document (exit 0, or 3 when a
        # perturbation hypothesis fails), so every field is compared
        assert all(doc is not None for _, doc in base), seed
        for k in SCALES:
            for argv, (code, doc) in zip(write_inputs(seed, k, tmp_path), base):
                scaled_code, scaled = run(argv)
                where = f"seed {seed}, 2^{k}, {' '.join(argv)}"
                if scaled_code != code:
                    failures.append(f"{where}: exit {scaled_code}, unscaled {code}")
                else:
                    found = mismatches(doc, scaled, LAWS[argv[0]], k)
                    failures += [f"{where}: {e}" for e in found]
    assert not failures, "\n".join(failures[:40])
