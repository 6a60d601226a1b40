"""Golden sweep of the probframes command line.

Runs ``probframes.cli.main(argv)`` in-process over every command and
bundled fixture, plus generated inputs (duplicate atoms, perturbed
copies, m != n couplings, malformed documents), and records for each
run its exit code, the SHA-256 of its stdout and its stderr text.
Generated inputs are written under a fresh working directory and named
by relative path, so stderr does not depend on where a checkout lives.

    python tools/golden_sweep.py record OUT.json [--src DIR]
    python tools/golden_sweep.py compare OUT.json [--src DIR]

``--src`` selects the ``src`` directory whose ``probframes`` is swept
(default: the one next to this script). Record at the parent commit,
then compare at the change; ``compare`` prints every run whose exit
code, stdout or stderr differs and exits 1 if there is one. Float bits
may differ between BLAS builds, so compare only sweeps made on one
machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

MEASURE_FIXTURES = (
    "dirac_one",
    "dirac_zero",
    "mean_one_pair",
    "mean_one_triple",
    "small_pair",
    "axes_2d",
    "sym_pair_1d",
    "near_dirac_pair",
    "shifted_gauss_100",
)
COUPLING_FIXTURES = ("permuted_axes_coupling",)


def _measure_doc(atoms, weights) -> dict:
    atoms = np.asarray(atoms, dtype=float)
    return {
        "dim": atoms.shape[1],
        "atoms": atoms.tolist(),
        "weights": np.asarray(weights, dtype=float).tolist(),
    }


def _weights(rng, n: int) -> np.ndarray:
    w = rng.uniform(0.2, 1.0, n)
    return w / w.sum()


def _graph_doc(atoms, weights, images) -> dict:
    """Coupling of a measure with its image under an injective map."""
    return {
        "source": _measure_doc(atoms, weights),
        "target": _measure_doc(images, weights),
        "plan": np.diag(weights).tolist(),
    }


def _dual_images(atoms, weights, op=None) -> np.ndarray:
    """Atoms pushed through S^{-1} (and op, when given)."""
    s = (atoms * weights[:, None]).T @ atoms
    images = atoms @ np.linalg.inv(s)
    return images if op is None else images @ op


def _equality_case():
    """A seeded 3-atom 2-D measure (atoms, weights) and the text of
    1e3 times an eigenvector of its frame operator S, at which its
    canonical-dual coupling meets the uncertainty inequality with
    equality: both sides are |f|^4 = 1e12 up to rounding."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 2))
    w = _weights(rng, 3)
    f = 1e3 * np.linalg.eigh((x * w[:, None]).T @ x)[1][:, 0]
    return x, w, ",".join(repr(float(t)) for t in f)


def write_inputs(root: Path) -> dict[str, list[str]]:
    """Write the generated documents under root; return paths by kind."""
    rng = np.random.default_rng(2024)
    files: dict[str, object] = {}
    groups: dict[str, list[str]] = {
        "measure": [], "coupling": [], "matrix": [], "bad": [], "subsample": [],
        "high_dim": [], "interior": [], "large": [], "refused": [],
        "rounding": [],
    }

    def put(kind: str, name: str, doc):
        path = f"{root.name}/{name}.json"
        files[path] = doc
        groups[kind].append(path)

    # measures: non-adjacent duplicates, 3-D, near copies, a cloud
    dup2 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 2.0], [0.0, 1.0]])
    put("measure", "dup_2d", _measure_doc(dup2, _weights(rng, 5)))
    dup3 = rng.standard_normal((6, 3))
    dup3[4] = dup3[1]
    put("measure", "dup_3d", _measure_doc(dup3, _weights(rng, 6)))
    cloud = rng.standard_normal((9, 2))
    cloud_w = _weights(rng, 9)
    put("measure", "cloud_2d", _measure_doc(cloud, cloud_w))
    put("measure", "cloud_2d_near",
        _measure_doc(cloud + 1e-3 * rng.standard_normal(cloud.shape), cloud_w))
    put("measure", "cloud_2d_far", _measure_doc(3.0 * cloud + 1.0, cloud_w))
    small = rng.standard_normal((4, 2))
    put("measure", "small_2d", _measure_doc(small, _weights(rng, 4)))
    axes = np.array([[1.0, 0.0], [0.0, 1.0]])
    put("measure", "axes_2d_near",
        _measure_doc(axes + np.array([[0.01, -0.02], [0.015, 0.005]]), [0.5, 0.5]))
    put("measure", "string_weights",
        {"atoms": [[0.5], [1.5]], "weights": ["0.5", "0.5"]})

    # a larger 3-D cloud for the greedy swap search only: a fifth of its
    # 60 atoms repeat others exactly (own generator, so the inputs above
    # do not move)
    dup_rng = np.random.default_rng(60)
    cloud3 = dup_rng.standard_normal((60, 3))
    cloud3[48:] = cloud3[dup_rng.choice(48, 12, replace=False)]
    put("subsample", "dup_cloud_3d", _measure_doc(cloud3, _weights(dup_rng, 60)))

    # a 6x6 lattice at scale 100 with 7 of its atoms repeated, uniform and
    # skewed: swaps of equal W2 abound, so ties in the warm-started swap
    # solves are common (own generator)
    lattice_rng = np.random.default_rng(36)
    grid = 100.0 * np.array([(x, y) for x in range(6) for y in range(6)], dtype=float)
    lattice = np.vstack([grid, grid[lattice_rng.choice(36, 7, replace=False)]])
    put("subsample", "lattice_dup", _measure_doc(lattice, np.full(43, 1.0 / 43)))
    put("subsample", "lattice_dup_skewed",
        _measure_doc(lattice, _weights(lattice_rng, 43)))

    # 9-D clouds (own generator, so the inputs above do not move), and two
    # 9-D points whose squared coordinate gaps are 1 and eight times 2**-54:
    # summed coordinate by coordinate they give 1, summed in pairs 1 + 2**-52
    high_rng = np.random.default_rng(9)
    for name in ("cloud_9d", "cloud_9d_other"):
        put("high_dim", name,
            _measure_doc(high_rng.standard_normal((30, 9)), _weights(high_rng, 30)))
    put("high_dim", "point_9d", _measure_doc(np.zeros((1, 9)), [1.0]))
    put("high_dim", "point_9d_gaps", _measure_doc([[1.0] + [2.0**-27] * 8], [1.0]))

    # pairs with an exact dual plan strictly inside the coupling polytope
    # (own generator): nu's atoms are pinv(x^T P) for a positive coupling
    # P of mu, so certify mu nu can reach the identity exactly
    interior_rng = np.random.default_rng(8)
    for n, d in ((8, 2), (15, 3)):
        x = interior_rng.standard_normal((n, d))
        w = _weights(interior_rng, n)
        q = interior_rng.uniform(0.5, 1.5, (n, n))
        plan = q * (w / q.sum(axis=1))[:, None]
        v = plan.sum(axis=0)
        put("interior", f"interior_{n}x{d}_mu", _measure_doc(x, w))
        put("interior", f"interior_{n}x{d}_nu",
            _measure_doc(np.linalg.pinv(x.T @ plan), v / v.sum()))

    # an 8x2 pair built like the interior pairs, with every coordinate at
    # scale 1e3 (own generator): its mixed operators are of order 1e6
    # against the identity target, so Wolfe's gap starts near 1e12
    scaled_rng = np.random.default_rng(1000)
    x = 1e3 * scaled_rng.standard_normal((8, 2))
    w = _weights(scaled_rng, 8)
    q = scaled_rng.uniform(0.5, 1.5, (8, 8))
    plan = q * (w / q.sum(axis=1))[:, None]
    v = plan.sum(axis=0)
    put("interior", "scaled_8x2_mu", _measure_doc(x, w))
    put("interior", "scaled_8x2_nu",
        _measure_doc(1e6 * np.linalg.pinv(x.T @ plan), v / v.sum()))

    # two 200-atom non-uniform 2-D clouds, each with a tenth of its atoms
    # repeating others exactly, for one cold 200 x 200 simplex solve (own
    # generator)
    large_rng = np.random.default_rng(200)
    for name in ("cloud_200_a", "cloud_200_b"):
        atoms = large_rng.standard_normal((200, 2))
        atoms[180:] = atoms[large_rng.choice(180, 20, replace=False)]
        put("large", name, _measure_doc(atoms, _weights(large_rng, 200)))

    # a pair built like tests/test_transport.py::interior_pair, seeded 13:
    # an exact dual plan lies inside the polytope, but the search stops on
    # its relative gap and certifies "approximate"
    found_rng = np.random.default_rng(13)
    x = found_rng.standard_normal((15, 3))
    w = found_rng.uniform(0.5, 1.5, 15)
    w /= w.sum()
    q = found_rng.uniform(0.5, 1.5, (15, 15))
    plan = q * (w / q.sum(axis=1))[:, None]
    v = plan.sum(axis=0)
    put("interior", "found_15x3_mu", _measure_doc(x, w))
    put("interior", "found_15x3_nu",
        _measure_doc(np.linalg.pinv(x.T @ plan), v / v.sum()))

    # results whose rounding grows with the coordinates: a 4-atom 2-D
    # measure at scale 1e4, perturbed by itself (own generator), and the
    # canonical-dual coupling of _equality_case's measure
    bound_rng = np.random.default_rng(2)
    put("rounding", "scaled_4x2",
        _measure_doc(1e4 * bound_rng.standard_normal((4, 2)), _weights(bound_rng, 4)))
    x, w, _ = _equality_case()
    put("rounding", "equality_dual", _graph_doc(x, w, _dual_images(x, w)))
    # one seeded 4-atom 2-D frame at scale 1e-6, and the canonical-dual
    # coupling of the same frame at scale 1e4 (own generator): a frame at
    # every scale, whose canonical pair meets both bound inequalities with
    # equality
    scale_rng = np.random.default_rng(1)
    x, w = scale_rng.standard_normal((4, 2)), _weights(scale_rng, 4)
    put("rounding", "tiny_4x2", _measure_doc(1e-6 * x, w))
    put("rounding", "scaled_dual_4x2",
        _graph_doc(1e4 * x, w, _dual_images(1e4 * x, w)))
    # one seeded 4-atom 2-D frame at the exact scales 2^-40 and 2^40, and a
    # redundant 6-atom 2-D measure at 2^-20 with offsets at its dual atoms'
    # scale 2^20 (own generator): what merges and what matches must not
    # depend on the scale
    pow2_rng = np.random.default_rng(40)
    x, w = pow2_rng.standard_normal((4, 2)), _weights(pow2_rng, 4)
    for name, k in (("pow2_m40_4x2", -40), ("pow2_p40_4x2", 40)):
        put("rounding", name, _measure_doc(2.0**k * x, w))
    x, w = pow2_rng.standard_normal((6, 2)), _weights(pow2_rng, 6)
    put("rounding", "pow2_m20_6x2", _measure_doc(2.0**-20 * x, w))
    put("matrix", "offsets_pow2_m20_6x2",
        {"entries": (2.0**20 * pow2_rng.standard_normal((6, 2))).tolist()})
    # one seeded 40 x 30 non-uniform 2-D pair at the exact scales 2^-20 and
    # 2^-30, and a seeded 40-point 2-D cloud at 2^-30 (own generator): the
    # W2 plan and the subsample must not depend on the scale
    w2_rng = np.random.default_rng(4030)
    x, y = w2_rng.standard_normal((40, 2)), w2_rng.standard_normal((30, 2))
    wx, wy = _weights(w2_rng, 40), _weights(w2_rng, 30)
    for k in (20, 30):
        put("rounding", f"pow2_m{k}_40x2", _measure_doc(2.0**-k * x, wx))
        put("rounding", f"pow2_m{k}_30x2", _measure_doc(2.0**-k * y, wy))
    put("rounding", "pow2_m30_cloud",
        _measure_doc(2.0**-30 * w2_rng.standard_normal((40, 2)), _weights(w2_rng, 40)))

    # couplings: exact and approximate duals, products, m != n
    put("coupling", "cloud_dual",
        _graph_doc(cloud, cloud_w, _dual_images(cloud, cloud_w)))
    near_id = np.array([[0.85, 0.1], [-0.05, 0.9]])
    put("coupling", "cloud_approx",
        _graph_doc(cloud, cloud_w, _dual_images(cloud, cloud_w, near_id)))
    put("coupling", "axes_dual", _graph_doc(axes, [0.5, 0.5], axes * 2.0))
    w_small = _weights(rng, 4)
    put("coupling", "product_9x4", {
        "source": _measure_doc(cloud, cloud_w),
        "target": _measure_doc(small, w_small),
        "plan": np.outer(cloud_w, w_small).tolist(),
    })
    put("coupling", "dup3_dual",
        _graph_doc(dup3, _weights(rng, 6), 0.5 * dup3 + 0.01))

    # operators and offsets
    put("matrix", "op_1d", {"entries": [[0.9]]})
    put("matrix", "op_2d", {"entries": near_id.tolist()})
    put("matrix", "op_3d", {"entries": (0.8 * np.eye(3)).tolist()})
    put("matrix", "offsets_cloud",
        {"entries": (0.1 * rng.standard_normal((9, 2))).tolist()})

    # malformed documents: each must be rejected as bad input
    put("bad", "dim_null", {"dim": None, "atoms": [[1.0]], "weights": [1.0]})
    put("bad", "dim_list", {"dim": [2], "atoms": [[1.0, 0.0]], "weights": [1.0]})
    put("bad", "dim_wrong", {"dim": 3, "atoms": [[1.0, 0.0]], "weights": [1.0]})
    put("bad", "atoms_object", {"atoms": {"x": 1.0}, "weights": [1.0]})
    put("bad", "atoms_ragged", {"atoms": [[1.0, 0.0], [1.0]], "weights": [0.5, 0.5]})
    put("bad", "atoms_text", {"atoms": [["a"]], "weights": [1.0]})
    put("bad", "weights_object", {"atoms": [[1.0]], "weights": {"w": 1.0}})
    put("bad", "weights_text", {"atoms": [[1.0]], "weights": ["heavy"]})
    put("bad", "weights_sum", {"atoms": [[1.0], [2.0]], "weights": [0.5, 0.6]})
    put("bad", "weights_negative", {"atoms": [[1.0], [2.0]], "weights": [1.5, -0.5]})
    put("bad", "no_atoms", {"weights": [1.0]})
    put("bad", "empty_atoms", {"atoms": [], "weights": []})
    put("bad", "empty_atoms_uniform", {"atoms": []})
    put("bad", "not_object", [1, 2, 3])
    put("bad", "plan_object", {
        "source": _measure_doc(axes, [0.5, 0.5]),
        "target": _measure_doc(axes, [0.5, 0.5]),
        "plan": {"p": 1.0},
    })
    put("bad", "plan_shape", {
        "source": _measure_doc(axes, [0.5, 0.5]),
        "target": _measure_doc(axes, [0.5, 0.5]),
        "plan": [[0.5, 0.5]],
    })
    put("bad", "plan_marginals", {
        "source": _measure_doc(axes, [0.5, 0.5]),
        "target": _measure_doc(axes, [0.5, 0.5]),
        "plan": [[0.5, 0.1], [0.0, 0.4]],
    })
    put("bad", "operator_atoms_object", {"atoms": {"x": 1.0}})
    put("bad", "operator_text", {"entries": [["a", "b"], ["c", "d"]]})
    # bad input that only some commands reach: finite coordinates whose
    # squares overflow, and atoms without a coordinate
    put("refused", "huge_1d",
        _measure_doc([[1e160], [-2e160], [3e160]], [0.25, 0.25, 0.5]))
    put("refused", "zero_dim", {"atoms": [[]]})

    root.mkdir(parents=True)
    for path, doc in files.items():
        Path(path).write_text(json.dumps(doc))
    (root / "directory").mkdir()
    (root / "broken.json").write_text("{not json")
    return groups


def sweep_argvs(groups: dict[str, list[str]], root: str) -> list[list[str]]:
    """Every command over the fixtures and the generated inputs."""

    def gen(name: str) -> str:
        return f"{root}/{name}.json"

    measures = list(MEASURE_FIXTURES) + groups["measure"]
    couplings = list(COUPLING_FIXTURES) + groups["coupling"]
    bad = groups["bad"] + [f"{root}/directory", gen("broken"), "no_such_fixture"]
    dims = {
        "dirac_one": 1, "dirac_zero": 1, "mean_one_pair": 1, "mean_one_triple": 1,
        "small_pair": 1, "sym_pair_1d": 1, "near_dirac_pair": 1,
        "axes_2d": 2, "shifted_gauss_100": 2,
        gen("dup_3d"): 3, gen("string_weights"): 1,
    }
    operator = {1: gen("op_1d"), 2: gen("op_2d"), 3: gen("op_3d")}
    argvs: list[list[str]] = []
    for m in measures:
        dim = dims.get(m, 2)
        argvs += [
            ["analyze", m],
            ["analyze", m, "--output", "text"],
            ["canonical-dual", m],
            ["canonical-dual", m, "--output", "text"],
            ["approx-dual", m, "--operator", operator[dim]],
            ["pushforward", m],
            ["w2", m, m],
            ["certify", m, m, "--iters", "200"],
            ["perturb", m, m, "--mode", "bound"],
        ]
        samples = "10" if m == "shifted_gauss_100" else "3"
        argvs.append(["sample-dual", m, "--samples", samples])
    for i, a in enumerate(measures):
        for b in measures[i + 1:]:
            if dims.get(a, 2) == dims.get(b, 2):
                argvs.append(["w2", a, b])
                argvs.append(["perturb", a, b, "--mode", "bound"])
    argvs += [
        ["certify", "axes_2d", gen("axes_2d_near"), "--iters", "500"],
        ["certify", gen("cloud_2d"), gen("small_2d"), "--iters", "300"],
        ["certify", gen("interior_8x2_mu"), gen("interior_8x2_nu")],
        ["certify", gen("interior_15x3_mu"), gen("interior_15x3_nu")],
        ["certify", gen("scaled_8x2_mu"), gen("scaled_8x2_nu")],
        ["w2", gen("cloud_200_a"), gen("cloud_200_b")],
        ["sample-dual", "shifted_gauss_100", "--samples", "12", "--a-n", "0.3"],
        ["sample-dual", "shifted_gauss_100", "--samples", "16"],
        ["sample-dual", "shifted_gauss_100", "--samples", "20"],
        ["sample-dual", "shifted_gauss_100", "--samples", "30"],
        ["sample-dual", gen("dup_cloud_3d"), "--samples", "12"],
        ["sample-dual", gen("lattice_dup"), "--samples", "8"],
        ["sample-dual", gen("lattice_dup_skewed"), "--samples", "8"],
        ["sample-dual", gen("cloud_2d"), "--samples", "5"],
        ["pushforward", gen("cloud_2d"), "--offsets", gen("offsets_cloud")],
        ["pushforward", "axes_2d", "--offsets", gen("offsets_cloud")],
        ["approx-dual", "axes_2d", "--operator", gen("op_3d")],
        ["approx-dual", "axes_2d", "--operator", "axes_2d"],
        ["analyze", gen("cloud_9d")],
        ["w2", gen("cloud_9d"), gen("cloud_9d_other")],
        ["w2", gen("point_9d"), gen("point_9d_gaps")],
        ["canonical-dual", gen("cloud_9d")],
        ["sample-dual", gen("cloud_9d"), "--samples", "12"],
    ]
    for c in couplings:
        argvs += [
            ["coupling-check", c],
            ["certify", c],
            ["certify", c, "--tol", "1e-3", "--output", "text"],
            ["neumann", c, "--terms", "3"],
            ["rescue", c],
            ["uncertainty", c, "--vector", "1,0"],
            ["uncertainty", c, "--vector", "0.3,-2"],
            ["bounds-ineq", c],
        ]
    # perturbation reports against an exact dual coupling of the base
    for mode in ("bound", "glue", "variants", "matched"):
        for base, eta, dual in (
            (gen("cloud_2d"), gen("cloud_2d_near"), gen("cloud_dual")),
            (gen("cloud_2d"), gen("cloud_2d_far"), gen("cloud_dual")),
            (gen("cloud_2d"), gen("cloud_2d_near"), gen("cloud_approx")),
            ("axes_2d", gen("axes_2d_near"), gen("axes_dual")),
            ("axes_2d", "axes_2d", "permuted_axes_coupling"),
        ):
            argvs.append(["perturb", base, eta, "--mode", mode, "--dual", dual])
    argvs += [
        ["perturb", "axes_2d", "axes_2d", "--mode", "glue", "--dual",
         gen("axes_dual"), "--coupling", "permuted_axes_coupling"],
        ["perturb", "axes_2d", "axes_2d", "--mode", "glue"],
    ]
    # malformed input through every reader
    for b in bad:
        argvs += [
            ["analyze", b],
            ["w2", b, "axes_2d"],
            ["coupling-check", b],
            ["certify", b],
            ["approx-dual", "axes_2d", "--operator", b],
            ["pushforward", "axes_2d", "--offsets", b],
            ["perturb", "axes_2d", "axes_2d", "--mode", "glue", "--dual", b],
        ]
    argvs += [
        ["certify", "axes_2d", "axes_2d", "axes_2d"],
        ["certify", "axes_2d", "axes_2d", "--iters", "0"],
        ["neumann", "permuted_axes_coupling", "--terms", "-1"],
        ["uncertainty", "permuted_axes_coupling", "--vector", "1"],
        ["uncertainty", "permuted_axes_coupling", "--vector", "x,y"],
        ["sample-dual", "axes_2d", "--samples", "1"],
        ["analyze"],
        ["no-such-command"],
        ["w2", gen("huge_1d"), gen("huge_1d")],
        ["certify", gen("huge_1d"), gen("huge_1d")],
        ["analyze", gen("huge_1d")],
        ["analyze", gen("zero_dim")],
        ["certify", gen("found_15x3_mu"), gen("found_15x3_nu")],
        ["perturb", gen("scaled_4x2"), gen("scaled_4x2"), "--mode", "bound"],
        ["analyze", gen("tiny_4x2")],
        ["canonical-dual", gen("tiny_4x2")],
        ["bounds-ineq", gen("scaled_dual_4x2")],
        ["analyze", gen("pow2_m40_4x2")],
        ["canonical-dual", gen("pow2_m40_4x2")],
        ["analyze", gen("pow2_p40_4x2")],
        ["canonical-dual", gen("pow2_p40_4x2")],
        ["pushforward", gen("pow2_m20_6x2"), "--offsets", gen("offsets_pow2_m20_6x2")],
        ["w2", gen("pow2_m20_40x2"), gen("pow2_m20_30x2")],
        ["w2", gen("pow2_m30_40x2"), gen("pow2_m30_30x2")],
        ["sample-dual", gen("pow2_m30_cloud"), "--samples", "24"],
        # negative exactness tolerances are bad input
        ["canonical-dual", "axes_2d", "--tol", "-0.5"],
        ["certify", "permuted_axes_coupling", "--tol", "-1"],
        # the = form, since argparse takes a value led by "-" for an option
        ["uncertainty", gen("equality_dual"), f"--vector={_equality_case()[2]}"],
    ]
    return argvs


def run(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code
        except Exception as exc:  # an escaped exception is recorded, not raised
            code = "uncaught"
            err.write(f"{type(exc).__name__}: {exc}\n")
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def sweep(src: Path) -> list[dict]:
    sys.path.insert(0, str(src.resolve()))
    from probframes.cli import main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            root = Path("gen")
            groups = write_inputs(root)
            return [run(main, argv) for argv in sweep_argvs(groups, root.name)]
        finally:
            os.chdir(here)


def compare(old: list[dict], new: list[dict]) -> int:
    before = {json.dumps(r["argv"]): r for r in old}
    differing = 0
    for r in new:
        key = json.dumps(r["argv"])
        o = before.pop(key, None)
        if o is None:
            print(f"new run: {' '.join(r['argv'])}")
            differing += 1
            continue
        fields = [f for f in ("exit", "stdout_sha256", "stderr") if o[f] != r[f]]
        if fields:
            differing += 1
            print(f"differs ({', '.join(fields)}): {' '.join(r['argv'])}")
            if "exit" in fields:
                print(f"  exit {o['exit']} -> {r['exit']}")
            if "stderr" in fields:
                print(f"  stderr {o['stderr']!r}\n      -> {r['stderr']!r}")
    for key in before:
        print(f"missing run: {' '.join(json.loads(key))}")
        differing += 1
    print(f"{len(new)} runs, {differing} differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("record", "compare"))
    parser.add_argument("path", type=Path, help="sweep record (JSON)")
    parser.add_argument("--src", type=Path, default=REPO_SRC,
                        help="src directory holding the probframes to sweep")
    args = parser.parse_args(argv)
    runs = sweep(args.src)
    if args.mode == "record":
        args.path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
        codes: dict[str, int] = {}
        for r in runs:
            codes[str(r["exit"])] = codes.get(str(r["exit"]), 0) + 1
        print(f"{len(runs)} runs recorded; exit codes {codes}")
        return 0
    return compare(json.loads(args.path.read_text())["runs"], runs)


if __name__ == "__main__":
    sys.exit(main())
