"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload turns a seed into a list of operations. CLI workloads
write their measures as JSON files and run ``python -m probframes.cli``;
the in-process workload keeps its measures in memory. The checks read
the inputs and the reported outputs with numpy and scipy only, so they
do not share code with the package they check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXACT_TOL = 1e-9  # the certificate's "exact" threshold in the CLI
LP_CHECKS = 4  # w2_cold pairs also checked against a HiGHS LP, untimed

# (n, d) sizes of the mixed_search pairs, cycled in this order so that
# every run sees the same mix of problem sizes whatever its seed. The
# larger pairs stop at the iteration cap and certify "approximate". The
# couplings of a (2, 2) pair form a segment, so the exact line search
# reaches the interior plan in one step and the pair certifies "exact".
MIXED_SIZES = (
    (8, 2), (9, 3), (10, 2), (11, 3), (2, 2),
    (12, 2), (8, 3), (9, 2), (10, 3), (2, 2),
)

SIZES = {
    "full": {
        "w2_atoms": 200,
        "w2_pairs": 48,
        "frames_atoms": 600,
        "frames_measures": 36,
        "pipeline_atoms": 80,
        "pipeline_samples": 16,
        "pipeline_clouds": 200,
        "mixed_pairs": 40,
        "mixed_iters": 1000,
        "mixed_sizes": MIXED_SIZES,
    },
    "tiny": {
        "w2_atoms": 12,
        "w2_pairs": 6,
        "frames_atoms": 30,
        "frames_measures": 3,
        "pipeline_atoms": 24,
        "pipeline_samples": 6,
        "pipeline_clouds": 6,
        "mixed_pairs": 4,
        "mixed_iters": 100,
        "mixed_sizes": ((4, 2), (2, 2)),
    },
}


@dataclass
class Op:
    """One operation: CLI arguments, or a measure for the in-process run."""

    argv: list[str] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    points: np.ndarray | None = None
    oracle: bool = False  # also check against the slow LP oracle


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _positive_weights(rng, n: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, n)
    return w / w.sum()


def _write_measure(path: Path, atoms, weights) -> str:
    doc = {
        "dim": int(atoms.shape[1]),
        "atoms": np.asarray(atoms).tolist(),
        "weights": np.asarray(weights).tolist(),
    }
    path.write_text(json.dumps(doc))
    return str(path)


def _read_measure(path: str) -> tuple[np.ndarray, np.ndarray]:
    doc = json.loads(Path(path).read_text())
    return np.asarray(doc["atoms"], dtype=float), np.asarray(doc["weights"])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _frame_operator(atoms, weights) -> np.ndarray:
    return (atoms * weights[:, None]).T @ atoms


def _marginal_errors(plan, source_w, target_w) -> list[str]:
    errors = []
    if plan.min() < 0.0:
        errors.append(f"negative plan entry {plan.min():.3e}")
    row = float(np.abs(plan.sum(axis=1) - source_w).max())
    col = float(np.abs(plan.sum(axis=0) - target_w).max())
    if row > 1e-10 or col > 1e-10:
        errors.append(f"plan marginals off by {row:.3e} / {col:.3e}")
    return errors


def _doc(out: bytes) -> dict:
    return json.loads(out.decode())


class Workload:
    """A seeded list of operations plus the check of each one's output."""

    name = ""
    in_process = False

    def __init__(self, size: str = "full"):
        self.size = SIZES[size]

    def generate(self, seed: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out: bytes) -> list[str]:
        raise NotImplementedError

    def classification(self, out: bytes) -> str | None:
        """Dual class of the certificate an output carries, if any."""
        doc = _doc(out)
        cert = doc if "classification" in doc else doc.get("certificate") or {}
        return cert.get("classification")


class W2Cold(Workload):
    """CLI ``w2 A B`` on fresh pairs of non-uniform 2-D measures."""

    name = "w2_cold"

    def generate(self, seed, workdir):
        rng = _rng(seed, self.name)
        n = self.size["w2_atoms"]
        ops = []
        for k in range(self.size["w2_pairs"]):
            a = _write_measure(
                workdir / f"w2_{k}_a.json",
                rng.standard_normal((n, 2)),
                _positive_weights(rng, n),
            )
            b = _write_measure(
                workdir / f"w2_{k}_b.json",
                rng.standard_normal((n, 2)) + [1.0, 0.0],
                _positive_weights(rng, n),
            )
            ops.append(Op(argv=["w2", a, b], inputs=[a, b], oracle=k < LP_CHECKS))
        return ops

    def check(self, op, out):
        x, wx = _read_measure(op.inputs[0])
        y, wy = _read_measure(op.inputs[1])
        doc = _doc(out)
        plan = np.asarray(doc["plan"]["plan"], dtype=float)
        errors = _marginal_errors(plan, wx, wy)
        d2 = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        if not _close(doc["cost"], float((plan * d2).sum()), 1e-12):
            errors.append(f"cost {doc['cost']!r} is not sum(plan * d^2)")
        if not _close(doc["w2"] ** 2, doc["cost"], 1e-12):
            errors.append("w2 is not the square root of the cost")
        if op.oracle:
            lp = self.lp_cost(d2, wx, wy)
            if abs(doc["cost"] - lp) > 1e-7 * max(1.0, abs(lp)):
                errors.append(f"cost {doc['cost']!r} but the HiGHS LP gives {lp!r}")
        return errors

    @staticmethod
    def lp_cost(d2, wx, wy) -> float:
        """Optimal cost from scipy's HiGHS LP, an oracle at about 1e-7."""
        from scipy.optimize import linprog
        from scipy.sparse import csr_array, identity, kron, vstack

        m, n = d2.shape
        rows = kron(identity(m), csr_array(np.ones((1, n))))
        cols = kron(csr_array(np.ones((1, m))), identity(n))
        res = linprog(
            d2.ravel(), A_eq=vstack([rows, cols]).tocsr(),
            b_eq=np.concatenate([wx, wy]), bounds=(0, None), method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed: {res.message}")
        return float(res.fun)


class FramesCli(Workload):
    """CLI ``analyze`` on 3-D measures of which a fifth of the atoms repeat
    an earlier atom exactly, and ``canonical-dual`` on every third one.

    The two commands differ in cost. With three ``analyze`` per
    ``canonical-dual`` the median falls inside the ``analyze`` mode,
    not between the two modes, where it would jump from run to run."""

    name = "frames_cli"

    def generate(self, seed, workdir):
        rng = _rng(seed, self.name)
        n = self.size["frames_atoms"]
        distinct = n - n // 5
        ops = []
        for k in range(self.size["frames_measures"]):
            base = rng.standard_normal((distinct, 3))
            atoms = np.vstack([base, base[rng.integers(0, distinct, n - distinct)]])
            atoms = atoms[rng.permutation(n)]
            path = _write_measure(
                workdir / f"frames_{k}.json", atoms, _positive_weights(rng, n)
            )
            ops.append(Op(argv=["analyze", path], inputs=[path]))
            if k % 3 == 2:
                ops.append(Op(argv=["canonical-dual", path], inputs=[path]))
        return ops

    def check(self, op, out):
        atoms, weights = _read_measure(op.inputs[0])
        doc = _doc(out)
        distinct = np.unique(atoms, axis=0).shape[0]
        errors = []
        if op.argv[0] == "analyze":
            s = _frame_operator(atoms, weights)
            lo, hi = np.linalg.eigvalsh(s)[[0, -1]]
            if not (_close(doc["lower_bound"], lo, 1e-10)
                    and _close(doc["upper_bound"], hi, 1e-10)):
                errors.append(
                    f"bounds ({doc['lower_bound']!r}, {doc['upper_bound']!r}) "
                    f"differ from eigvalsh ({lo!r}, {hi!r})"
                )
            if doc["redundancy_rank"] != distinct - atoms.shape[1]:
                errors.append(f"redundancy rank {doc['redundancy_rank']}")
            return errors
        cert = doc["certificate"]
        if cert["classification"] != "exact":
            errors.append(f"canonical dual certifies {cert['classification']!r}")
        dual_atoms = np.asarray(doc["dual"]["atoms"], dtype=float)
        if dual_atoms.shape[0] != distinct:
            errors.append(
                f"dual has {dual_atoms.shape[0]} atoms for {distinct} distinct images"
            )
        plan = np.asarray(doc["coupling"]["plan"], dtype=float)
        errors += _marginal_errors(plan, weights, np.asarray(doc["dual"]["weights"]))
        return errors


class MixedSearch(Workload):
    """CLI ``certify mu nu`` on pairs with an exact dual coupling strictly
    inside the coupling polytope."""

    name = "mixed_search"

    def generate(self, seed, workdir):
        rng = _rng(seed, self.name)
        sizes = self.size["mixed_sizes"]
        iters = str(self.size["mixed_iters"])
        ops = []
        for k in range(self.size["mixed_pairs"]):
            n, d = sizes[k % len(sizes)]
            x = rng.standard_normal((n, d))
            w = _positive_weights(rng, n)
            q = rng.uniform(0.5, 1.5, (n, n))
            plan = q * (w / q.sum(axis=1))[:, None]
            # y = pinv(x^T P) makes x^T P y the identity, so P certifies
            # an exact dual and lies in the interior of the polytope
            y = np.linalg.pinv(x.T @ plan)
            v = plan.sum(axis=0)
            a = _write_measure(workdir / f"mixed_{k}_mu.json", x, w)
            b = _write_measure(workdir / f"mixed_{k}_nu.json", y, v / v.sum())
            ops.append(Op(argv=["certify", a, b, "--iters", iters], inputs=[a, b]))
        return ops

    def check(self, op, out):
        doc = _doc(out)
        a = np.asarray(doc["mixed_operator"], dtype=float)
        return self._check_operator(doc, a)

    @staticmethod
    def _check_operator(doc: dict, a: np.ndarray) -> list[str]:
        errors = []
        eye = np.eye(a.shape[0])
        deviation = float(np.linalg.norm(a - eye, 2))
        if abs(deviation - doc["deviation"]) > 1e-12 * max(1.0, deviation):
            errors.append(
                f"deviation {doc['deviation']!r} but ||A - I|| = {deviation!r}"
            )
        residual = float(np.linalg.norm(a - eye))
        if abs(residual - doc["search"]["residual"]) > 1e-12 * max(1.0, residual):
            errors.append(f"search residual {doc['search']['residual']!r}")
        expected = (
            "exact" if doc["deviation"] <= EXACT_TOL
            else "approximate" if doc["deviation"] < 1.0
            else None
        )
        if expected and doc["classification"] != expected:
            errors.append(f"classification {doc['classification']!r}")
        return errors

    def check_plan(self, op: Op, out: bytes, plan: np.ndarray) -> list[str]:
        """Recompute the certificate from the plan the search returned."""
        x, wx = _read_measure(op.inputs[0])
        y, wy = _read_measure(op.inputs[1])
        errors = _marginal_errors(plan, wx, wy)
        doc = _doc(out)
        return errors + self._check_operator(doc, x.T @ plan @ y)


class PipelineWarm(Workload):
    """In-process ``discrete_dual_pipeline`` on shifted Gaussian clouds."""

    name = "pipeline_warm"
    in_process = True

    def generate(self, seed, workdir):
        rng = _rng(seed, self.name)
        n = self.size["pipeline_atoms"]
        ops = []
        for _ in range(self.size["pipeline_clouds"]):
            # the recipe of the shifted_gauss_100 fixture: standard
            # normal points in the plane, shifted by e1
            points = rng.standard_normal((n, 2))
            points[:, 0] += 1.0
            ops.append(Op(points=points))
        return ops

    def run(self, op: Op):
        from probframes import uniform
        from probframes.perturbation import discrete_dual_pipeline

        return discrete_dual_pipeline(uniform(op.points), self.size["pipeline_samples"])

    @staticmethod
    def render(result) -> bytes:
        """The report as ``probframes sample-dual`` prints it."""
        from probframes.jsonio import dumps
        from probframes.measures import measure_to_dict
        from probframes.perturbation import report_to_dict

        mu_hat, nu_hat, report = result
        doc = {
            "subsample": measure_to_dict(mu_hat),
            "dual": measure_to_dict(nu_hat),
            **report_to_dict(report),
        }
        return (dumps(doc) + "\n").encode()

    def classification(self, result):
        return result[2].certificate.classification

    def check(self, op, result):
        mu_hat, nu_hat, report = result
        n = self.size["pipeline_samples"]
        errors = []
        sub = np.asarray(mu_hat.atoms)
        if sub.shape[0] != n or not np.all(np.asarray(mu_hat.weights) == 1.0 / n):
            errors.append("subsample is not uniform on the requested size")
        rows = {tuple(p) for p in op.points.tolist()}
        if any(tuple(p) not in rows for p in sub.tolist()):
            errors.append("subsample holds a point outside the cloud")
        s_inv = np.linalg.inv(_frame_operator(sub, np.full(n, 1.0 / n)))
        if not np.allclose(nu_hat.atoms, sub @ s_inv, rtol=1e-9, atol=1e-12):
            errors.append("dual atoms are not S^-1 applied to the subsample")
        cert = report.certificate
        glued = cert.coupling
        a = glued.source.atoms.T @ glued.plan @ glued.target.atoms
        deviation = float(np.linalg.norm(a - np.eye(a.shape[0]), 2))
        if abs(deviation - cert.deviation) > 1e-9:
            errors.append(f"glued deviation {cert.deviation!r}, recomputed {deviation!r}")
        if (report.flags.quadratic_closeness and report.flags.product_bound
                and not cert.deviation < 1.0):
            errors.append(f"flags hold but glued deviation is {cert.deviation!r}")
        return errors


WORKLOADS = {w.name: w for w in (W2Cold, PipelineWarm, FramesCli, MixedSearch)}


def digest(ops: list[Op]) -> str:
    """Hash of every generated input, file bytes or cloud coordinates."""
    h = hashlib.sha256()
    for op in ops:
        for path in op.inputs:
            h.update(Path(path).read_bytes())
        if op.points is not None:
            h.update(op.points.tobytes())
    return h.hexdigest()
