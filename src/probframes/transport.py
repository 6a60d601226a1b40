"""Couplings of discrete measures and exact quadratic transport.

A coupling stores the full plan matrix against its two marginals and is
validated on construction. The Wasserstein-2 solver is a transportation
network simplex over the plan polytope: spanning-tree basis, Bland's
anti-cycling entering rule, dual potentials rebuilt from the tree each
pivot, and a complementary-slackness certificate at termination. The
same solver doubles as the linear-minimization oracle of Wolfe's
minimum-norm-point search for the coupling whose mixed frame operator
is nearest a prescribed one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadArgument,
    DimMismatch,
    InternalInvariantError,
    MarginalMismatch,
    Unsupported,
)
from .measures import (
    COALESCE_TOL,
    DiscreteMeasure,
    _as_floats,
    group_atoms,
    measure_from_dict,
    measure_to_dict,
    merge_atoms,
    same_measure,
)
from .numerics import as_matrix, sq_dists

MARGINAL_TOL = 1e-10
CERTIFICATE_TOL = 1e-9


@dataclass(frozen=True)
class Coupling:
    """Joint distribution with prescribed marginals.

    plan[i, j] is the mass moved from source atom i to target atom j.
    Rows must sum to the source weights and columns to the target
    weights within MARGINAL_TOL; entries must be nonnegative.
    """

    source: DiscreteMeasure
    target: DiscreteMeasure
    plan: np.ndarray

    def __post_init__(self):
        plan = np.asarray(self.plan, dtype=float)
        if plan.shape != (self.source.size, self.target.size):
            raise DimMismatch(
                f"plan shape {plan.shape} does not match "
                f"({self.source.size}, {self.target.size}) atoms"
            )
        if not np.all(np.isfinite(plan)):
            raise MarginalMismatch("plan has non-finite entries")
        if plan.size and plan.min() < 0.0:
            raise MarginalMismatch(f"plan has negative entry {plan.min():.3e}")
        row_err, col_err = _marginal_errors(plan, self.source, self.target)
        if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
            raise MarginalMismatch(
                f"marginal errors (rows {row_err:.3e}, cols {col_err:.3e}) "
                f"exceed {MARGINAL_TOL:.0e}"
            )
        plan.setflags(write=False)
        object.__setattr__(self, "plan", plan)


def _marginal_errors(plan, source, target) -> tuple[float, float]:
    """Largest gaps between the plan's row and column sums and the weights."""
    rows, cols = plan.sum(axis=1) - source.weights, plan.sum(axis=0) - target.weights
    return float(np.abs(rows).max()), float(np.abs(cols).max())


@dataclass(frozen=True)
class TransportResult:
    """Optimal quadratic transport between two measures."""

    cost: float
    w2: float
    plan: Coupling


def product_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    """Independent coupling mu x nu."""
    return Coupling(mu, nu, np.outer(mu.weights, nu.weights))


def graph_coupling(mu: DiscreteMeasure, images) -> Coupling:
    """Coupling concentrated on the graph of an atom-indexed map.

    images[i] is where atom i goes; colliding images are merged into a
    single target atom whose plan column collects the incoming mass.
    """
    imgs = np.asarray(images, dtype=float)
    if imgs.ndim == 1:
        imgs = imgs.reshape(-1, 1)
    if imgs.shape[0] != mu.size:
        raise DimMismatch(f"need {mu.size} images, got {imgs.shape[0]}")
    reps, assign = group_atoms(imgs, COALESCE_TOL)
    target = merge_atoms(imgs, mu.weights, reps, assign)
    plan = np.zeros((mu.size, target.size))
    plan[np.arange(mu.size), assign] = mu.weights
    return Coupling(mu, target, plan)


def push_target(c: Coupling, images) -> Coupling:
    """Apply a map to the target side of a coupling, keeping the plan.

    This is the pushforward of the coupling under (x, y) -> (x, T y)
    with T given extensionally on the target atoms. Colliding images are
    merged and their plan columns summed.
    """
    imgs = np.asarray(images, dtype=float)
    if imgs.ndim == 1:
        imgs = imgs.reshape(-1, 1)
    if imgs.shape[0] != c.target.size:
        raise DimMismatch(f"need {c.target.size} images, got {imgs.shape[0]}")
    reps, assign = group_atoms(imgs, COALESCE_TOL)
    target = merge_atoms(imgs, c.target.weights, reps, assign)
    plan = np.zeros((c.source.size, target.size))
    np.add.at(plan.T, assign, c.plan.T)
    return Coupling(c.source, target, plan)


def mixed_frame_operator(c: Coupling) -> np.ndarray:
    """Second mixed moment sum_ij plan_ij x_i y_j^T."""
    return c.source.atoms.T @ c.plan @ c.target.atoms


def transport_cost(c: Coupling) -> float:
    """Quadratic cost of a coupling: sum_ij plan_ij |x_i - y_j|^2."""
    return float((c.plan * sq_dists(c.source.atoms, c.target.atoms)).sum())


# ---------------------------------------------------------------------------
# transportation network simplex


def _northwest_tree(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int]]:
    """Northwest-corner spanning tree: m + n - 1 arcs, possibly degenerate."""
    m, n = a.shape[0], b.shape[0]
    basis = []
    ra, rb = a.copy(), b.copy()
    i = j = 0
    while True:
        basis.append((i, j))
        t = min(ra[i], rb[j])
        ra[i] -= t
        rb[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if j == n - 1 or (ra[i] <= rb[j] and i < m - 1):
            i += 1
        else:
            j += 1
    return basis


def _tree_flows(
    m: int, n: int, arcs, a: np.ndarray, b: np.ndarray
) -> dict[tuple[int, int], float]:
    """Unique arc flows on a spanning tree supporting the marginals.

    Computed by leaf elimination directly from a and b, so the returned
    flows carry no pivot roundoff; sub-roundoff negatives are zeroed.
    Row nodes are 0..m-1, column nodes m..m+n-1. Each node keeps only
    its degree and the XOR of its neighbours, so a leaf's one remaining
    neighbour is that XOR; leaves are eliminated from the same stack in
    the same order as with explicit neighbour sets, and the flows are
    summed in that order. An arc listed twice closes a cycle that is
    never eliminated, so it is rejected as not spanning.
    """
    net = np.concatenate([a, -b]).tolist()
    degree = [0] * (m + n)
    others = [0] * (m + n)
    for i, j in arcs:
        degree[i] += 1
        degree[m + j] += 1
        others[i] ^= m + j
        others[m + j] ^= i
    leaves = [k for k in range(m + n) if degree[k] == 1]
    flows: dict[tuple[int, int], float] = {}
    while leaves:
        u = leaves.pop()
        if not degree[u]:
            continue
        w = others[u]
        arc = (u, w - m) if u < m else (w, u - m)
        flows[arc] = net[u] if u < m else -net[u]
        net[w] += net[u]
        degree[u] = 0
        degree[w] -= 1
        others[w] ^= u
        if degree[w] == 1:
            leaves.append(w)
    if len(flows) != m + n - 1 or min(flows.values()) < -1e-9:
        raise InternalInvariantError(
            "tree is not spanning with nonnegative flows for these marginals"
        )
    for arc, f in flows.items():
        flows[arc] = max(f, 0.0)
    return flows


def _tree_duals(
    m: int, n: int, adj: dict[int, set[int]], cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Potentials with u_i + v_j = cost_ij on every tree arc, u_0 = 0."""
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack = [0]
    while stack:
        k = stack.pop()
        if k < m:
            for w in adj[k]:
                j = w - m
                if math.isnan(v[j]):
                    v[j] = cost[k, j] - u[k]
                    stack.append(w)
        else:
            j = k - m
            for w in adj[k]:
                if math.isnan(u[w]):
                    u[w] = cost[w, j] - v[j]
                    stack.append(w)
    return u, v


def _pivot_budget(m: int, n: int) -> int:
    """Pivots allowed before the simplex is declared non-terminating."""
    return 1000 + 100 * (m + n) * max(m, n)


@dataclass(frozen=True)
class SolveStats:
    """What one simplex solve did: pivots made, how many of them moved
    no flow, and how many were priced by Bland's rule."""

    pivots: int
    degenerate_pivots: int
    bland_pivots: int


def _transport_simplex(
    a: np.ndarray, b: np.ndarray, cost: np.ndarray, start=None
) -> tuple[np.ndarray, list[tuple[int, int]], SolveStats]:
    """Minimize <cost, plan> over the transportation polytope.

    Returns (plan, tree, stats): the plan certified optimal by _certify,
    tree its optimal spanning tree and stats the pivot counts. A tree
    optimal for one cost matrix is a feasible start for any cost matrix
    with the same marginals; a start that does not span (a repeated arc
    included) or needs negative flows raises InternalInvariantError.
    Pricing is most-negative reduced cost, falling back to Bland's rule
    (first negative cell in row-major order) whenever a run of
    degenerate pivots suggests stalling; Bland's rule cannot cycle, so
    the fallback guarantees termination. Potentials are updated
    incrementally on the subtree cut off by the leaving arc. The leaving
    arc is the minimum-ratio cell with lexicographic tie-break, and the
    final flows are recomputed from the marginals on the optimal tree.
    """
    m, n = cost.shape
    eps = 1e-12 * max(1.0, float(np.abs(cost).max()))
    tree = _northwest_tree(a, b) if start is None else start
    flows = _tree_flows(m, n, tree, a, b)
    adj: dict[int, set[int]] = {k: set() for k in range(m + n)}
    for (i, j) in tree:
        adj[i].add(m + j)
        adj[m + j].add(i)
    u, v = _tree_duals(m, n, adj, cost)

    reduced = np.empty_like(cost)
    stall_limit = 30 + (m + n) // 2
    stalled = 0
    degenerate = bland = 0
    for pivots in range(_pivot_budget(m, n)):
        np.subtract(cost, u[:, None], out=reduced)
        reduced -= v[None, :]
        if stalled <= stall_limit:
            flat = int(reduced.argmin())
            if reduced.flat[flat] >= -eps:
                break
        else:
            candidates = np.flatnonzero((reduced < -eps).ravel())
            if candidates.size == 0:
                break
            flat = int(candidates[0])
            bland += 1
        ei, ej = divmod(flat, n)
        delta = float(reduced[ei, ej])

        # unique tree path from row node ei to column node m + ej
        parent: dict[int, int | None] = {ei: None}
        stack = [ei]
        while (m + ej) not in parent:
            k = stack.pop()
            for w in adj[k]:
                if w not in parent:
                    parent[w] = k
                    stack.append(w)
        path = [m + ej]
        while path[-1] != ei:
            path.append(parent[path[-1]])
        path.reverse()

        # cells along the cycle alternate signs, starting at -1 next to
        # the entering cell (ei, ej)
        minus: list[tuple[int, int]] = []
        plus: list[tuple[int, int]] = []
        for k in range(len(path) - 1):
            p, q = path[k], path[k + 1]
            arc = (p, q - m) if p < m else (q, p - m)
            (minus if k % 2 == 0 else plus).append(arc)
        theta = min(flows[arc] for arc in minus)
        leaving = min(arc for arc in minus if flows[arc] <= theta)
        if theta <= 0.0:
            stalled += 1
            degenerate += 1
        else:
            stalled = 0

        for arc in plus:
            flows[arc] += theta
        for arc in minus:
            flows[arc] -= theta
        flows[(ei, ej)] = theta
        del flows[leaving]
        adj[leaving[0]].discard(m + leaving[1])
        adj[m + leaving[1]].discard(leaving[0])

        # removing the leaving arc separates ei from m + ej; shift the
        # potentials of the component holding m + ej by the old reduced
        # cost so the entering arc becomes tight
        comp = {m + ej}
        stack = [m + ej]
        while stack:
            k = stack.pop()
            for w in adj[k]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        for k in comp:
            if k < m:
                u[k] -= delta
            else:
                v[k - m] += delta
        adj[ei].add(m + ej)
        adj[m + ej].add(ei)
    else:
        raise InternalInvariantError("transportation simplex failed to terminate")

    # final flows recomputed from the marginals, so the plan is exact
    flows = _tree_flows(m, n, flows, a, b)
    plan = np.zeros((m, n))
    for (i, j), f in flows.items():
        plan[i, j] = f
    _certify(plan, u, v, cost)
    return plan, sorted(flows), SolveStats(pivots, degenerate, bland)


def _certify(plan: np.ndarray, u: np.ndarray, v: np.ndarray, cost: np.ndarray):
    """Optimality check: dual feasibility and complementary slackness."""
    scale = max(1.0, float(np.abs(cost).max()))
    reduced = cost - u[:, None] - v[None, :]
    infeas = max(0.0, float(-reduced.min()))
    slack = float(np.abs(plan * reduced).sum())
    if infeas > CERTIFICATE_TOL * scale or slack > CERTIFICATE_TOL * scale:
        raise InternalInvariantError(
            f"optimality certificate failed (infeasibility {infeas:.3e}, "
            f"slackness {slack:.3e})"
        )


def solve_w2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    """Exact Wasserstein-2 distance and an optimal plan."""
    d = sq_dists(mu.atoms, nu.atoms)
    plan, _, _ = _transport_simplex(mu.weights, nu.weights, d)
    cost = float((plan * d).sum())
    return TransportResult(
        cost=cost, w2=math.sqrt(max(cost, 0.0)), plan=Coupling(mu, nu, plan)
    )


def w2_bruteforce(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    """Exhaustive W2 for small uniform measures, as an independent oracle.

    Restricted to equal atom counts N <= 7 with uniform weights, where
    the optimal plan is a permutation matrix scaled by 1/N and all N!
    assignments can be enumerated.
    """
    n = mu.size
    if n != nu.size or n > 7:
        raise Unsupported("bruteforce needs equal atom counts, at most 7")
    for w in (mu.weights, nu.weights):
        if float(np.abs(w - 1.0 / n).max()) > 1e-12:
            raise Unsupported("bruteforce needs uniform weights")
    d = sq_dists(mu.atoms, nu.atoms)
    best_cost = math.inf
    best_perm = None
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        c = float(d[rows, perm].sum()) / n
        if c < best_cost:
            best_cost = c
            best_perm = perm
    plan = np.zeros((n, n))
    plan[rows, best_perm] = 1.0 / n
    return TransportResult(
        cost=best_cost,
        w2=math.sqrt(max(best_cost, 0.0)),
        plan=Coupling(mu, nu, plan),
    )


def glue(c12: Coupling, c23: Coupling) -> Coupling:
    """Compose couplings through a shared middle marginal.

    c12 couples mu1 to mu2 and c23 couples mu2 to mu3; the middle
    measures must agree atom by atom. The result is the standard gluing,
    which disintegrates c23 along the middle marginal.
    """
    if not same_measure(c12.target, c23.source, MARGINAL_TOL):
        raise MarginalMismatch("middle marginals of the two couplings differ")
    rows = c23.plan.sum(axis=1)
    if float(rows.min()) <= 0.0:
        raise MarginalMismatch("middle marginal carries a zero-mass atom")
    plan = c12.plan @ (c23.plan / rows[:, None])
    return Coupling(c12.source, c23.target, plan)


@dataclass(frozen=True)
class MixedOperatorSearch:
    """Outcome of the minimum-norm-point search for a mixed operator.

    residual is |mixed_frame_operator(coupling) - target|_F, gap Wolfe's
    optimality gap at the last oracle call, iterations the major cycles
    (oracle calls) made, active_set the number of vertex plans whose
    convex combination is the coupling, and residuals the residual at
    the start of each major cycle followed by the final one.
    """

    coupling: Coupling
    residual: float
    gap: float
    iterations: int
    active_set: int
    residuals: list[float] = field(repr=False)


def _minor_cycles(points: np.ndarray, lam: np.ndarray):
    """Wolfe's minor cycles over the rows of points from convex weights lam.

    Each cycle solves the affine system [Z Z^T 1; 1^T 0] for the
    least-norm point of the rows' affine hull. If all its weights are
    positive they are the answer; otherwise lam steps towards them until
    the first weight reaches zero, and every row whose weight reached
    zero is dropped. Returns (kept row indices, their weights), or None
    when the system is singular.
    """
    keep = np.arange(lam.size)
    while True:
        k = keep.size
        system = np.ones((k + 1, k + 1))
        system[:k, :k] = points[keep] @ points[keep].T
        system[k, k] = 0.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            alpha = np.linalg.solve(system, rhs)[:k]
        except np.linalg.LinAlgError:
            return None
        if alpha.min() > 0.0:
            return keep, alpha
        down = np.flatnonzero(alpha <= 0.0)
        fall = lam[down] - alpha[down]
        ratio = np.divide(lam[down], fall, out=np.zeros_like(fall), where=fall > 0.0)
        lam = lam + ratio.min() * (alpha - lam)
        lam[down[ratio.argmin()]] = 0.0
        positive = lam > 0.0
        keep, lam = keep[positive], lam[positive] / lam[positive].sum()


def optimize_mixed_operator(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    target,
    iters: int = 10000,
    tol: float = 1e-8,
) -> MixedOperatorSearch:
    """Search the coupling polytope for a prescribed mixed frame operator.

    Minimizes |mixed_frame_operator(plan) - target|_F by Wolfe's
    minimum-norm-point algorithm over the points z_P = x^T P y - target,
    with the transportation simplex as linear oracle. The active set is
    a list of vertex plans with convex weights, started at the product
    plan; each major cycle adds the oracle's vertex for cost x p y^T,
    where p is the current point, and its minor cycles solve the affine
    system over the active set and step back to the polytope, dropping
    every plan whose weight reaches zero. At most d d' + 1 plans stay
    active, and the returned plan is their convex combination, so it is
    nonnegative and exact on its marginals.

    Stops when Wolfe's gap |p|^2 - min_v <p, z_v> is within tol, or
    after iters major cycles. It also stops at the last point when the
    affine system becomes singular or a major cycle fails to decrease
    |p|^2, which only rounding can cause. The residuals recorded at the
    major cycles decrease; the final one, recomputed from the returned
    plan, can exceed the last of them by rounding only.
    """
    if iters < 1:
        raise BadArgument(f"the search needs at least one iteration, got {iters}")
    t_mat = as_matrix(target)
    x, y = mu.atoms, nu.atoms
    if t_mat.shape != (mu.dim, nu.dim):
        raise DimMismatch(
            f"target shape {t_mat.shape} does not match ({mu.dim}, {nu.dim})"
        )

    def point(plan):
        return (x.T @ plan @ y - t_mat).ravel()

    plans = [np.outer(mu.weights, nu.weights)]
    points = point(plans[0])[None, :]
    weights = np.ones(1)
    p = points[0]
    residuals: list[float] = []
    gap = math.inf
    iterations = 0
    tree = None
    for iterations in range(1, iters + 1):
        norm2 = float(p @ p)
        residuals.append(math.sqrt(norm2))
        vertex, tree, _ = _transport_simplex(
            mu.weights, nu.weights, x @ p.reshape(t_mat.shape) @ y.T, start=tree
        )
        z = point(vertex)
        gap = norm2 - float(p @ z)
        # d d' + 2 points are affinely dependent: the system is singular
        if gap <= tol or len(plans) > t_mat.size:
            break
        candidates = np.vstack([points, z])
        trial = _minor_cycles(candidates, np.append(weights, 0.0))
        if trial is None:
            break
        keep, lam = trial
        trial_p = lam @ candidates[keep]
        if float(trial_p @ trial_p) >= norm2:
            break
        plans.append(vertex)
        plans = [plans[k] for k in keep]
        points, weights, p = candidates[keep], lam, trial_p
    plan = sum(w * q for w, q in zip(weights, plans))
    residual = float(np.linalg.norm(point(plan)))
    residuals.append(residual)
    return MixedOperatorSearch(
        coupling=Coupling(mu, nu, plan),
        residual=residual,
        gap=gap,
        iterations=iterations,
        active_set=len(plans),
        residuals=residuals,
    )


def coupling_to_dict(c: Coupling) -> dict:
    return {
        "source": measure_to_dict(c.source),
        "target": measure_to_dict(c.target),
        "plan": [[float(v) for v in row] for row in c.plan],
    }


def coupling_from_dict(d: dict) -> Coupling:
    if not isinstance(d, dict):
        raise MarginalMismatch("coupling document is not a JSON object")
    for key in ("source", "target", "plan"):
        if key not in d:
            raise MarginalMismatch(f"coupling document lacks '{key}'")
    return Coupling(
        measure_from_dict(d["source"]),
        measure_from_dict(d["target"]),
        _as_floats(d["plan"], MarginalMismatch),
    )
