"""Couplings of discrete measures and exact quadratic transport.

A coupling stores the full plan matrix against its two marginals and is
validated on construction. The Wasserstein-2 solver is a transportation
network simplex over the plan polytope: a spanning-tree basis hung from
row node 0 and kept between solves, pricing by most-negative reduced
cost with Bland's rule as the anti-cycling fallback, each pivot's cycle
found by climbing to the lowest common ancestor, only the subtree the
leaving arc cuts off re-hung, dual potentials shifted on the side of the
cut that holds the entering column, and at termination a certificate:
the cost is within the pricing threshold of a weak-duality lower bound,
less a derived rounding margin. A caller that only needs to know
whether the optimal cost falls below a threshold can hand it over: the
solve then stops with a refusal once that bound proves that it does
not. The same solver doubles as the linear-minimization oracle of
Wolfe's minimum-norm-point search for the coupling whose mixed frame
operator is nearest a prescribed one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadArgument,
    DimMismatch,
    InternalInvariantError,
    MarginalMismatch,
    Unsupported,
)
from .measures import (
    DiscreteMeasure,
    _as_floats,
    _merged_images,
    group_atoms,  # noqa: F401 - re-exported, perfbench's tracer test reads it here
    measure_from_dict,
    measure_to_dict,
    same_measure,
)
from .numerics import as_matrix, sq_dists

MARGINAL_TOL = 1e-10
SEARCH_ITERS = 10000
SEARCH_TOL = 1e-8


@dataclass(frozen=True)
class Coupling:
    """Joint distribution with prescribed marginals.

    plan[i, j] is the mass moved from source atom i to target atom j.
    Rows must sum to the source weights and columns to the target
    weights within MARGINAL_TOL; entries must be nonnegative. The plan
    held is a read-only copy of the one given.
    """

    source: DiscreteMeasure
    target: DiscreteMeasure
    plan: np.ndarray

    def __post_init__(self):
        plan = np.array(self.plan, dtype=float)
        if plan.shape != (self.source.size, self.target.size):
            raise DimMismatch(
                f"plan shape {plan.shape} does not match "
                f"({self.source.size}, {self.target.size}) atoms"
            )
        if not np.all(np.isfinite(plan)):
            raise MarginalMismatch("plan has non-finite entries")
        if plan.min() < 0.0:
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
    target, assign = _merged_images(images, mu.weights)
    plan = np.zeros((mu.size, target.size))
    plan[np.arange(mu.size), assign] = mu.weights
    return Coupling(mu, target, plan)


def push_target(c: Coupling, images) -> Coupling:
    """Apply a map to the target side of a coupling, keeping the plan.

    This is the pushforward of the coupling under (x, y) -> (x, T y)
    with T given extensionally on the target atoms. Colliding images are
    merged and their plan columns summed.
    """
    target, assign = _merged_images(images, c.target.weights)
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


def _northwest_tree(a: np.ndarray, b: np.ndarray) -> list[int]:
    """Northwest-corner spanning tree, possibly degenerate, as a parent list:
    each staircase step hangs its new node from the other end of its arc."""
    m, n = a.shape[0], b.shape[0]
    parent = [-1] * (m + n)
    parent[m] = 0
    ra, rb = a.copy(), b.copy()
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        ra[i] -= t
        rb[j] -= t
        if i == m - 1 and j == n - 1:
            return parent
        if j == n - 1 or (ra[i] <= rb[j] and i < m - 1):
            i += 1
            parent[i] = m + j
        else:
            j += 1
            parent[m + j] = i


def _tree_flows(m: int, n: int, parent, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The plan of the unique arc flows on a spanning tree supporting the
    marginals, zero off the tree.

    Row nodes are 0..m-1, column nodes m..m+n-1, and parent[k] is node
    k's neighbour towards row node 0 (parent[0] == -1). A list of another
    length, a link inside one side or a cycle is rejected as not spanning.
    Computed by leaf elimination directly from a and b, so the flows
    carry no pivot roundoff; sub-roundoff negatives are zeroed. Each node
    keeps only its degree and the XOR of its neighbours, so a leaf's one
    remaining neighbour is that XOR; leaves are eliminated from the same
    stack in the same order as with explicit neighbour sets, and the
    flows are summed in that order.
    """
    if len(parent) != m + n or parent[0] != -1:
        raise InternalInvariantError("tree is not spanning: not a parent list")
    net = np.concatenate([a, -b]).tolist()
    degree, others = [1] * (m + n), list(parent)
    degree[0] = others[0] = 0
    rows, cols = range(m), range(m, m + n)
    for k in range(1, m + n):
        p = parent[k]
        if p not in (cols if k < m else rows):
            raise InternalInvariantError(f"tree is not spanning: link {k}-{p}")
        degree[p] += 1
        others[p] ^= k
    leaves = [k for k, d in enumerate(degree) if d == 1]
    pop, push = leaves.pop, leaves.append
    plan = np.zeros((m, n))
    placed = 0
    while leaves:
        u = pop()
        if not degree[u]:
            continue
        w, f = others[u], net[u]
        if u < m:
            plan[u, w - m] = f
        else:
            plan[w, u - m] = -f
        placed += 1
        net[w] += f
        degree[w] -= 1
        others[w] ^= u
        if degree[w] == 1:
            push(w)
    if placed != m + n - 1 or plan.min() < -1e-9:
        raise InternalInvariantError(
            "tree is not spanning with nonnegative flows for these marginals"
        )
    # zero sub-roundoff negatives and -0.0 too, which max(f, 0.0) keeps
    # and JSON prints as -0
    plan[plan <= 0.0] = 0.0
    return plan


def _arc(m: int, child: int, parent: int) -> tuple[int, int]:
    """The cell (row, column) of the tree arc between child and parent."""
    return (child, parent - m) if child < m else (parent, child - m)


@dataclass(frozen=True, eq=False)
class HungTree:
    """A simplex basis: a parent list hung from row node 0 (see
    _tree_flows) and the read-only plan leaf elimination writes for it
    from the marginals a and b. Its walk is made once, when first used.

    duals are the potentials, rows' then columns', that the final pricing
    of the solve that built the record certified, read-only; a record
    built from a bare parent list, the northwest start among them,
    carries None."""

    parent: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray
    duals: np.ndarray | None = field(default=None, repr=False)
    plan: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a, b = np.array(self.a, dtype=float), np.array(self.b, dtype=float)
        plan = _tree_flows(a.size, b.size, self.parent, a, b)
        duals = None if self.duals is None else np.array(self.duals, dtype=float)
        for name, value in (("a", a), ("b", b), ("plan", plan), ("duals", duals)):
            if value is not None:
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "parent", tuple(self.parent))

    @cached_property
    def walk(self) -> tuple:
        """Each node's depth, flow to its parent (which names the arc) and
        neighbours, parent first; the other nodes in preorder, their arcs'
        cells. The lists are the record's own: a solve copies them to pivot."""
        parent, plan, (m, n) = self.parent, self.plan, self.plan.shape
        nbrs = [[]] + [[p] for p in parent[1:]]
        for k in range(1, m + n):
            nbrs[parent[k]].append(k)
        depth, flow, order, cells = [0] * (m + n), [0.0] * (m + n), [], []
        stack = nbrs[0][:]
        while stack:
            k = stack.pop()
            p = parent[k]
            i, j = _arc(m, k, p)
            depth[k], flow[k] = depth[p] + 1, plan.item(i, j)
            order.append(k)
            cells.append(i * n + j)
            stack += nbrs[k][1:]
        return depth, flow, nbrs, order, np.array(cells)

    def potentials(self, cost: np.ndarray) -> list[float]:
        """Potentials tight on the tree, u_0 = 0, in one pass down the preorder."""
        *_, order, cells = self.walk
        parent, pot = self.parent, [0.0] * len(self.parent)
        for k, c in zip(order, cost.take(cells).tolist()):
            pot[k] = c - pot[parent[k]]
        return pot


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


def _dual_bound(a, b, cmax: float, pot, reduced, at=-math.inf) -> tuple[float, float]:
    """The weak-duality bound of one pricing and its rounding margin: the
    one bound on which _transport_simplex refuses a trial and certifies
    the plan it returns.

    cmax is max|c_ij|, pot any potentials, the rows' pot_i and then the
    columns' v_j: a pricing's, or the duals a start record carries from
    the solve that certified it, and reduced their reduced costs
    fl(fl(c_ij - pot_i) - v_j). The row potentials are raised by the row
    minima, u_i = pot_i + min_j reduced_ij, in exact arithmetic the
    c-transform of v, so that (u, v) is dual feasible up to rounding
    whatever v is. Returns (bound, margin): bound = fl(a @ u) + fl(b @ v),
    which less margin, the floor, is at most fl(sum(plan * cost)) for the
    plan leaf elimination writes from a and b on any spanning tree. When
    the bound alone is below at, so is the floor, and the margin, whose
    maxima are worked out only when they can matter, is given as 0.0.
    """
    m, n = a.size, b.size
    u = pot[:m] + reduced.min(axis=1)
    bound = float(a @ u) + float(b @ pot[m:])
    if bound < at:
        return bound, 0.0
    # With eps = 2**-53, s = max|C| + max|pot_rows| + max|u| + max|v|,
    # d = |sum a - sum b|, M = max(1, sum a, sum b) and r, q the row and
    # column sums of the solve's plan P >= 0, whose mass is M up to rounding:
    # - each reduced cost fl(fl(c_ij - pot_i) - v_j) is within
    #   (2 + eps) eps s of c_ij - pot_i - v_j, and u_i rounds
    #   pot_i + min_j of them within eps |u_i| / (1 - eps), so
    #   u_i + v_j - c_ij <= 4 eps s in every cell and
    #   sum P C >= r.u + q.v - 4 eps s M.
    # - leaf elimination leaves each node's marginal off by the rounding
    #   of its own sum, at most 2 deg eps times its mass, 2 (m + n) eps M
    #   in all. A flow zeroed as a rounding negative carries at most that
    #   error and moves two marginals, and the last node takes the
    #   imbalance d (computed within (m + n) eps M), so
    #   |r - a|_1 + |q - b|_1 <= d + 12 (m + n)^2 eps M, each unit of which
    #   shifts r.u + q.v by at most s.
    # - fl(a @ u) + fl(b @ v) is within (m + n + 1) eps s M of a.u + b.v.
    # - fl(sum(P * C)) is within (mn + 1) eps max|C| M of sum P C, and the
    #   caller's subtraction, of the margin from the bound or of the bound
    #   from the cost, rounds once.
    # The sum, at most (12 (m + n)^2 + mn + m + n + 7) eps s M + d s, is
    # below (16 (m + n)^2 eps M + d) s, as mn + m + n + 7 <= 4 (m + n)^2.
    scale = cmax + sum(float(np.abs(x).max()) for x in (pot[:m], u, pot[m:]))
    sa, sb = float(a.sum()), float(b.sum())
    mass = max(1.0, sa, sb)
    return bound, (16 * (m + n) ** 2 * 2.0**-53 * mass + abs(sa - sb)) * scale


def _transport_simplex(
    a: np.ndarray, b: np.ndarray, cost: np.ndarray, start=None, refuse_at=None
) -> tuple[HungTree | None, float, SolveStats]:
    """Minimize <cost, plan> over the transportation polytope.

    Returns (tree, cost, stats): tree the optimal spanning tree as a
    HungTree, cost its read-only plan's cost fl(sum(plan * cost)), which
    the final pricing certifies optimal, and stats the pivot counts. A tree
    optimal for one cost matrix is a feasible start for any cost matrix
    with the same marginals; a start made for other marginals raises
    InternalInvariantError, as a record that does not span its problem
    or needs negative flows does when it is built, and a cost matrix
    with an entry that is not finite, or so large that a potential or
    reduced cost could overflow, raises Unsupported.
    Pricing is most-negative reduced cost, falling back to Bland's rule
    (first negative cell in row-major order) whenever a run of
    degenerate pivots suggests stalling; Bland's rule cannot cycle, so
    the fallback guarantees termination. A reduced cost counts as
    negative below -eps, eps = 1e-12 max|c_ij|, relative to the costs
    alone, so that scaling them by a power of two scales every pricing
    and leaves the pivots as they are. The leaving arc is the
    minimum-ratio cell with lexicographic tie-break, and the final flows
    are recomputed from the marginals on the optimal tree.

    The set-up takes the start's walk down from row node 0 (each other
    node's depth and the flow on the arc to its parent, which names the
    arc) and the potentials in one pass down its preorder. Pivots rewrite
    the walk, so the record's is copied at the first pivot, whichever
    record it is: no solve writes to a record's walk, and a solve that
    makes no pivot copies nothing. A pivot climbs from both ends of the
    entering cell to their lowest common ancestor, which gives the
    cycle. The leaving arc cuts off the subtree below its child;
    that subtree alone is re-hung from the entering arc, reversing the
    parent path between them, and walked for its new depths; the walk
    marks it in a mask of the nodes. The potentials of the side holding
    the entering column, the subtree or the rest, are shifted through
    that mask. Every float operation is the one a walk of the whole tree
    would make, so plans, trees and stats are bit for bit those of the
    neighbour-set pivot loop kept as a reference in the tests.

    Each pricing gives the weak-duality bound of _dual_bound, which less
    its margin, the floor, is at most the cost the solve returns. The
    certificate is the final pricing's: no reduced cost lies below -eps
    there, so the returned cost may exceed that bound by at most the
    margin plus eps times the mass sum(a); a larger gap raises
    InternalInvariantError. The floor holds whatever the potentials are,
    so a wrong tree or wrong potentials can only make the certificate
    fail: no plan costlier than the optimum by more than twice the margin
    plus that allowance passes.

    With refuse_at given, the solve may refuse instead, but only once it
    has proved that the cost it would return is at least refuse_at: when
    the floor of a pricing, the last one included, reaches refuse_at, it
    returns (None, floor, stats), stats the pivots made so far. A solve
    ending above refuse_at thus also skips its final leaf elimination and
    certificate. A start that a solve built carries the duals its
    certificate priced (HungTree.duals), and the floor holds for any
    potentials: the cost is priced against those duals first, and once
    their floor reaches refuse_at the solve returns (None, floor,
    SolveStats(0, 0, 0)) before it reads the walk or makes a potentials
    pass. A solve that does not refuse returns what it returns without
    refuse_at, bit for bit; one that would end below refuse_at never
    refuses, as its floors are at most its cost.
    """
    m, n = cost.shape
    cmax = float(np.abs(cost).max())
    # a tree's potentials are sums of at most m + n - 1 costs and its
    # reduced costs of 2 (m + n) - 1, so with this finite none overflows
    if not math.isfinite(4 * (m + n) * cmax):
        raise Unsupported("cost matrix has entries too large or not finite")
    eps = 1e-12 * cmax
    tree = HungTree(_northwest_tree(a, b), a, b) if start is None else start
    if tree.a.tobytes() != a.tobytes() or tree.b.tobytes() != b.tobytes():
        raise InternalInvariantError("simplex start was made for other marginals")
    reduced = None
    if refuse_at is not None and tree.duals is not None:
        # the floor holds for any potentials: price the cost against the
        # start's certified duals before the set-up
        duals = tree.duals
        reduced = np.subtract(cost, duals[:m, None])
        reduced -= duals[None, m:]
        bound, margin = _dual_bound(a, b, cmax, duals, reduced, refuse_at)
        if bound - margin >= refuse_at:
            return None, bound - margin, SolveStats(0, 0, 0)
    parent, (depth, flow, nbrs, *_) = tree.parent, tree.walk
    pot = np.array(tree.potentials(cost))
    rows, cols = pot[:m, None], pot[None, m:]
    stall_limit = 30 + (m + n) // 2
    stalled = 0
    degenerate = bland = 0
    for pivots in range(_pivot_budget(m, n)):
        reduced = np.subtract(cost, rows, out=reduced)
        reduced -= cols
        if refuse_at is not None:
            bound, margin = _dual_bound(a, b, cmax, pot, reduced, refuse_at)
            if bound - margin >= refuse_at:
                return None, bound - margin, SolveStats(pivots, degenerate, bland)
        if stalled <= stall_limit:
            flat = int(reduced.argmin())
            if reduced.item(flat) >= -eps:
                break
        else:
            candidates = np.flatnonzero((reduced < -eps).ravel())
            if candidates.size == 0:
                break
            flat = int(candidates[0])
            bland += 1
        ei, ej = divmod(flat, n)
        delta = reduced.item(flat)
        # pivots rewrite the tree: at the first, copy the parent list and
        # the record's walk, which other solves may share
        if not pivots:
            parent = list(parent)
            depth, flow, nbrs = depth[:], flow[:], [x[:] for x in nbrs]
            # a shift by delta lowers row potentials and raises column ones
            sign = np.ones(m + n)
            sign[m:] = -1.0
            marks = bytearray(m + n)
            side = np.frombuffer(marks, dtype=bool)

        # climb from both ends of the entering cell (ei, ej) to their
        # lowest common ancestor. The tree path from column node m + ej to
        # row node ei has odd length; its arcs, each named by its child
        # node, alternate signs, starting at -1 at both ends
        i, j = ei, m + ej
        up_i: list[int] = []
        up_j: list[int] = []
        while i != j:
            if depth[i] >= depth[j]:
                up_i.append(i)
                i = parent[i]
            else:
                up_j.append(j)
                j = parent[j]
        cycle = up_j + up_i[::-1]
        minus, plus = cycle[::2], cycle[1::2]
        theta = min(map(flow.__getitem__, minus))
        _, out = min((_arc(m, k, parent[k]), k) for k in minus if flow[k] <= theta)
        if theta <= 0.0:
            stalled += 1
            degenerate += 1
        else:
            stalled = 0

        for k in plus:
            flow[k] += theta
        for k in minus:
            flow[k] -= theta
        cut = parent[out]
        nbrs[out].remove(cut)
        nbrs[cut].remove(out)
        nbrs[ei].append(m + ej)
        nbrs[m + ej].append(ei)

        # the leaving arc cuts off the subtree below out, which holds one
        # end of the entering arc; re-hang it from the other end by
        # reversing the path up to out, each arc's flow moving to the
        # child that now names it, then walk it for the new depths
        x, y = (ei, m + ej) if out in up_i else (m + ej, ei)
        k, up, f = x, y, theta
        while True:
            nxt, fk = parent[k], flow[k]
            parent[k], flow[k] = up, f
            if k == out:
                break
            k, up, f = nxt, k, fk
        # the side holding m + ej has its potentials shifted by the old
        # reduced cost so the entering arc becomes tight: the cut subtree
        # if it holds m + ej, else every node outside it. The walk marks
        # the subtree in side as it goes
        inside = x != ei
        side.fill(not inside)
        depth[x], marks[x] = depth[y] + 1, inside
        stack = [x]
        while stack:
            k = stack.pop()
            up, below = parent[k], depth[k] + 1
            for w in nbrs[k]:
                if w != up:
                    depth[w], marks[w] = below, inside
                    stack.append(w)
        np.subtract(pot, sign * delta, out=pot, where=side)
    else:
        raise InternalInvariantError("transportation simplex failed to terminate")

    # final flows recomputed from the marginals, so the plan is exact;
    # with no pivot the tree is the start's record, plan and duals and all
    if pivots:
        tree = HungTree(parent, a, b, pot)
    paid = float((tree.plan * cost).sum())
    bound, margin = _dual_bound(a, b, cmax, pot, reduced)
    if paid - bound > margin + eps * float(a.sum()):
        raise InternalInvariantError(
            "optimality certificate failed: the cost exceeds its dual bound "
            f"by {paid - bound:.3e}, its margin by more than eps sum(a)"
        )
    return tree, paid, SolveStats(pivots, degenerate, bland)


def solve_w2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    """Exact Wasserstein-2 distance and an optimal plan."""
    tree, cost, _ = _transport_simplex(
        mu.weights, nu.weights, sq_dists(mu.atoms, nu.atoms)
    )
    return TransportResult(
        cost=cost, w2=math.sqrt(max(cost, 0.0)), plan=Coupling(mu, nu, tree.plan)
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
    if not same_measure(c12.target, c23.source):
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
    iters: int = SEARCH_ITERS,
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

    Stops when Wolfe's gap |p|^2 - min_v <p, z_v> is within SEARCH_TOL
    times the largest squared norm of the active points and the new
    vertex's point (Wolfe's relative test: the gap is computed from
    these points and rounds with them, and both scale alike with the
    coordinates and the target), or after iters major cycles. It also
    stops at the last point when the affine system becomes singular or
    a major cycle fails to decrease |p|^2, which only rounding can
    cause. The residuals recorded at the major cycles decrease; the
    final one, recomputed from the returned plan, can exceed the last
    of them by rounding only.
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
        tree = _transport_simplex(
            mu.weights, nu.weights, x @ p.reshape(t_mat.shape) @ y.T, start=tree
        )[0]
        z = point(tree.plan)
        gap = norm2 - float(p @ z)
        candidates = np.vstack([points, z])
        scale = float(np.einsum("ij,ij->i", candidates, candidates).max())
        # d d' + 2 points are affinely dependent: the system is singular
        if gap <= SEARCH_TOL * scale or len(plans) > t_mat.size:
            break
        trial = _minor_cycles(candidates, np.append(weights, 0.0))
        if trial is None:
            break
        keep, lam = trial
        trial_p = lam @ candidates[keep]
        if float(trial_p @ trial_p) >= norm2:
            break
        plans.append(tree.plan)
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
        "plan": c.plan.tolist(),
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
