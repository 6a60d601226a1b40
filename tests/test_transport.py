import inspect
import json
import sys
import types
from collections import Counter, namedtuple
from dataclasses import astuple
from fractions import Fraction
from functools import partial
from operator import le

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probframes import cli, transport
from probframes.duals import certify
from probframes.errors import (
    DimMismatch,
    InternalInvariantError,
    MarginalMismatch,
    ProbFramesError,
    Unsupported,
)
from probframes.fixtures import load_coupling, load_measure, near_dirac_family
from probframes.jsonio import dumps
from probframes.measures import COALESCE_TOL, DiscreteMeasure, dirac, uniform
from probframes.numerics import sq_dists
from probframes.perturbation import greedy_subsample
from probframes.transport import (
    Coupling,
    coupling_from_dict,
    coupling_to_dict,
    glue,
    graph_coupling,
    mixed_frame_operator,
    optimize_mixed_operator,
    product_coupling,
    push_target,
    solve_w2,
    transport_cost,
    w2_bruteforce,
)


def random_measure(rng, dim, size, uniform_weights=False):
    atoms = rng.standard_normal((size, dim))
    if uniform_weights:
        return uniform(atoms)
    w = rng.uniform(0.1, 1.0, size)
    return DiscreteMeasure(atoms, w / w.sum())


def quantile_cost_1d(mu, nu):
    """Independent oracle: in 1-d the optimal plan is the monotone one.

    Two-pointer merge of the sorted atom lists, pairing mass in
    cumulative order.
    """
    xi = np.argsort(mu.atoms[:, 0])
    yi = np.argsort(nu.atoms[:, 0])
    xs, ws = mu.atoms[xi, 0], mu.weights[xi].copy()
    ys, vs = nu.atoms[yi, 0], nu.weights[yi].copy()
    cost = 0.0
    i = j = 0
    while i < len(xs) and j < len(ys):
        m = min(ws[i], vs[j])
        cost += m * (xs[i] - ys[j]) ** 2
        ws[i] -= m
        vs[j] -= m
        if ws[i] <= 1e-15:
            i += 1
        if j < len(ys) and vs[j] <= 1e-15:
            j += 1
    return cost


def test_coupling_requires_matching_marginals():
    mu = uniform([[0.0], [1.0]])
    nu = dirac([0.5])
    with pytest.raises(MarginalMismatch):
        Coupling(mu, nu, np.array([[0.7], [0.3]]))
    two = uniform([[0.0], [1.0]])
    with pytest.raises(MarginalMismatch):
        # marginals match but an entry is negative
        Coupling(two, two, np.array([[0.75, -0.25], [-0.25, 0.75]]))


def test_coupling_copies_the_callers_plan():
    two = uniform([[0.0], [1.0]])
    plan = np.array([[0.5, 0.0], [0.0, 0.5]])
    c = Coupling(two, two, plan)
    assert plan.flags.writeable
    plan[0] = [0.0, 0.5]
    assert c.plan.tolist() == [[0.5, 0.0], [0.0, 0.5]]


def test_product_and_graph_couplings():
    mu = uniform([[0.0], [1.0]])
    nu = uniform([[2.0], [3.0]])
    prod = product_coupling(mu, nu)
    assert np.abs(prod.plan - 0.25).max() < 1e-15
    g = graph_coupling(mu, mu.atoms + 1.0)
    assert np.abs(g.plan - 0.5 * np.eye(2)).max() < 1e-15
    assert abs(transport_cost(g) - 1.0) < 1e-15


# images a, b, a, c, b: non-adjacent duplicates merging into a, b, c
A, B, C = [5.0, -1.0], [0.25, 2.0], [0.0, 0.0]
SCATTERED_IMAGES = np.array([A, B, A, C, B])
FIVE_WEIGHTS = np.array([0.1, 0.15, 0.2, 0.25, 0.3])


def test_images_that_are_not_an_atom_array_are_bad_input():
    # a flat list is N points on the line, as for a measure's atoms; a
    # deeper array is refused like one, for graphs and pushed targets
    mu = uniform([[0.0], [1.0]])
    assert graph_coupling(mu, [2.0, 3.0]).target.atoms.tolist() == [[2.0], [3.0]]
    for images in (np.zeros((2, 2, 2)), [[np.nan], [1.0]]):
        with pytest.raises(DimMismatch, match="atoms"):
            graph_coupling(mu, images)
        with pytest.raises(DimMismatch, match="atoms"):
            push_target(product_coupling(mu, mu), images)


def test_graph_coupling_merges_images():
    mu = uniform([[0.0], [1.0]])
    g = graph_coupling(mu, np.zeros((2, 1)))
    assert g.target.size == 1
    assert g.plan.shape == (2, 1)

    w = FIVE_WEIGHTS
    mu = DiscreteMeasure(np.arange(10.0).reshape(5, 2), w)
    g = graph_coupling(mu, SCATTERED_IMAGES)
    # first-occurrence order, masses summed in atom order
    assert g.target.atoms.tolist() == [A, B, C]
    assert g.target.weights.tolist() == [w[0] + w[2], w[1] + w[4], w[3]]
    expected = np.zeros((5, 3))
    expected[[0, 1, 2, 3, 4], [0, 1, 0, 2, 1]] = w
    assert np.array_equal(g.plan, expected)


def test_push_target_merges_columns():
    mu = uniform([[0.0], [1.0]])
    nu = uniform([[2.0], [3.0]])
    pushed = push_target(product_coupling(mu, nu), np.zeros((2, 1)))
    assert pushed.target.size == 1
    assert np.abs(pushed.plan - 0.5).max() < 1e-15

    w = FIVE_WEIGHTS
    c = product_coupling(
        DiscreteMeasure([[1.0], [-1.0]], [0.3, 0.7]),
        DiscreteMeasure(np.arange(10.0).reshape(5, 2), w),
    )
    pushed = push_target(c, SCATTERED_IMAGES)
    assert pushed.target.atoms.tolist() == [A, B, C]
    assert pushed.target.weights.tolist() == [w[0] + w[2], w[1] + w[4], w[3]]
    p = c.plan
    expected = np.column_stack([p[:, 0] + p[:, 2], p[:, 1] + p[:, 4], p[:, 3]])
    assert np.array_equal(pushed.plan, expected)


@st.composite
def colliding_images(draw):
    """A measure with weights down to 1e-9 and images of its atoms drawn
    from a few points: exact duplicates, copies moved by less than the
    merge radius (COALESCE_TOL times the largest absolute coordinate),
    coordinate scales from 1e-4 to 1e4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size, dim = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-4, 4))
    w = 10.0 ** rng.uniform(-9.0, 0.0, size)
    mu = DiscreteMeasure(scale * rng.standard_normal((size, dim)), w / w.sum())
    points = scale * rng.standard_normal((draw(st.integers(1, size)), dim))
    images = points[rng.integers(0, len(points), size)]
    nudge = rng.standard_normal((size, dim))
    radius = COALESCE_TOL * np.abs(images).max()
    nudge *= 0.5 * radius / np.linalg.norm(nudge, axis=1, keepdims=True)
    images = images + nudge * (rng.random((size, 1)) < 0.5)
    if dim == 1 and draw(st.booleans()):
        images = images.reshape(-1).tolist()  # a flat list of 1-D points
    return mu, images


@settings(max_examples=300, deadline=None, derandomize=True)
@given(colliding_images())
def test_graph_coupling_is_the_pushed_diagonal_coupling(case):
    mu, images = case
    graph = graph_coupling(mu, images)
    pushed = push_target(Coupling(mu, mu, np.diag(mu.weights)), images)
    assert graph.source is mu and pushed.source is mu
    assert graph.target.atoms.tobytes() == pushed.target.atoms.tobytes()
    assert graph.target.weights.tobytes() == pushed.target.weights.tobytes()
    assert graph.plan.tobytes() == pushed.plan.tobytes()


def test_mixed_operator_product_value():
    # product coupling of dirac(1) with {1/2, 1/3}: 1/2*1/2 + 1/2*1/3
    c = product_coupling(load_measure("dirac_one"), load_measure("small_pair"))
    m = mixed_frame_operator(c)
    assert abs(m[0, 0] - 5.0 / 12.0) < 1e-15


def test_w2_against_closed_form_family():
    for k in range(1, 11):
        result = solve_w2(near_dirac_family(k), dirac([1.0]))
        expect = 1.0 / (np.sqrt(2.0) * (k + 1))
        assert abs(result.w2 - expect) < 1e-12


def test_w2_matches_permutation_oracle():
    rng = np.random.default_rng(1001)
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        size = int(rng.integers(1, 7))
        mu = random_measure(rng, dim, size, uniform_weights=True)
        nu = random_measure(rng, dim, size, uniform_weights=True)
        fast = solve_w2(mu, nu)
        slow = w2_bruteforce(mu, nu)
        assert abs(fast.cost - slow.cost) < 1e-9


def test_w2_matches_quantile_oracle():
    rng = np.random.default_rng(77)
    for _ in range(40):
        mu = random_measure(rng, 1, int(rng.integers(2, 12)))
        nu = random_measure(rng, 1, int(rng.integers(2, 12)))
        result = solve_w2(mu, nu)
        assert abs(result.cost - quantile_cost_1d(mu, nu)) < 1e-10


def scaled(m, s):
    return DiscreteMeasure(s * m.atoms, m.weights)


def test_w2_follows_power_of_two_scaling_bit_for_bit():
    # scaling the atoms by s = 2^k scales every squared distance by s^2
    # exactly, and the pricing threshold, relative to max|c|, with them:
    # the pivots, the plan and, scaled by s^2, the cost stay bit for bit
    for seed in range(30):
        rng = np.random.default_rng(seed)
        mu, nu = random_measure(rng, 2, 40), random_measure(rng, 2, 30)
        unit = solve_w2(mu, nu)
        for k in (-45, -40, -30, -20, -10, 10, 20, 40):
            s = 2.0**k
            got = solve_w2(scaled(mu, s), scaled(nu, s))
            assert got.cost.hex() == (s * s * unit.cost).hex()
            assert got.plan.plan.tobytes() == unit.plan.plan.tobytes()


def test_greedy_subsample_follows_power_of_two_scaling():
    for seed in range(10):
        pts = np.random.default_rng(seed).standard_normal((40, 2))
        unit = greedy_subsample(uniform(pts), 8)
        for k in (-20, -30, -40):
            got = greedy_subsample(uniform(2.0**k * pts), 8)
            assert got.atoms.tobytes() == (2.0**k * unit.atoms).tobytes()
            assert got.weights.tobytes() == unit.weights.tobytes()


def test_bruteforce_guards():
    mu = uniform(np.arange(8.0))
    with pytest.raises(Unsupported):
        w2_bruteforce(mu, uniform(np.arange(8.0) + 1.0))
    skew = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    with pytest.raises(Unsupported):
        w2_bruteforce(skew, skew)


@pytest.fixture
def failing_certificate(monkeypatch):
    """Every simplex pricing's dual bound is taken with the first column
    potential raised by t = 1e3 max|c| and that column's reduced costs
    lowered to match: each row's minimum then falls in that column, and
    the bound drops by about t times the other columns' mass. Raising
    every column potential alike would cancel in the c-transform bound,
    so one column alone is moved."""
    bound = transport._dual_bound

    def raised_column(a, b, cmax, pot, reduced, *at):
        pot, reduced = pot.copy(), reduced.copy()
        pot[a.size] += 1e3 * cmax
        reduced[:, 0] -= 1e3 * cmax
        return bound(a, b, cmax, pot, reduced, *at)

    monkeypatch.setattr(transport, "_dual_bound", raised_column)


def test_failed_certificate_is_internal_error(failing_certificate, capsys):
    assert not issubclass(InternalInvariantError, (ProbFramesError, ValueError))
    mu = load_measure("axes_2d")
    with pytest.raises(InternalInvariantError, match="certificate failed"):
        solve_w2(mu, mu)
    assert cli.main(["w2", "axes_2d", "axes_2d"]) == 1
    assert "internal error: InternalInvariantError" in capsys.readouterr().err


def test_failed_certificate_stops_oracle_and_swap_solves(failing_certificate):
    mu = load_measure("axes_2d")
    with pytest.raises(InternalInvariantError, match="certificate failed"):
        optimize_mixed_operator(mu, mu, np.eye(2), iters=5)
    eta = random_measure(np.random.default_rng(8), 2, 10)
    with pytest.raises(InternalInvariantError, match="certificate failed"):
        greedy_subsample(eta, 4)


def test_simplex_rejects_start_trees_that_do_not_fit():
    # rows 0 and 1 are nodes 0 and 1, columns 0 and 1 are nodes 2 and 3
    a, b = np.array([0.2, 0.8]), np.array([0.7, 0.3])
    cost = np.array([[0.0, 1.0], [2.0, 0.5]])
    tree, _, _ = transport._transport_simplex(a, b, cost)
    same, _, _ = transport._transport_simplex(a, b, cost + 1.0, start=tree)
    assert same is tree
    # a record is built from a parent list through the one constructor,
    # which rejects every list that does not fit
    for start in (
        [-1, 2, 0],  # too short
        [-1, 2, 0, 1, 0],  # too long
        [-1, 3, 0, 1],  # 1 and 3 hang from each other: a 2-cycle
        [-1, 0, 0, 1],  # a link between rows 0 and 1
        [2, 2, -1, 1],  # hung from column node 2, not row node 0
        [3, 2, 0, 1],  # a tree hung from row node 0, which has a parent
        [-1, 2, 0, 4],  # a link to a node that does not exist
    ):
        with pytest.raises(InternalInvariantError, match="not spanning"):
            transport._transport_simplex(
                a, b, cost, start=transport.HungTree(start, a, b)
            )
    # spans, but row 0 would have to ship 0.3 of its 0.2 to column 1
    with pytest.raises(InternalInvariantError, match="nonnegative flows"):
        transport._transport_simplex(
            a, b, cost, start=transport.HungTree([-1, 2, 0, 0], a, b)
        )
    # the same tree made for marginals it can carry is no start for a and b
    other = np.array([0.5, 0.5])
    fits = transport.HungTree([-1, 2, 0, 0], other, other)
    with pytest.raises(InternalInvariantError, match="other marginals"):
        transport._transport_simplex(a, b, cost, start=fits)
    # a 3 x 2 problem's tree has the length of a 2 x 3 problem's, but
    # joins nodes of one side there, and the other way round
    c = np.array([0.5, 0.3, 0.2])
    tall = transport._transport_simplex(c, b, np.ones((3, 2)))[0]
    wide = transport._transport_simplex(b, c, np.ones((2, 3)))[0]
    for start, rows, cols in ((tall, b, c), (wide, c, b)):
        with pytest.raises(InternalInvariantError, match="other marginals"):
            transport._transport_simplex(
                rows, cols, np.ones((rows.size, cols.size)), start=start
            )
        with pytest.raises(InternalInvariantError, match="not spanning"):
            transport.HungTree(start.parent, rows, cols)


def test_a_start_made_for_other_marginals_raises():
    rng = np.random.default_rng(5)
    solve = transport._transport_simplex
    fitted = rejected = 0
    for _ in range(60):
        m, n = (int(k) for k in rng.integers(2, 9, 2))
        a0, b0 = rng.uniform(0.1, 1.0, m), rng.uniform(0.1, 1.0, n)
        a0, b0 = a0 / a0.sum(), b0 / b0.sum()
        # the same shape, each weight moved by up to a fifth
        a, b = a0 * rng.uniform(0.8, 1.2, m), b0 * rng.uniform(0.8, 1.2, n)
        a, b = a / a.sum(), b / b.sum()
        cost = rng.standard_normal((m, n))
        made = solve(a0, b0, cost)[0]
        # marginals are matched by their bytes, not by the arrays' identity
        assert solve(a0.copy(), b0.copy(), cost, start=made)[0] is made
        with pytest.raises(InternalInvariantError, match="other marginals"):
            solve(a, b, cost, start=made)
        # its parent list, built for a and b, is a start there when it
        # carries them with nonnegative flows
        try:
            rebuilt = transport.HungTree(made.parent, a, b)
        except InternalInvariantError as refused:
            assert "nonnegative flows" in str(refused)
            rejected += 1
            continue
        tree, got, _ = solve(a, b, cost, start=rebuilt)
        assert tree.a.tobytes() == a.tobytes()
        assert got == pytest.approx(solve(a, b, cost)[1], rel=1e-12, abs=1e-12)
        fitted += 1
    assert fitted > 20 and rejected > 20


def neighbour_set_flows(m, n, adj, a, b):
    """Leaf elimination on explicit neighbour sets, as the solver did
    before it kept degree counts: the reference for bit-identical flows."""
    net = np.concatenate([a, -b])
    neighbors = {k: set(v) for k, v in adj.items()}
    leaves = [k for k in range(m + n) if len(neighbors[k]) == 1]
    flows = {}
    while leaves:
        u = leaves.pop()
        if not neighbors[u]:
            continue
        w = next(iter(neighbors[u]))
        arc = (u, w - m) if u < m else (w, u - m)
        flows[arc] = net[u] if u < m else -net[u]
        net[w] += net[u]
        neighbors[w].discard(u)
        neighbors[u].clear()
        if len(neighbors[w]) == 1:
            leaves.append(w)
    if len(flows) != m + n - 1 or min(flows.values()) < -1e-9:
        raise InternalInvariantError("not spanning")
    # the solver's zeroing, which also turns -0.0 into 0.0
    return {arc: f if f > 0.0 else 0.0 for arc, f in flows.items()}


def flows_plan(m, n, flows):
    """The m x n plan holding each arc's flow in its cell, zero elsewhere."""
    plan = np.zeros((m, n))
    for arc, f in flows.items():
        plan[arc] = f
    return plan


def arc_neighbours(m, n, arcs):
    """Each node's set of neighbours in a list of cells (i, j)."""
    adj = {k: set() for k in range(m + n)}
    for i, j in arcs:
        adj[i].add(m + j)
        adj[m + j].add(i)
    return adj


def tree_arcs(m, parent):
    """The cells (i, j) of a parent list's links k - parent[k], sorted."""
    links = enumerate(parent[1:], 1)
    return sorted((k, p - m) if k < m else (p, k - m) for k, p in links)


def parent_list(m, n, arcs):
    """Hang a spanning tree's cells from row node 0 by a search over
    neighbour sets: the parent list whose links are exactly arcs."""
    adj = arc_neighbours(m, n, arcs)
    parent = [-1] * (m + n)
    stack = [0]
    while stack:
        k = stack.pop()
        for w in adj[k] - {parent[k]}:
            assert w and parent[w] == -1, "the cells close a cycle"
            parent[w] = k
            stack.append(w)
    assert len(arcs) == m + n - 1 and tree_arcs(m, parent) == sorted(arcs)
    return parent


def random_spanning_tree(rng, m, n):
    """Uniformly shuffled attachment: each new node joins a random
    already-joined node of the other side."""
    order = rng.permutation(m + n)
    first_row = next(k for k in order if k < m)
    first_col = next(k for k in order if k >= m)
    arcs = [(first_row, first_col - m)]
    joined = {first_row, first_col}
    for k in order:
        if k in joined:
            continue
        side = [w for w in joined if (w >= m) == (k < m)]
        w = side[int(rng.integers(len(side)))]
        arcs.append((k, w - m) if k < m else (w, k - m))
        joined.add(k)
    return arcs


def test_tree_flows_match_neighbour_sets():
    rng = np.random.default_rng(2718)
    checked = raised = 0
    for case in range(400):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if case % 4 == 0:
            # equal denominators: degenerate northwest-corner trees
            a = rng.integers(1, 4, m).astype(float)
            b = rng.integers(1, 4, n).astype(float)
            a, b = a / a.sum(), b / b.sum()
        else:
            a, b = rng.uniform(0.0, 1.0, m) ** 3 + 1e-12, rng.uniform(0.1, 1.0, n)
            a, b = a / a.sum(), b / b.sum()
        if case % 2 == 0:
            parent = transport._northwest_tree(a, b)
            arcs = tree_arcs(m, parent)
            assert parent == parent_list(m, n, arcs)
        else:
            arcs = random_spanning_tree(rng, m, n)
            parent = parent_list(m, n, arcs)
        adj = arc_neighbours(m, n, arcs)
        try:
            want = neighbour_set_flows(m, n, adj, a, b)
        except InternalInvariantError:
            with pytest.raises(InternalInvariantError):
                transport._tree_flows(m, n, parent, a, b)
            raised += 1
            continue
        # bit for bit: each tree arc's cell holds its flow, +0.0 elsewhere
        got = transport._tree_flows(m, n, parent, a, b)
        assert got.tobytes() == flows_plan(m, n, want).tobytes()
        checked += 1
    # optimal trees of degenerate (uniform, tied) problems
    for size in range(1, 9):
        a = np.full(size, 1.0 / size)
        b = np.full(size + 1, 1.0 / (size + 1))
        cost = rng.integers(0, 3, (size, size + 1)).astype(float)
        tree = transport._transport_simplex(a, b, cost)[0].parent
        adj = arc_neighbours(size, size + 1, tree_arcs(size, tree))
        want = neighbour_set_flows(size, size + 1, adj, a, b)
        got = transport._tree_flows(size, size + 1, tree, a, b)
        assert got.tobytes() == flows_plan(size, size + 1, want).tobytes()
    assert checked > 200 and raised > 20


def tied_lattice_problem(seed):
    """Marginals and cost of two 1-D measures on the lattice 0..3, with
    repeated atoms and equal or small-integer weights: many tied costs
    and degenerate trees."""
    rng = np.random.default_rng(seed)
    sides = []
    for size in rng.integers(1, 13, 2):
        atoms = rng.integers(0, 4, (size, 1)).astype(float)
        w = rng.integers(1, 4, size).astype(float) if seed % 2 else np.ones(size)
        sides.append((atoms, w / w.sum()))
    (x, a), (y, b) = sides
    return a, b, sq_dists(x, y)


def test_plans_have_no_negative_zeros():
    # a zero flow summed as -0.0 used to reach the plan and print as -0
    for seed in range(400):
        a, b, cost = tied_lattice_problem(seed)
        tree, _, _ = transport._transport_simplex(a, b, cost)
        assert not np.signbit(tree.plan).any()
        warm = transport._transport_simplex(a, b, cost[::-1].copy(), start=tree)[0]
        assert not np.signbit(warm.plan).any()
    mu = load_measure("shifted_gauss_100")
    plan = solve_w2(mu, mu).plan.plan
    assert not np.signbit(plan).any() and "-" not in dumps(plan.tolist())
    doubled = DiscreteMeasure(np.vstack([mu.atoms] * 2), np.tile(mu.weights, 2) / 2)
    assert not np.signbit(solve_w2(doubled, mu).plan.plan).any()


def neighbour_set_duals(m, n, adj, cost):
    """Potentials by a NaN-marked stack walk from row 0, as the solver
    computed them before it had one tree walk: the reference for
    bit-identical potentials."""
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack = [0]
    while stack:
        k = stack.pop()
        if k < m:
            for w in adj[k]:
                j = w - m
                if np.isnan(v[j]):
                    v[j] = cost[k, j] - u[k]
                    stack.append(w)
        else:
            j = k - m
            for w in adj[k]:
                if np.isnan(u[w]):
                    u[w] = cost[w, j] - v[j]
                    stack.append(w)
    return u, v


ReferenceTree = namedtuple("ReferenceTree", "parent plan")


def neighbour_set_simplex(a, b, cost, start=None, pivots_seen=None):
    """The pivot loop with its own path and component searches over
    neighbour sets, as the solver ran before it kept a rooted tree: the
    reference for bit-identical plans, trees, costs, potentials and
    stats. It turns its start and final tree between parent lists and
    cells with tree_arcs and parent_list, and its set-up and final flows
    come from neighbour_set_flows, so it shares no tree code with the
    solver but the northwest corner start; its trees are ReferenceTree
    records holding only their parent list and plan. It certifies its
    final pricing through transport._dual_bound as the solver does,
    where certified reads its potentials. pivots_seen, if given, collects
    (cycle length, nodes cut off from row node 0, whether the shifted
    component holds row node 0) for every pivot."""
    m, n = cost.shape
    cmax = float(np.abs(cost).max())
    eps = 1e-12 * cmax
    tree = transport._northwest_tree(a, b) if start is None else start.parent
    adj = arc_neighbours(m, n, tree_arcs(m, tree))
    flows = neighbour_set_flows(m, n, adj, a, b)
    u, v = neighbour_set_duals(m, n, adj, cost)
    reduced = np.empty_like(cost)
    stall_limit = 30 + (m + n) // 2
    stalled = degenerate = bland = 0
    for pivots in range(transport._pivot_budget(m, n)):
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
        parent = {ei: None}
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
        minus, plus = [], []
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
        comp = {m + ej}
        stack = [m + ej]
        while stack:
            k = stack.pop()
            for w in adj[k]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        if pivots_seen is not None:
            cut = m + n - len(comp) if 0 in comp else len(comp)
            pivots_seen.append((len(path) - 1, cut, 0 in comp))
        for k in comp:
            if k < m:
                u[k] -= delta
            else:
                v[k - m] += delta
        adj[ei].add(m + ej)
        adj[m + ej].add(ei)
    else:
        raise InternalInvariantError("transportation simplex failed to terminate")
    flows = neighbour_set_flows(m, n, adj, a, b)
    plan = flows_plan(m, n, flows)
    paid = float((plan * cost).sum())
    bound, margin = transport._dual_bound(a, b, cmax, np.concatenate([u, v]), reduced)
    if paid - bound > margin + eps * float(a.sum()):
        raise InternalInvariantError("optimality certificate failed")
    tree = ReferenceTree(tuple(parent_list(m, n, list(flows))), plan)
    stats = transport.SolveStats(pivots, degenerate, bland)
    return tree, paid, stats


def seeded_transport_problem(seed):
    """Marginals, a cost and a second cost on the same marginals for a
    warm start. Gaussian, lattice-tied or duplicated atoms, uniform or
    cubed weights, coordinate scales 1e-3 to 1e3; in each five cases one
    has a single row, one a single column and one m = n."""
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(1, 25, 2))
    m, n = {0: (1, n), 1: (m, 1), 2: (m, m)}.get(seed % 5, (m, n))
    dim, scale = int(rng.integers(1, 4)), 10.0 ** int(rng.integers(-3, 4))
    return warm_problem(*(
        sampled_measure(
            rng, FAMILIES[rng.integers(3)], rng.integers(2), size, dim, scale
        )
        for size in (m, n)
    ))


def warm_problem(mu, nu):
    """The W2 cost of mu and nu, and the cost with nu's atoms reversed,
    which the first cost's optimal tree starts."""
    cost, other = sq_dists(mu.atoms, nu.atoms), sq_dists(mu.atoms, nu.atoms[::-1])
    return mu.weights, nu.weights, cost, other


def certified(solve, *args, **options):
    """solve(*args, **options) with the potentials of its final pricing,
    the last it handed to transport._dual_bound, which certifies the
    plan: (tree, cost, stats, u, v), or the refusal (None, floor, stats)
    it returned, which certifies nothing."""
    bound, seen = transport._dual_bound, []

    def capture(a, b, cmax, pot, reduced, *at):
        seen.append((pot[: a.size].copy(), pot[a.size :].copy()))
        return bound(a, b, cmax, pot, reduced, *at)

    transport._dual_bound = capture
    try:
        result = solve(*args, **options)
    finally:
        transport._dual_bound = bound
    return result if result[0] is None else (*result, *seen[-1])


def result_bytes(result):
    """(plan bytes, sorted tree cells, cost bits, u bytes, v bytes, stats)
    of a certified simplex solve, whose tree's parent list is hung from
    row node 0."""
    tree, cost, stats, u, v = result
    assert tree.parent[0] == -1
    arcs = tree_arcs(tree.plan.shape[0], tree.parent)
    return (
        tree.plan.tobytes(), arcs, cost.hex(), u.tobytes(), v.tobytes(), astuple(stats)
    )


def cold_then_warm(solve, problem):
    """result_bytes of a cold solve and of a warm solve of the second
    cost from the cold solve's tree."""
    a, b, cost, other = problem
    cold = certified(solve, a, b, cost)
    warm = certified(solve, a, b, other, start=cold[0])
    return [result_bytes(cold), result_bytes(warm)]


def test_simplex_matches_the_neighbour_set_pivot_loop():
    pivots = degenerate = 0
    for seed in range(300):
        problem = seeded_transport_problem(seed)
        want = cold_then_warm(neighbour_set_simplex, problem)
        assert cold_then_warm(transport._transport_simplex, problem) == want
        pivots += sum(stats[0] for *_, stats in want)
        degenerate += sum(stats[1] for *_, stats in want)
    assert pivots > 8000 and degenerate > 500


def random_tree_duals(seed):
    """A random spanning tree (as an arc list), marginals it carries with
    positive flows, and a tied or scaled cost."""
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(1, 13, 2))
    if seed % 2:
        cost = rng.integers(0, 4, (m, n)).astype(float)
    else:
        cost = 10.0 ** int(rng.integers(-3, 4)) * rng.standard_normal((m, n))
    arcs = random_spanning_tree(rng, m, n)
    rows, cols = np.array(arcs).T
    flows = rng.uniform(0.5, 1.5, len(arcs))
    a, b = np.bincount(rows, flows, m), np.bincount(cols, flows, n)
    return m, n, arcs, a, b, cost


def same_duals(hung_tree, problem):
    """Whether the set-up potentials of the tree record class hung_tree
    match the reference walk bit for bit."""
    m, n, arcs, a, b, cost = problem
    pot = np.array(hung_tree(parent_list(m, n, arcs), a, b).potentials(cost))
    want = neighbour_set_duals(m, n, arc_neighbours(m, n, arcs), cost)
    return all(g.tobytes() == w.tobytes() for g, w in zip((pot[:m], pot[m:]), want))


def test_tree_duals_match_the_neighbour_set_walk():
    for seed in range(300):
        assert same_duals(transport.HungTree, random_tree_duals(seed))


def test_deep_trees_match_the_neighbour_set_pivot_loop(monkeypatch):
    pivots_seen = []
    solves = []
    solve = transport._transport_simplex

    def recording(a, b, cost, start=None, refuse_at=None):
        if start is not None:
            solves.append((a, b, cost, start))
        return solve(a, b, cost, start=start)

    # every warm swap solve of the greedy search, each started from the
    # incumbent's tree, whose columns the trial keeps, solved in full
    monkeypatch.setattr(transport, "_transport_simplex", recording)
    greedy_subsample(load_measure("shifted_gauss_100"), 12)
    monkeypatch.undo()
    assert len(solves) > 50
    for a, b, cost, start in solves:
        want = certified(neighbour_set_simplex, a, b, cost, start, pivots_seen)
        got = certified(solve, a, b, cost, start=start)
        assert result_bytes(got) == result_bytes(want)
    # cold solves, and warm ones with the target atoms reversed
    rng = np.random.default_rng(60)
    for m, n in ((60, 150), (150, 60), (100, 100)):
        mu, nu = random_measure(rng, 2, m), random_measure(rng, 2, n)
        problem = warm_problem(mu, nu)
        reference = partial(neighbour_set_simplex, pivots_seen=pivots_seen)
        want = cold_then_warm(reference, problem)
        assert cold_then_warm(solve, problem) == want
    cycles, cuts, root_side = zip(*pivots_seen)
    assert max(cycles) > 40 and max(cuts) > 100
    # the shifted side holds m + ej: both the cut subtree and the root side
    assert 0 < sum(root_side) < len(root_side)


def mutated_transport(monkeypatch, old, new):
    """A copy of the transport module with one piece of its source replaced."""
    source = inspect.getsource(transport)
    assert source.count(old) == 1
    module = types.ModuleType("probframes.mutated_transport")
    module.__package__ = "probframes"
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), transport.__file__, "exec"), module.__dict__)
    return module


def test_reference_comparisons_catch_mutated_walks(monkeypatch):
    # cycle signs flipped: the solver pivots the wrong way round the
    # cycle and runs out of pivots, or returns another plan
    flipped = mutated_transport(
        monkeypatch, "cycle[::2], cycle[1::2]", "cycle[1::2], cycle[::2]"
    )
    # the mutant certifies through transport._dual_bound, where certified
    # reads its potentials
    monkeypatch.setattr(
        flipped, "_dual_bound", lambda *args: transport._dual_bound(*args)
    )
    for seed in range(3):
        rng = np.random.default_rng(seed)
        problem = warm_problem(random_measure(rng, 2, 3), random_measure(rng, 2, 4))
        want = cold_then_warm(neighbour_set_simplex, problem)
        try:
            assert cold_then_warm(flipped._transport_simplex, problem) != want
        except InternalInvariantError:
            pass
    # potentials rooted at column 0 (v_0 = 0): the same reduced costs up
    # to rounding, other bits
    rerooted = mutated_transport(
        monkeypatch,
        "return pot",
        "return [p + pot[len(self.a)] if k < len(self.a) "
        "else p - pot[len(self.a)] for k, p in enumerate(pot)]",
    )
    assert not any(
        same_duals(rerooted.HungTree, random_tree_duals(seed)) for seed in range(5)
    )


def test_certificate_fails_a_solve_that_stops_at_its_first_pricing(monkeypatch):
    # the pivot loop left at its first pricing returns the northwest corner
    # tree, which is not optimal here: the certificate fails at every
    # scale, also at 2^-40 and 2^-20, where a certificate with the floor
    # 1e-9 max(1, max|c|) passed it
    stopped = mutated_transport(
        monkeypatch, "reduced.item(flat) >= -eps", "reduced.item(flat) >= -math.inf"
    )
    rng = np.random.default_rng(21)
    mu, nu = random_measure(rng, 2, 6), random_measure(rng, 2, 7)
    a, b = mu.weights, nu.weights
    northwest = transport.HungTree(transport._northwest_tree(a, b), a, b)
    for k in (-40, -20, 0, 20):
        cost = sq_dists(2.0**k * mu.atoms, 2.0**k * nu.atoms)
        assert exact_tree_gap(a, b, cost, northwest)[0] > 0
        with pytest.raises(InternalInvariantError, match="certificate failed"):
            stopped._transport_simplex(a, b, cost)
        _, paid, stats = transport._transport_simplex(a, b, cost)
        assert stats.pivots > 0 and paid < float((northwest.plan * cost).sum())


def reports_its_plans_cost(result, cost):
    """Whether a solve returned its tree's plan's cost fl(sum(plan * cost)),
    bit for bit, as a float."""
    tree, reported, *_ = result
    want = float((tree.plan * cost).sum())
    return type(reported) is float and reported.hex() == want.hex()


def test_solve_stats_repeat():
    rng = np.random.default_rng(4)
    for _ in range(10):
        mu = random_measure(rng, 2, int(rng.integers(2, 12)))
        nu = random_measure(rng, 2, int(rng.integers(2, 12)))
        cost = sq_dists(mu.atoms, nu.atoms)
        first = transport._transport_simplex(mu.weights, nu.weights, cost)
        again = transport._transport_simplex(mu.weights, nu.weights, cost)
        assert first[2] == again[2]
        assert 0 <= first[2].degenerate_pivots <= first[2].pivots
        assert 0 <= first[2].bland_pivots <= first[2].pivots
        flipped = cost[::-1, ::-1].copy()
        warm = transport._transport_simplex(
            mu.weights, nu.weights, flipped, start=first[0]
        )
        assert warm[2] == transport._transport_simplex(
            mu.weights, nu.weights, flipped, start=first[0]
        )[2]
        # the returned cost is the plan's, cold and warm
        assert reports_its_plans_cost(first, cost)
        assert reports_its_plans_cost(warm, flipped)
    # an optimal start needs no pivot, and the flows of its set-up are
    # the final flows of the cold solve
    tree, reported, _ = transport._transport_simplex(mu.weights, nu.weights, cost)
    restart = transport._transport_simplex(mu.weights, nu.weights, cost, start=tree)
    assert restart[2] == transport.SolveStats(0, 0, 0)
    assert restart[0].plan.tobytes() == tree.plan.tobytes() and restart[0] is tree
    assert reports_its_plans_cost(restart, cost) and restart[1] == reported


def refusal_problems():
    """Marginals and (cost, start) pairs for the refusal contract: W2 and
    oracle-like x p y^T costs of Gaussian, lattice-tied or duplicated
    atoms, uniform or cubed (tiny) weights, coordinate scales 1e-4 to
    1e4, m != n among them; each cost solved cold and warm from the
    optimal tree of the other cost. Each problem comes again with its
    cost shifted by 1e3 max|cost|, which moves every plan's cost alike
    but makes the tree's potentials large against the reduced costs,
    where fl(c_ij - u_i) rounds most; the last item says which it is."""
    for seed in range(120):
        rng = np.random.default_rng(7000 + seed)
        m, n = (int(k) for k in rng.integers(1, 13, 2))
        dim, scale = int(rng.integers(1, 4)), 10.0 ** int(rng.integers(-4, 5))
        mu, nu = (
            sampled_measure(
                rng, FAMILIES[rng.integers(3)], rng.integers(2), size, dim, scale
            )
            for size in (m, n)
        )
        x, y = mu.atoms, nu.atoms
        costs = (sq_dists(x, y), x @ rng.standard_normal((dim, dim)) @ y.T)
        trees = [
            transport._transport_simplex(mu.weights, nu.weights, c)[0] for c in costs
        ]
        for cost, start in zip(costs * 2, (None, None, *trees[::-1])):
            yield mu.weights, nu.weights, cost, start, False
            yield mu.weights, nu.weights, cost + 1e3 * np.abs(cost).max(), start, True


def test_a_refused_solve_would_have_reported_a_cost_at_or_above_the_threshold():
    # a refusal only when the cost the full solve returns reaches refuse_at,
    # and otherwise the full solve itself, potentials included, bit for bit;
    # a refusal's floor lies between refuse_at and that cost, and it made
    # no more pivots of any kind than the full solve; outcomes counted on
    # finite thresholds, apart for shifted costs
    outcomes = Counter()
    solve = transport._transport_simplex
    for a, b, cost, start, shifted in refusal_problems():
        full = certified(solve, a, b, cost, start=start)
        reported, full_stats = full[1], astuple(full[2])
        assert reports_its_plans_cost(full, cost)
        step = 1e-9 * max(abs(reported), float(np.abs(cost).max()))
        thresholds = (
            -np.inf, reported - step, np.nextafter(reported, -np.inf), reported,
            np.nextafter(reported, np.inf), reported + step, np.inf,
        )
        for refuse_at in thresholds:
            got = certified(solve, a, b, cost, start=start, refuse_at=refuse_at)
            if np.isfinite(refuse_at):
                outcomes[shifted, got[0] is None] += 1
            if got[0] is None:
                _, floor, stats = got
                assert reported >= refuse_at
                assert refuse_at <= floor <= reported
                assert all(map(le, astuple(stats), full_stats))
            else:
                assert result_bytes(got) == result_bytes(full)
                assert got[0].parent == full[0].parent
    # 486 refused and 1,914 ended of each 2,400
    for shifted in (False, True):
        assert outcomes[shifted, True] > 400 and outcomes[shifted, False] > 1500


def test_greedy_swap_solves_start_near_optimal(monkeypatch):
    solve = transport._transport_simplex
    eta = load_measure("shifted_gauss_100")
    # the search makes 222 and 388 warm solves; all but 48 and 63 of them
    # refuse their trials on a dual bound before the end
    for n, max_ended in ((12, 55), (20, 70)):
        warm_pivots = []
        ended = 0

        # each warm solve also solved in full, so that its pivots count
        def counting(a, b, cost, start=None, refuse_at=None):
            nonlocal ended
            result = solve(a, b, cost, start=start, refuse_at=refuse_at)
            if start is not None:
                warm_pivots.append(solve(a, b, cost, start=start)[2].pivots)
                ended += result[0] is not None
            return result

        monkeypatch.setattr(transport, "_transport_simplex", counting)
        greedy_subsample(eta, n)
        assert len(warm_pivots) > 50
        assert sum(warm_pivots) / len(warm_pivots) <= 8.0
        assert ended <= max_ended


def counted_potentials(monkeypatch):
    """A list that grows by one at each HungTree.potentials pass."""
    passes = []
    potentials = transport.HungTree.potentials

    def counting(tree, cost):
        passes.append(tree)
        return potentials(tree, cost)

    monkeypatch.setattr(transport.HungTree, "potentials", counting)
    return passes


def test_solved_records_carry_the_duals_their_certificate_priced(monkeypatch):
    # a record a solve builds holds, read-only, the potentials of the
    # final pricing that certified it; one built from a bare parent list,
    # the northwest start among them, holds none
    solve = transport._transport_simplex
    built = 0
    for seed in range(60):
        a, b, cost, other = seeded_transport_problem(seed)
        cold = certified(solve, a, b, cost)
        warm = certified(solve, a, b, other, start=cold[0])
        for tree, _, stats, u, v in (cold, warm):
            if stats.pivots:
                built += 1
                assert tree.duals.tobytes() == np.concatenate([u, v]).tobytes()
                assert not tree.duals.flags.writeable
        assert transport.HungTree(transport._northwest_tree(a, b), a, b).duals is None
    assert built > 50
    # a start with duals refuses on them before its set-up; a start
    # without refuses at its first pricing, after a potentials pass
    a, b, cost, other = seeded_transport_problem(3)
    start = solve(a, b, cost)[0]
    bare = transport.HungTree(list(start.parent), a, b)
    assert bare.duals is None and start.duals is not None
    passes = counted_potentials(monkeypatch)
    for tree, made in ((start, 0), (bare, 1)):
        passes.clear()
        refused = solve(a, b, other, start=tree, refuse_at=-np.inf)
        assert refused[0] is None and refused[2] == transport.SolveStats(0, 0, 0)
        assert len(passes) == made


def test_a_trial_its_start_duals_price_above_the_threshold_is_refused_at_set_up(
    monkeypatch,
):
    # the greedy's trial shape: one column of the incumbent's cost changed,
    # here to cost clearly more in every row; the incumbent's duals refuse
    # it before the set-up reads the walk or makes a potentials pass
    rng = np.random.default_rng(11)
    eta = random_measure(rng, 2, 40)
    a, b = eta.weights, np.full(8, 1.0 / 8)
    cost = sq_dists(eta.atoms, eta.atoms[:8])
    start, paid, stats = transport._transport_simplex(a, b, cost)
    assert stats.pivots and start.duals is not None
    trial = cost.copy()
    trial[:, 3] += cost.max()
    threshold = paid * (1.0 - 1e-12)
    passes = counted_potentials(monkeypatch)
    tree, floor, stats = transport._transport_simplex(
        a, b, trial, start=start, refuse_at=threshold
    )
    assert tree is None and stats == transport.SolveStats(0, 0, 0)
    # the record's walk is made when a solve first reads it
    assert not passes and "walk" not in vars(start)
    full = transport._transport_simplex(a, b, trial, start=start)[1]
    assert threshold <= floor <= full


def test_greedy_trials_are_refused_on_their_start_duals(monkeypatch):
    # the search makes 222 and 388 warm solves; the incumbent's duals
    # refuse 120 and 193 of them before a potentials pass
    solve = transport._transport_simplex
    eta = load_measure("shifted_gauss_100")
    passes = counted_potentials(monkeypatch)
    for n, at_least in ((12, 100), (20, 180)):
        trials = early = 0

        def counting(a, b, cost, start=None, refuse_at=None):
            nonlocal trials, early
            made = len(passes)
            result = solve(a, b, cost, start=start, refuse_at=refuse_at)
            if start is not None:
                trials += 1
                early += result[0] is None and len(passes) == made
            return result

        monkeypatch.setattr(transport, "_transport_simplex", counting)
        greedy_subsample(eta, n)
        assert trials > 200 and early > at_least


def test_simplex_out_of_pivots_is_internal_error(monkeypatch):
    mu = load_measure("axes_2d")
    assert solve_w2(mu, mu).w2 == 0.0
    monkeypatch.setattr(transport, "_pivot_budget", lambda m, n: 0)
    with pytest.raises(InternalInvariantError, match="failed to terminate"):
        solve_w2(mu, mu)


def test_w2_is_a_metric():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        a = random_measure(rng, dim, int(rng.integers(2, 7)))
        b = random_measure(rng, dim, int(rng.integers(2, 7)))
        c = random_measure(rng, dim, int(rng.integers(2, 7)))
        ab = solve_w2(a, b).w2
        bc = solve_w2(b, c).w2
        ac = solve_w2(a, c).w2
        assert ac <= ab + bc + 1e-9
        assert abs(solve_w2(b, a).w2 - ab) < 1e-10
    d = random_measure(rng, 2, 5)
    assert solve_w2(d, d).w2 < 1e-12


def test_plan_marginals_are_exact():
    rng = np.random.default_rng(13)
    for _ in range(25):
        mu = random_measure(rng, 2, int(rng.integers(2, 10)))
        nu = random_measure(rng, 2, int(rng.integers(2, 10)))
        plan = solve_w2(mu, nu).plan.plan
        assert np.abs(plan.sum(axis=1) - mu.weights).max() < 1e-12
        assert np.abs(plan.sum(axis=0) - nu.weights).max() < 1e-12
        assert plan.min() >= 0.0


def test_glue_composes_graphs():
    """Gluing two graph couplings is the graph of the composition."""
    rng = np.random.default_rng(31)
    mu = random_measure(rng, 2, 6)
    first = mu.atoms + np.array([1.0, 0.0])
    second = first * 2.0
    c12 = graph_coupling(mu, first)
    c23 = graph_coupling(c12.target, second)
    glued = glue(c12, c23)
    direct = graph_coupling(mu, second)
    assert np.abs(glued.plan - direct.plan).max() < 1e-12


def test_glue_middle_marginals_must_match():
    mu = uniform([[0.0], [1.0]])
    c1 = graph_coupling(mu, mu.atoms + 1.0)
    c2 = graph_coupling(uniform([[5.0], [6.0]]), np.zeros((2, 1)))
    with pytest.raises(MarginalMismatch):
        glue(c1, c2)


def test_glue_preserves_outer_marginals():
    rng = np.random.default_rng(99)
    mu = random_measure(rng, 2, 5)
    pivot = random_measure(rng, 2, 4)
    nu = random_measure(rng, 2, 6)
    c12 = solve_w2(mu, pivot).plan
    c23 = solve_w2(pivot, nu).plan
    glued = glue(c12, c23)
    assert np.abs(glued.plan.sum(axis=1) - mu.weights).max() < 1e-10
    assert np.abs(glued.plan.sum(axis=0) - nu.weights).max() < 1e-10


def test_optimizer_reaches_known_mixed_operators():
    # identity is attainable for a frame coupled with its canonical dual
    from probframes.frames import canonical_dual

    rng = np.random.default_rng(3)
    mu = uniform(rng.standard_normal((6, 2)))
    dual, _ = canonical_dual(mu)
    search = optimize_mixed_operator(mu, dual, np.eye(2))
    assert search.residual <= 1e-6
    # diagnostics are monotone where recorded
    assert all(
        later <= earlier + 1e-12
        for earlier, later in zip(search.residuals, search.residuals[1:])
    )


def test_optimizer_on_self_coupling():
    mu = load_measure("axes_2d")
    target = np.array([[0.5, 0.0], [0.0, 0.5]])
    search = optimize_mixed_operator(mu, mu, target)
    assert search.residual <= 1e-6
    assert search.gap <= 1e-8


def test_coupling_dict_round_trip():
    c = load_coupling("permuted_axes_coupling")
    back = coupling_from_dict(coupling_to_dict(c))
    assert np.array_equal(back.plan, c.plan)
    assert np.array_equal(back.source.atoms, c.source.atoms)
    assert np.array_equal(back.target.weights, c.target.weights)


FAMILIES = ("gauss", "lattice", "duplicates")


def sampled_measure(rng, family, cubed, size, dim, scale):
    """Gaussian, lattice-tied or duplicated atoms; cubed or uniform weights."""
    if family == "gauss":
        atoms = rng.standard_normal((size, dim))
    elif family == "lattice":
        atoms = rng.integers(0, 3, (size, dim)).astype(float)
    else:
        k = max(1, size // 2)
        atoms = rng.standard_normal((k, dim))[rng.integers(0, k, size)]
    if cubed:
        w = rng.uniform(0.0, 1.0, size) ** 3 + 1e-12
    else:
        w = np.ones(size)
    return DiscreteMeasure(scale * atoms, w / w.sum())


def degenerate_measure(draw, rng, size, dim, scale):
    """A sampled measure whose family and weights hypothesis draws."""
    family = draw(st.sampled_from(FAMILIES))
    return sampled_measure(rng, family, draw(st.booleans()), size, dim, scale)


@st.composite
def transport_problems(draw):
    """Degenerate W2 problems: ties, duplicates, tiny weights, wide scales."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    dim = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-4, 4))
    return (
        degenerate_measure(draw, rng, m, dim, scale),
        degenerate_measure(draw, rng, n, dim, scale),
    )


def highs_transport(cost, a, b):
    """HiGHS's minimum of <cost, plan> over the couplings of a and b."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = cost.shape
    rows = np.kron(np.eye(m), np.ones(n))
    cols = np.kron(np.ones(m), np.eye(n))
    lp = linprog(
        cost.ravel(),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
    )
    assert lp.status == 0
    return lp.fun


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transport_problems())
def test_w2_matches_highs_lp(problem):
    mu, nu = problem
    cost = sq_dists(mu.atoms, nu.atoms)
    value = highs_transport(cost, mu.weights, nu.weights)
    result = solve_w2(mu, nu)
    assert abs(result.cost - value) <= 1e-7 * max(1.0, float(cost.max()))
    plan = result.plan.plan
    assert plan.min() >= 0.0
    assert np.abs(plan.sum(axis=1) - mu.weights).max() <= 1e-10
    assert np.abs(plan.sum(axis=0) - nu.weights).max() <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transport_problems())
def test_simplex_trees_are_parent_lists_of_their_plans(problem):
    mu, nu = problem
    a, b, m, n = mu.weights, nu.weights, mu.size, nu.size
    cold = transport._transport_simplex(a, b, sq_dists(mu.atoms, nu.atoms))
    other = sq_dists(mu.atoms, nu.atoms[::-1])
    warm = transport._transport_simplex(a, b, other, start=cold[0])
    for record, *_ in (cold, warm):
        # the record holds the certified plan, read-only
        plan = record.plan
        assert not plan.flags.writeable
        tree = record.parent
        # row node 0 is the root, every other node hangs from a node of
        # the other side, and the links are a tree hung from row node 0
        assert tree[0] == -1
        assert all(tree[k] in range(m, m + n) for k in range(1, m))
        assert all(tree[k] in range(m) for k in range(m, m + n))
        arcs = tree_arcs(m, tree)
        assert tuple(parent_list(m, n, arcs)) == tree
        # leaf elimination on the tree gives back the plan, bit for bit
        flows = neighbour_set_flows(m, n, arc_neighbours(m, n, arcs), a, b)
        assert plan.tobytes() == flows_plan(m, n, flows).tobytes()


def record_state(tree):
    """Everything a tree record holds, its walk included, copied as bytes
    and a repr that a later mutation would not change; its duals last."""
    *lists, cells = tree.walk
    arrays = (tree.a, tree.b, tree.plan, cells)
    duals = None if tree.duals is None else tree.duals.tobytes()
    return tree.parent, [x.tobytes() for x in arrays], repr(lists), duals


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transport_problems())
def test_warm_solves_carry_their_start_record(problem):
    mu, nu = problem
    a, b = mu.weights, nu.weights
    cost = sq_dists(mu.atoms, nu.atoms)
    start = transport._transport_simplex(a, b, cost)[0]
    # the same tree rebuilt from its bare parent list
    rebuilt = transport.HungTree(list(start.parent), a, b)
    before, bare = record_state(start), record_state(rebuilt)
    # all but the duals, which only a record a solve built carries
    assert bare[:-1] == before[:-1] and bare[-1] is None
    calls = []
    tree_flows = transport._tree_flows

    def counting(*args):
        calls.append(args)
        return tree_flows(*args)

    # the optimal cost again, which needs no pivot, and the target atoms
    # reversed, which usually needs some
    solve = transport._transport_simplex
    for warm_cost in (cost, sq_dists(mu.atoms, nu.atoms[::-1])):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transport, "_tree_flows", counting)
            calls.clear()
            warm = certified(solve, a, b, warm_cost, start=start)
            made = len(calls)
            again = certified(solve, a, b, warm_cost, start=rebuilt)
        assert result_bytes(warm) == result_bytes(again)
        pivoted = warm[2].pivots > 0
        # leaf elimination runs once, for the final flows, and only after
        # a pivot; with none the start record itself is the answer
        assert made == len(calls) - made == int(pivoted)
        assert (warm[0] is start) != pivoted
        # the returned cost is the plan's, with pivots or none
        assert reports_its_plans_cost(warm, warm_cost)
        # no solve changes its start
        assert record_state(start) == before and record_state(rebuilt) == bare


def exact_tree_gap(a, b, cost, tree):
    """Replay a spanning tree of the transportation problem in rationals.

    The float weights and costs are taken as exact rationals, and the
    tree, a tree record, as the cells of its parent list. The tree flows
    come from leaf elimination, the column potentials from the tree
    arcs (u_0 = 0), and every row potential is then reset to
    u_i = min_j (c_ij - v_j), so (u, v) is dual feasible and its value
    is a lower bound on the optimum with no rounding anywhere. Returns
    (primal - dual, flows): the exact primal-dual gap of the tree and
    its flows, which are exact on every marginal but the last node
    eliminated, where the float weights' own imbalance sum(a) - sum(b)
    is left.
    """
    m, n = cost.shape
    a = [Fraction(w) for w in a.tolist()]
    b = [Fraction(w) for w in b.tolist()]
    c = [[Fraction(v) for v in row] for row in cost.tolist()]
    arcs = tree_arcs(m, tree.parent)
    neighbours = arc_neighbours(m, n, arcs)
    net = a + [-w for w in b]
    flows = {}
    leaves = [k for k in range(m + n) if len(neighbours[k]) == 1]
    while leaves:
        k = leaves.pop()
        if not neighbours[k]:
            continue
        w = neighbours[k].pop()
        neighbours[w].discard(k)
        flows[(k, w - m) if k < m else (w, k - m)] = net[k] if k < m else -net[k]
        net[w] += net[k]
        if len(neighbours[w]) == 1:
            leaves.append(w)
    assert len(flows) == m + n - 1
    u, v = [None] * m, [None] * n
    u[0] = Fraction(0)
    while any(x is None for x in v):
        for i, j in arcs:
            if u[i] is not None and v[j] is None:
                v[j] = c[i][j] - u[i]
            elif v[j] is not None and u[i] is None:
                u[i] = c[i][j] - v[j]
    u = [min(c[i][j] - v[j] for j in range(n)) for i in range(m)]
    primal = sum(c[i][j] * f for (i, j), f in flows.items())
    dual = sum(ai * ui for ai, ui in zip(a, u)) + sum(bj * vj for bj, vj in zip(b, v))
    return primal - dual, flows


def assert_exactly_optimal(a, b, cost, plan, tree):
    """The returned tree closes the exact gap; the plan is its flows."""
    gap, flows = exact_tree_gap(a, b, cost, tree)
    assert abs(gap) <= 1e-12 * float(np.abs(cost).max()), "primal-dual gap"
    assert min(flows.values()) >= -1e-15
    exact = np.zeros(cost.shape)
    for (i, j), f in flows.items():
        exact[i, j] = float(f)
    assert np.abs(plan - exact).max() <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transport_problems())
def test_simplex_trees_pass_the_rational_oracle(problem):
    mu, nu = problem
    cost = sq_dists(mu.atoms, nu.atoms)
    tree = transport._transport_simplex(mu.weights, nu.weights, cost)[0]
    assert_exactly_optimal(mu.weights, nu.weights, cost, tree.plan, tree)
    # a warm solve with the target atoms reversed, from the cold tree: the
    # tree a pivot returns, or the start itself when it made no pivot
    other = sq_dists(mu.atoms, nu.atoms[::-1])
    tree = transport._transport_simplex(mu.weights, nu.weights, other, start=tree)[0]
    assert_exactly_optimal(mu.weights, nu.weights, other, tree.plan, tree)


def test_rational_oracle_catches_a_suboptimal_tree():
    rng = np.random.default_rng(21)
    mu, nu = random_measure(rng, 2, 6), random_measure(rng, 2, 7)
    cost = sq_dists(mu.atoms, nu.atoms)
    tree, _, stats = transport._transport_simplex(mu.weights, nu.weights, cost)
    plan = tree.plan
    assert stats.pivots > stats.degenerate_pivots
    planted = transport.HungTree(
        transport._northwest_tree(mu.weights, nu.weights), mu.weights, nu.weights
    )
    assert tree_arcs(6, planted.parent) != tree_arcs(6, tree.parent)
    gap, _ = exact_tree_gap(mu.weights, nu.weights, cost, planted)
    assert gap > 1e-3
    with pytest.raises(AssertionError):
        assert_exactly_optimal(mu.weights, nu.weights, cost, plan, planted)
    # the oracle's tolerance is relative to the costs: at coordinate scale
    # 2^-30 the gap, scaled by 2^-60, is far below 1e-12 but still caught,
    # with the planted tree's own flows as its plan
    small = 2.0**-60 * cost
    assert exact_tree_gap(mu.weights, nu.weights, small, planted)[0] < 1e-12
    assert_exactly_optimal(mu.weights, nu.weights, small, plan, tree)
    with pytest.raises(AssertionError, match="primal-dual gap"):
        assert_exactly_optimal(mu.weights, nu.weights, small, planted.plan, planted)


def interior_pair(n, d):
    """A pair built like perfbench's mixed_search: nu's atoms are
    pinv(x^T P) for a strictly positive coupling P of mu, so x^T P y = Id
    and an exact dual plan lies inside the coupling polytope."""
    rng = np.random.default_rng(n * d)
    x = rng.standard_normal((n, d))
    w = rng.uniform(0.5, 1.5, n)
    w /= w.sum()
    q = rng.uniform(0.5, 1.5, (n, n))
    plan = q * (w / q.sum(axis=1))[:, None]
    y, v = np.linalg.pinv(x.T @ plan), plan.sum(axis=0)
    return DiscreteMeasure(x, w), DiscreteMeasure(y, v / v.sum())


@pytest.mark.parametrize("n, d", [(8, 2), (15, 3), (30, 3)])
def test_search_certifies_interior_targets_exact(n, d):
    mu, nu = interior_pair(n, d)
    search = optimize_mixed_operator(mu, nu, np.eye(d))
    assert certify(search.coupling).classification == "exact"
    assert search.iterations <= 2 * (d * d + 1)
    assert search.active_set <= d * d + 1
    assert search.residual == search.residuals[-1] <= 1e-9


@pytest.mark.parametrize("n, d", [(8, 2), (15, 3)])
def test_search_outside_the_image_stops_at_the_min_norm_point(n, d):
    mu, nu = interior_pair(n, d)
    target = 3.0 * np.eye(d)
    search = optimize_mixed_operator(mu, nu, target)
    assert search.gap <= 1e-8
    assert search.active_set <= d * d + 1
    p = mixed_frame_operator(search.coupling) - target
    norm2 = float((p * p).sum())
    assert norm2 > 0.1
    # min over couplings P of <p, x^T P y - target> is at least |p|^2:
    # no coupling lies beyond the hyperplane through p normal to p
    lowest = highs_transport(mu.atoms @ p @ nu.atoms.T, mu.weights, nu.weights)
    assert lowest - float((p * target).sum()) >= norm2 - 1e-7 * max(1.0, norm2)


def test_search_vertices_pass_the_rational_oracle(monkeypatch):
    solves = []
    solve = transport._transport_simplex

    def recording(a, b, cost, start=None):
        result = solve(a, b, cost, start=start)
        solves.append((a, b, cost, result[0].plan, result[0]))
        return result

    monkeypatch.setattr(transport, "_transport_simplex", recording)
    mu, nu = interior_pair(8, 2)
    search = optimize_mixed_operator(mu, nu, 3.0 * np.eye(2))
    assert len(solves) == search.iterations > 5
    for solved in solves:
        assert_exactly_optimal(*solved)


@st.composite
def mixed_problems(draw):
    """Degenerate search inputs: m != n and d != d' allowed, targets of
    the operators' scale or off it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    d, e = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-3, 3))
    mu = degenerate_measure(draw, rng, m, d, scale)
    nu = degenerate_measure(draw, rng, n, e, scale)
    shape = draw(st.sampled_from(["identity", "gauss", "zero"]))
    if shape == "identity":
        target = np.eye(d, e)
    elif shape == "gauss":
        target = rng.standard_normal((d, e))
    else:
        target = np.zeros((d, e))
    return mu, nu, scale ** draw(st.integers(0, 2)) * target


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mixed_problems())
def test_search_on_degenerate_inputs(problem):
    mu, nu, target = problem
    search = optimize_mixed_operator(mu, nu, target, iters=500)
    plan = search.coupling.plan
    assert plan.min() >= 0.0
    assert max(transport._marginal_errors(plan, mu, nu)) <= 1e-12
    assert search.active_set <= mu.dim * nu.dim + 1
    res = search.residuals
    assert res[-1] == search.residual
    slack = 1e-12 * max(1.0, res[0])
    assert all(later <= earlier + slack for earlier, later in zip(res, res[1:]))


def test_search_stop_is_relative_to_the_problem_scale():
    # coordinates scaled by s scale the residuals by s^2 and Wolfe's gap
    # by s^4; with the gap measured against the product plan's squared
    # residual the search ends at the same relative residual. The oracle's
    # costs scale by s^4, and its pricing threshold with them: with one
    # floored at 1e-12, 48 and 44 of these 50 searches ended elsewhere at
    # s = 1e-4 and 1e-3
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 9, 2)
        d, e = rng.integers(1, 4, 2)
        w, v = rng.uniform(0.1, 1.0, m), rng.uniform(0.1, 1.0, n)
        x, y = rng.standard_normal((m, d)), rng.standard_normal((n, e))
        target = rng.standard_normal((d, e))

        def search(s):
            mu = DiscreteMeasure(s * x, w / w.sum())
            nu = DiscreteMeasure(s * y, v / v.sum())
            return optimize_mixed_operator(mu, nu, s * s * target)

        unit = search(1.0)
        for s in (1e-4, 1e-3, 1e-2, 1e3):
            scaled = search(s).residual / s**2
            assert abs(scaled - unit.residual) <= 1e-6 * unit.residuals[0]


def rounding_stop_inputs():
    """Search inputs at coordinate scale 1e3, each with the major cycles
    it runs at the relative stop and with that stop switched off: one
    source atom, which admits one coupling; a pair that fills all
    d d' + 1 = 3 places of the active set; lattice source atoms whose
    second vertex makes the affine system singular; and three uniform
    pairs whose target lies 1e-3 from the product plan's operator."""
    rng = np.random.default_rng(36)
    mu = dirac(1e3 * rng.standard_normal(1))
    yield mu, uniform(1e3 * rng.standard_normal((6, 1))), np.eye(1), 1, 1
    rng = np.random.default_rng(0)
    mu = uniform(1e3 * rng.standard_normal((2, 1)))
    yield mu, uniform(1e3 * rng.standard_normal((6, 2))), np.eye(1, 2), 3, 3
    rng = np.random.default_rng(0)
    mu = uniform(1e3 * rng.integers(0, 3, (2, 2)).astype(float))
    target = np.array([[1.0], [0.0]])
    yield mu, uniform(1e3 * rng.standard_normal((4, 1))), target, 2, 2
    for seed, m, n, d, e, cycles in [
        (80, 3, 3, 1, 2, 3),
        (2, 2, 2, 1, 2, 2),
        (225, 3, 2, 2, 2, 3),
    ]:
        rng = np.random.default_rng(seed)
        mu = uniform(1e3 * rng.standard_normal((m, d)))
        nu = uniform(1e3 * rng.standard_normal((n, e)))
        target = np.outer(mu.atoms.mean(axis=0), nu.atoms.mean(axis=0))
        yield mu, nu, target + 1e-3 * rng.standard_normal((d, e)), 1, cycles


def highs_relative_gap(search, target):
    """Wolfe's gap at the search's point by HiGHS, over the square of a
    bound on the norm of every point x^T P y - target."""
    mu, nu = search.coupling.source, search.coupling.target
    p = mixed_frame_operator(search.coupling) - target
    lowest = highs_transport(mu.atoms @ p @ nu.atoms.T, mu.weights, nu.weights)
    gap = float((p * p).sum()) - lowest + float((p * target).sum())
    x, y = (np.linalg.norm(atoms, axis=1).max() for atoms in (mu.atoms, nu.atoms))
    return gap / (x * y + np.linalg.norm(target)) ** 2


def test_search_stops_where_rounding_keeps_the_gap_above_tol(monkeypatch):
    # at this scale rounding keeps Wolfe's gap above an absolute 1e-8;
    # the relative stop ends these searches
    cases, stops = list(rounding_stop_inputs()), []
    for mu, nu, target, cycles, _ in cases:
        search = optimize_mixed_operator(mu, nu, target, iters=50)
        assert search.gap > 1e-8
        assert search.iterations == search.active_set == cycles
        stops.append((search, target, transport.SEARCH_TOL))
    assert stops[1][0].residual <= 1e-10
    # with that stop off, rounding ends each search: by the cycle that
    # cannot decrease the norm (the first and the last input), with all
    # places full (the second and fourth: a further point would be
    # affinely dependent on them) or at a singular affine system (the
    # third and fifth)
    monkeypatch.setattr(transport, "SEARCH_TOL", 0.0)
    for mu, nu, target, _, cycles in cases:
        search = optimize_mixed_operator(mu, nu, target, iters=50)
        assert search.gap > 0.0
        assert search.iterations == search.active_set == cycles
        stops.append((search, target, 1e-15))
    assert stops[len(cases) + 1][0].residual <= 1e-10
    # HiGHS confirms each stopping point within its stop's tolerance,
    # and optimal to rounding where rounding ended the search
    for search, target, tol in stops:
        assert highs_relative_gap(search, target) <= tol


def test_search_block_of_the_cli_keeps_its_three_fields(capsys):
    assert cli.main(["certify", "axes_2d", "axes_2d"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["search"]) == ["residual", "gap", "iterations"]
