import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probframes import cli, transport
from probframes.duals import certify
from probframes.errors import (
    InternalInvariantError,
    MarginalMismatch,
    ProbFramesError,
    Unsupported,
)
from probframes.fixtures import load_coupling, load_measure, near_dirac_family
from probframes.measures import DiscreteMeasure, dirac, uniform
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


def test_bruteforce_guards():
    mu = uniform(np.arange(8.0))
    with pytest.raises(Unsupported):
        w2_bruteforce(mu, uniform(np.arange(8.0) + 1.0))
    skew = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    with pytest.raises(Unsupported):
        w2_bruteforce(skew, skew)


@pytest.fixture
def failing_certificate(monkeypatch):
    """Every simplex answer is checked against potentials shifted by one."""
    check = transport._certify

    def shifted_potentials(plan, u, v, cost):
        check(plan, u + 1.0, v, cost)

    monkeypatch.setattr(transport, "_certify", shifted_potentials)


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
    a, b = np.array([0.2, 0.8]), np.array([0.7, 0.3])
    cost = np.array([[0.0, 1.0], [2.0, 0.5]])
    plan, tree, _ = transport._transport_simplex(a, b, cost)
    again, same, _ = transport._transport_simplex(a, b, cost + 1.0, start=tree)
    assert np.array_equal(again, plan) and same == tree
    # two arcs do not span; four arcs close a cycle; a spanning tree
    # with one arc listed twice is no tree either
    for start in (
        [(0, 0), (1, 1)],
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        [(0, 0), (1, 0), (1, 1), (1, 0)],
    ):
        with pytest.raises(InternalInvariantError, match="not spanning"):
            transport._transport_simplex(a, b, cost, start=start)
    # spans, but row 0 would have to ship 0.3 of its 0.2 to column 1
    with pytest.raises(InternalInvariantError, match="nonnegative flows"):
        transport._transport_simplex(a, b, cost, start=[(0, 0), (0, 1), (1, 0)])


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
    return {arc: max(f, 0.0) for arc, f in flows.items()}


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
            arcs = transport._northwest_tree(a, b)
        else:
            arcs = random_spanning_tree(rng, m, n)
        adj = {k: set() for k in range(m + n)}
        for i, j in arcs:
            adj[i].add(m + j)
            adj[m + j].add(i)
        try:
            want = neighbour_set_flows(m, n, adj, a, b)
        except InternalInvariantError:
            with pytest.raises(InternalInvariantError):
                transport._tree_flows(m, n, arcs, a, b)
            raised += 1
            continue
        got = transport._tree_flows(m, n, arcs, a, b)
        assert got == want
        checked += 1
    # optimal trees of degenerate (uniform, tied) problems
    for size in range(1, 9):
        a = np.full(size, 1.0 / size)
        b = np.full(size + 1, 1.0 / (size + 1))
        cost = rng.integers(0, 3, (size, size + 1)).astype(float)
        _, tree, _ = transport._transport_simplex(a, b, cost)
        adj = {k: set() for k in range(2 * size + 1)}
        for i, j in tree:
            adj[i].add(size + j)
            adj[size + j].add(i)
        want = neighbour_set_flows(size, size + 1, adj, a, b)
        assert transport._tree_flows(size, size + 1, tree, a, b) == want
    assert checked > 200 and raised > 20


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
        warm = transport._transport_simplex(
            mu.weights, nu.weights, cost[::-1, ::-1].copy(), start=first[1]
        )
        assert warm[2] == transport._transport_simplex(
            mu.weights, nu.weights, cost[::-1, ::-1].copy(), start=first[1]
        )[2]
    # an optimal start needs no pivot
    _, tree, stats = transport._transport_simplex(mu.weights, nu.weights, cost)
    restart = transport._transport_simplex(mu.weights, nu.weights, cost, start=tree)
    assert restart[2] == transport.SolveStats(0, 0, 0)


def test_greedy_swap_solves_start_near_optimal(monkeypatch):
    warm_pivots = []
    solve = transport._transport_simplex

    def counting(a, b, cost, start=None):
        plan, tree, stats = solve(a, b, cost, start=start)
        if start is not None:
            warm_pivots.append(stats.pivots)
        return plan, tree, stats

    monkeypatch.setattr(transport, "_transport_simplex", counting)
    greedy_subsample(load_measure("shifted_gauss_100"), 12)
    assert len(warm_pivots) > 50
    assert sum(warm_pivots) / len(warm_pivots) <= 8.0


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


def degenerate_measure(draw, rng, size, dim, scale):
    """Gaussian, lattice-tied or duplicated atoms; uniform or cubed weights."""
    family = draw(st.sampled_from(["gauss", "lattice", "duplicates"]))
    if family == "gauss":
        atoms = rng.standard_normal((size, dim))
    elif family == "lattice":
        atoms = rng.integers(0, 3, (size, dim)).astype(float)
    else:
        k = max(1, size // 2)
        atoms = rng.standard_normal((k, dim))[rng.integers(0, k, size)]
    if draw(st.booleans()):
        w = rng.uniform(0.0, 1.0, size) ** 3 + 1e-12
    else:
        w = np.ones(size)
    return DiscreteMeasure(scale * atoms, w / w.sum())


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


def exact_tree_gap(a, b, cost, tree):
    """Replay a spanning tree of the transportation problem in rationals.

    The float weights and costs are taken as exact rationals. The tree
    flows come from leaf elimination, the column potentials from the
    tree arcs (u_0 = 0), and every row potential is then reset to
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
    neighbours = {k: set() for k in range(m + n)}
    for i, j in tree:
        neighbours[i].add(m + j)
        neighbours[m + j].add(i)
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
        for i, j in tree:
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
    assert abs(gap) <= 1e-12 * max(1.0, float(np.abs(cost).max()))
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
    plan, tree, _ = transport._transport_simplex(mu.weights, nu.weights, cost)
    assert_exactly_optimal(mu.weights, nu.weights, cost, plan, tree)


def test_rational_oracle_catches_a_suboptimal_tree():
    rng = np.random.default_rng(21)
    mu, nu = random_measure(rng, 2, 6), random_measure(rng, 2, 7)
    cost = sq_dists(mu.atoms, nu.atoms)
    plan, tree, stats = transport._transport_simplex(mu.weights, nu.weights, cost)
    assert stats.pivots > stats.degenerate_pivots
    planted = transport._northwest_tree(mu.weights, nu.weights)
    assert sorted(planted) != tree
    gap, _ = exact_tree_gap(mu.weights, nu.weights, cost, planted)
    assert gap > 1e-3
    with pytest.raises(AssertionError):
        assert_exactly_optimal(mu.weights, nu.weights, cost, plan, planted)


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
        plan, tree, stats = solve(a, b, cost, start=start)
        solves.append((a, b, cost, plan, tree))
        return plan, tree, stats

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


def test_search_stops_where_rounding_keeps_the_gap_above_tol():
    # one source atom admits one coupling; at this scale the oracle's
    # copy of it leaves Wolfe's gap above tol, and the cycle that cannot
    # decrease the norm ends the search instead of the cap
    rng = np.random.default_rng(36)
    mu = dirac(1e3 * rng.standard_normal(1))
    nu = uniform(1e3 * rng.standard_normal((6, 1)))
    search = optimize_mixed_operator(mu, nu, np.eye(1), iters=50)
    assert search.gap > 1e-8
    assert search.iterations == search.active_set == 1
    # here rounding keeps the gap above tol once all d d' + 1 = 3 places
    # of the active set are filled; a fourth point would be affinely
    # dependent on them
    rng = np.random.default_rng(0)
    mu = uniform(1e3 * rng.standard_normal((2, 1)))
    nu = uniform(1e3 * rng.standard_normal((6, 2)))
    search = optimize_mixed_operator(mu, nu, np.eye(1, 2))
    assert search.gap > 1e-8
    assert search.iterations == search.active_set == 3
    assert search.residual <= 1e-10
    # lattice source atoms: at the second cycle the oracle returns a
    # vertex already active, the affine system is singular, and the
    # search keeps the point it had
    rng = np.random.default_rng(0)
    mu = uniform(1e3 * rng.integers(0, 3, (2, 2)).astype(float))
    nu = uniform(1e3 * rng.standard_normal((4, 1)))
    search = optimize_mixed_operator(mu, nu, np.array([[1.0], [0.0]]))
    assert search.gap > 1e-8
    assert search.iterations == search.active_set == 2


def test_search_block_of_the_cli_keeps_its_three_fields(capsys):
    assert cli.main(["certify", "axes_2d", "axes_2d"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["search"]) == ["residual", "gap", "iterations"]
