import dataclasses
import math
from operator import le

import numpy as np
import pytest

from probframes import perturbation, transport
from probframes.duals import approx_dual_pushforward, certify
from probframes.errors import (
    EtaNotFrame,
    InternalInvariantError,
    MarginalMismatch,
    NotExactDual,
    TooFewSamples,
)
from probframes.fixtures import load_measure
from probframes.measures import DiscreteMeasure, dirac, uniform
from probframes.numerics import sq_dists
from probframes.perturbation import (
    discrete_dual_pipeline,
    greedy_subsample,
    matched_mixed_dual,
    perturbed_approx_dual,
    perturbed_frame_bound,
    report_to_dict,
    variant_certificates,
)
from probframes.frames import analyze, canonical_dual
from probframes.transport import graph_coupling, product_coupling, solve_w2


def random_frame(rng, dim, size):
    atoms = rng.standard_normal((size, dim))
    w = rng.uniform(0.2, 1.0, size)
    return DiscreteMeasure(atoms, w / w.sum())


def nudged(rng, m, scale):
    return DiscreteMeasure(
        m.atoms + scale * rng.standard_normal(m.atoms.shape), m.weights
    )


def test_bound_on_fixture_pair():
    mu = dirac([1.0])
    eta = load_measure("near_dirac_pair")
    report = perturbed_frame_bound(mu, eta)
    assert abs(report.quadratic_cost - 0.125) < 1e-12
    expect = (1.0 - math.sqrt(0.125)) ** 2
    assert abs(report.lower_bound_estimate - expect) < 1e-12
    assert report.flags.quadratic_closeness is True
    assert report.all_checked_hold
    assert abs(report.details["eta_lower_bound"] - 0.625) < 1e-12


def test_bound_flag_fails_for_distant_measures():
    report = perturbed_frame_bound(dirac([1.0]), dirac([0.0]))
    assert report.flags.quadratic_closeness is False
    assert report.lower_bound_estimate is None
    assert not report.all_checked_hold


def test_bound_requires_base_frame():
    with pytest.raises(EtaNotFrame):
        perturbed_frame_bound(dirac([0.0]), dirac([1.0]))


def test_bound_random_perturbations():
    rng = np.random.default_rng(500)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        mu = random_frame(rng, dim, dim + int(rng.integers(1, 5)))
        eta = nudged(rng, mu, 0.05)
        report = perturbed_frame_bound(mu, eta)
        if report.flags.quadratic_closeness:
            measured = analyze(eta).lower_bound
            assert measured >= report.lower_bound_estimate - 1e-8


def test_bound_accepts_explicit_coupling():
    mu = dirac([1.0])
    eta = load_measure("near_dirac_pair")
    c = solve_w2(eta, mu).plan
    report = perturbed_frame_bound(mu, eta, c)
    assert abs(report.quadratic_cost - 0.125) < 1e-12
    with pytest.raises(MarginalMismatch):
        perturbed_frame_bound(mu, eta, solve_w2(mu, eta).plan)


def test_glued_dual_certificate():
    rng = np.random.default_rng(711)
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        mu = random_frame(rng, dim, dim + int(rng.integers(1, 4)))
        eta = nudged(rng, mu, 0.02)
        _, dual_coupling = canonical_dual(mu)
        c = solve_w2(eta, mu).plan
        report = perturbed_approx_dual(mu, dual_coupling, eta, c)
        a = report.details["base_lower_bound"]
        cap = report.details["dual_upper_bound"]
        if report.flags.quadratic_closeness and report.flags.product_bound:
            assert report.certificate.deviation < math.sqrt(a * cap) + 1e-9
            assert report.certificate.deviation < 1.0 + 1e-9


def test_glue_requires_exact_base():
    mu = load_measure("axes_2d")
    eta = mu
    not_exact = product_coupling(mu, mu)
    with pytest.raises(NotExactDual):
        perturbed_approx_dual(mu, not_exact, eta, solve_w2(eta, mu).plan)


def test_variants_on_canonical_pair():
    rng = np.random.default_rng(90)
    mu = random_frame(rng, 2, 5)
    eta = nudged(rng, mu, 0.01)
    _, dual_coupling = canonical_dual(mu)
    c = solve_w2(eta, mu).plan
    report = variant_certificates(mu, dual_coupling, eta, c)
    # exact base pair: both sharper hypotheses are evaluated
    assert report.flags.moment_bound is not None
    assert report.flags.inverse_closeness is not None
    if report.all_checked_hold:
        assert report.certificate.deviation < 1.0 + 1e-9
    assert report.details["direction_constant"] >= 0.0


def test_variants_displaced_cost_vanishes_on_matched_pair():
    # eta = mu and A = Id make the displaced-cost hypothesis exactly zero
    mu = load_measure("axes_2d")
    _, dual_coupling = canonical_dual(mu)
    c = graph_coupling(mu, mu.atoms)
    report = variant_certificates(mu, dual_coupling, mu, c)
    assert report.details["displaced_cost"] < 1e-12
    assert report.flags.inverse_closeness is True


def test_matched_mixed_dual_reproduces_operator():
    rng = np.random.default_rng(321)
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        mu = random_frame(rng, dim, dim + int(rng.integers(1, 4)))
        eta = nudged(rng, mu, 0.02)
        _, base = canonical_dual(mu)
        c = solve_w2(eta, mu).plan
        try:
            xi, coupling = matched_mixed_dual(mu, base, eta, c)
        except EtaNotFrame:
            continue
        base_op = certify(base).mixed_operator
        got = certify(coupling).mixed_operator
        assert np.abs(got - base_op).max() < 1e-9
        assert coupling.source is not None
        # the pushforward-type approximate dual (A^T S_eta^{-1})#eta
        same_xi, same = approx_dual_pushforward(eta, base_op)
        assert xi.atoms.tobytes() == same_xi.atoms.tobytes()
        assert xi.weights.tobytes() == same_xi.weights.tobytes()
        assert coupling.plan.tobytes() == same.plan.tobytes()


def test_matched_needs_small_cost():
    mu = dirac([1.0])
    eta = dirac([5.0])
    _, base = canonical_dual(mu)
    c = solve_w2(eta, mu).plan
    with pytest.raises(EtaNotFrame):
        matched_mixed_dual(mu, base, eta, c)


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2, 1e4])
def test_perturbation_theorems_at_every_coordinate_scale(scale):
    # the rounding of frame bounds grows with the coordinates, so the
    # checks on the package's own results must not fire on any scale.
    # Each frame holds the standard basis among at most 6 atoms weighing
    # 0.2 to 1 before normalising, so its lower frame bound is at least
    # scale**2 / 30, above analyze's frame threshold at every scale here.
    rng = np.random.default_rng(2023)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        size = dim + int(rng.integers(1, 4))
        atoms = np.vstack([np.eye(dim), rng.standard_normal((size - dim, dim))])
        w = rng.uniform(0.2, 1.0, size)
        mu = DiscreteMeasure(scale * atoms, w / w.sum())
        a = analyze(mu).lower_bound
        _, base = canonical_dual(mu)
        for eta in (mu, nudged(rng, mu, 1e-3 * scale)):
            c = solve_w2(eta, mu).plan
            for report in (
                perturbed_frame_bound(mu, eta),
                perturbed_approx_dual(mu, base, eta, c),
                variant_certificates(mu, base, eta, c),
            ):
                lam = report.quadratic_cost
                assert lam < a
                assert report.lower_bound_estimate == (
                    (math.sqrt(a) - math.sqrt(lam)) ** 2
                )
            matched_mixed_dual(mu, base, eta, c)


def test_greedy_subsample_properties():
    eta = load_measure("shifted_gauss_100")
    sub = greedy_subsample(eta, 10)
    assert sub.size == 10
    assert np.abs(sub.weights - 0.1).max() < 1e-15
    # chosen atoms come from the support
    d = np.linalg.norm(eta.atoms[:, None] - sub.atoms[None], axis=2)
    assert d.min(axis=0).max() < 1e-15
    # more points never hurt
    w5 = solve_w2(eta, greedy_subsample(eta, 5)).w2
    w10 = solve_w2(eta, sub).w2
    assert w10 <= w5 + 1e-12


def swap_search_inputs():
    """(eta, n) pairs where swaps of equal W2 are common: 6x6 lattices
    at scales 1e-2 to 1e2, some with 7 duplicated atoms and some with
    non-uniform weights, next to random 2-D and 3-D clouds."""

    def weights(rng, size, skew):
        w = rng.uniform(0.5, 1.5, size) if skew else np.ones(size)
        return w / w.sum()

    grid = np.array([(x, y) for x in range(6) for y in range(6)], dtype=float)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        atoms = 10.0 ** (seed % 5 - 2) * grid
        if seed % 2:
            atoms = np.vstack([atoms, atoms[rng.choice(36, 7, replace=False)]])
        eta = DiscreteMeasure(atoms, weights(rng, len(atoms), seed % 4 >= 2))
        yield eta, int(rng.integers(4, 10))
    clouds = [(100 + s, 2) for s in range(40)] + [(200 + s, 3) for s in range(10)]
    for seed, dim in clouds:
        rng = np.random.default_rng(seed)
        size = int(rng.integers(15, 40))
        atoms = rng.standard_normal((size, dim)) * 10.0 ** rng.uniform(-2, 2)
        eta = DiscreteMeasure(atoms, weights(rng, size, seed % 2))
        yield eta, int(rng.integers(dim, 10))


@pytest.mark.parametrize("n", [0, -1])
def test_greedy_subsample_refuses_fewer_than_one_atom(n):
    with pytest.raises(TooFewSamples):
        greedy_subsample(load_measure("shifted_gauss_100"), n)


def test_greedy_subsample_does_not_depend_on_the_warm_start(monkeypatch):
    # the swap decisions rest on W2 values, not on which optimal tree a
    # solve ends on, so cold solves choose the same subsample
    inputs = list(swap_search_inputs())
    warm = [greedy_subsample(eta, n).atoms for eta, n in inputs]
    solve = transport._transport_simplex

    # cold full solves: a refused trial's cost is compared too
    def cold(a, b, cost, start=None, refuse_at=None):
        return solve(a, b, cost)

    monkeypatch.setattr(transport, "_transport_simplex", cold)
    for (eta, n), chosen in zip(inputs, warm):
        assert np.array_equal(greedy_subsample(eta, n).atoms, chosen)


def unscreened_greedy_subsample(eta, n):
    """The swap search as it ran before its trials were screened by a
    dual bound: every trial that clears the quantization floor is solved.
    The reference for identical subsamples."""
    atoms = eta.atoms
    total = eta.size
    if n >= total:
        return uniform(atoms)
    sq = sq_dists(atoms, atoms)
    sub_weights = np.full(n, 1.0 / n)
    chosen = [int(np.argmax(eta.weights))]
    min_dist = sq[chosen[0]].copy()
    while len(chosen) < n:
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        np.minimum(min_dist, sq[nxt], out=min_dist)
    best = sorted(chosen)

    def exact_cost(cols, start=None):
        tree, _, _ = transport._transport_simplex(
            eta.weights, sub_weights, cols, start=start
        )
        return float((tree.plan * cols).sum()), tree

    best_cost, best_tree = exact_cost(sq[:, best])
    for _ in range(6):
        improved = False
        for pos in range(n):
            current = set(best)
            out = best[pos]
            dist_to_out = sq[out].copy()
            dist_to_out[list(current)] = np.inf
            order = np.argsort(dist_to_out, kind="stable")[:5]
            for cand in order:
                if not math.isfinite(dist_to_out[cand]):
                    break
                trial = sorted(set(best) - {out} | {int(cand)})
                cols = sq[:, trial]
                floor = float(eta.weights @ cols.min(axis=1))
                if floor >= best_cost:
                    continue
                column = {atom: k for k, atom in enumerate(trial)}
                column[out] = column[int(cand)]
                # the incumbent's parent list with its column nodes moved to
                # the trial's columns: node m + j becomes m + column[best[j]]
                m = eta.size
                node = [*range(m), *(m + column[atom] for atom in best)]
                start = [-1] * (m + n)
                for k, p in enumerate(best_tree.parent[1:], 1):
                    start[node[k]] = node[p]
                start = transport.HungTree(start, eta.weights, sub_weights)
                cost, tree = exact_cost(cols, start=start)
                if cost < best_cost * (1.0 - 1e-12):
                    best, best_cost, best_tree = trial, cost, tree
                    improved = True
                    break
        if not improved:
            break
    return uniform(atoms[best])


def pipeline_clouds(count, seed=0):
    """80-point clouds built like the fixture shifted_gauss_100: standard
    normal points in the plane, shifted by e1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        points = rng.standard_normal((80, 2))
        points[:, 0] += 1.0
        yield uniform(points), 16


def duplicated_atom_inputs():
    """Clouds with a third of their atoms repeated, some several times,
    under uniform or skewed weights."""
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        base = rng.standard_normal((30, 2)) * 10.0 ** (seed % 3 - 1)
        atoms = np.vstack([base, base[rng.integers(0, 30, 15)]])
        w = rng.uniform(0.5, 1.5, len(atoms)) if seed % 2 else np.ones(len(atoms))
        yield DiscreteMeasure(atoms, w / w.sum()), int(rng.integers(4, 12))


def test_greedy_subsample_matches_the_unscreened_loop():
    inputs = [
        *swap_search_inputs(),
        *pipeline_clouds(20),
        *duplicated_atom_inputs(),
    ]
    for eta, n in inputs:
        want = unscreened_greedy_subsample(eta, n).atoms
        assert greedy_subsample(eta, n).atoms.tobytes() == want.tobytes()


def test_refused_swap_trials_cannot_be_accepted(monkeypatch):
    # every solve of the search, with the threshold it was handed; a warm
    # solve either ends or refuses the trial mid-solve at that threshold
    events = []
    solve = transport._transport_simplex

    def solving(a, b, cost, start=None, refuse_at=None):
        result = solve(a, b, cost, start=start, refuse_at=refuse_at)
        events.append((a, b, cost, start, refuse_at, result))
        return result

    monkeypatch.setattr(transport, "_transport_simplex", solving)
    refused = 0
    for eta, n in [*swap_search_inputs(), *pipeline_clouds(1, seed=1)]:
        events.clear()
        greedy_subsample(eta, n)
        # replay the search: the first solve is the incumbent's cold one
        (_, _, cols, _, _, (tree, *_)), rest = events[0], events[1:]
        best_cost = float((tree.plan * cols).sum())
        for a, b, cols, start, refuse_at, result in rest:
            threshold = best_cost * (1.0 - 1e-12)
            assert refuse_at == threshold
            if result[0] is not None:
                cost = float((result[0].plan * cols).sum())
                if cost < threshold:
                    best_cost = cost
                continue
            # refused mid-solve: a full solve must report a cost at or
            # above the threshold, and at or above the refusal's floor,
            # which is at or above the threshold; the refusal made no
            # more pivots of any kind than the full solve from its start
            refused += 1
            plan = solve(a, b, cols)[0].plan
            assert float((plan * cols).sum()) >= threshold
            _, reported, full_stats = solve(a, b, cols, start=start)
            _, floor, stats = result
            assert threshold <= floor <= reported
            counts = map(dataclasses.astuple, (stats, full_stats))
            assert all(map(le, *counts))
    assert refused > 5000


def test_refusal_bound_is_tight_at_each_solves_optimum(monkeypatch):
    # a solve prices its own optimal potentials last, so handed a
    # threshold just below the cost it reports, it refuses: the bound
    # there is that cost less the rounding margin, never much less
    solves = []
    solve = transport._transport_simplex

    # full solves, refused trials included
    def recording(a, b, cost, start=None, refuse_at=None):
        result = solve(a, b, cost, start=start)
        solves.append((a, b, cost, start, result[0].plan))
        return result

    monkeypatch.setattr(transport, "_transport_simplex", recording)
    for eta, n in [*swap_search_inputs(), *pipeline_clouds(20)]:
        greedy_subsample(eta, n)
    monkeypatch.undo()
    assert len(solves) > 5000
    for a, b, cost, start, plan in solves:
        reported = float((plan * cost).sum())
        refuse_at = reported - 1e-6 * max(reported, float(cost.max()))
        tree, floor, _ = solve(a, b, cost, start=start, refuse_at=refuse_at)
        assert tree is None
        assert refuse_at <= floor <= reported


def test_pipeline_on_cloud():
    eta = load_measure("shifted_gauss_100")
    mu_hat, nu_hat, report = discrete_dual_pipeline(eta, 12, a_n=0.3)
    assert mu_hat.size == 12
    assert report.certificate.classification in ("exact", "approximate")
    assert report.certificate.deviation < 1.0
    assert report.all_checked_hold
    assert report.details["estimated"] is False
    # the dual is the canonical dual of the subsample
    expected, _ = canonical_dual(mu_hat)
    assert nu_hat.is_close(expected)


def test_pipeline_reports_honest_flags_for_small_subsamples():
    # 12 points are not enough for the default quarter-bound threshold
    eta = load_measure("shifted_gauss_100")
    _, _, report = discrete_dual_pipeline(eta, 12)
    assert report.flags.quadratic_closeness is False
    assert not report.all_checked_hold


def test_pipeline_uniform_input_shortcut():
    eta = load_measure("shifted_gauss_100")
    mu_hat, _, report = discrete_dual_pipeline(eta, eta.size)
    assert mu_hat.size == eta.size
    assert report.quadratic_cost == 0.0


def test_pipeline_subsample_of_a_nearly_uniform_input_is_uniform():
    # n atoms give the uniform subsample, whatever their weights
    third = 1.0 / 3.0
    eta = DiscreteMeasure(
        [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
        [third + 1e-13, third + 1e-13, third - 2e-13],
    )
    mu_hat, _, _ = discrete_dual_pipeline(eta, 3)
    assert np.array_equal(mu_hat.atoms, eta.atoms)
    assert np.all(mu_hat.weights == third)


def test_pipeline_guards():
    with pytest.raises(TooFewSamples):
        discrete_dual_pipeline(load_measure("shifted_gauss_100"), 1)
    line = uniform([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(EtaNotFrame):
        discrete_dual_pipeline(line, 2)


def test_pipeline_sampler_mode_is_estimated():
    def sampler(rng, count):
        return rng.standard_normal((count, 2)) + np.array([1.0, 0.0])

    _, _, report = discrete_dual_pipeline(sampler, 25, seed=3)
    assert report.details["estimated"] is True
    # same seed, same report
    _, _, again = discrete_dual_pipeline(sampler, 25, seed=3)
    assert report.quadratic_cost == again.quadratic_cost


def test_all_checked_hold_reads_every_flag():
    @dataclasses.dataclass(frozen=True)
    class MoreFlags(perturbation.HypothesisFlags):
        extra: bool | None = None

    def report(**flags):
        return perturbation.PerturbationReport(0.0, None, MoreFlags(**flags), None)

    assert report(quadratic_closeness=True).all_checked_hold
    assert not report(quadratic_closeness=True, extra=False).all_checked_hold
    assert not report().all_checked_hold


def test_base_couplings_must_start_at_mu():
    mu = load_measure("axes_2d")
    _, other_base = canonical_dual(random_frame(np.random.default_rng(3), 2, 4))
    c = solve_w2(mu, mu).plan
    for build in (perturbed_approx_dual, variant_certificates, matched_mixed_dual):
        with pytest.raises(MarginalMismatch, match="coupling source is not"):
            build(mu, other_base, mu, c)


def test_report_dict_shape():
    report = perturbed_frame_bound(dirac([1.0]), load_measure("near_dirac_pair"))
    doc = report_to_dict(report)
    assert set(doc) == {
        "lambda",
        "lower_bound_estimate",
        "flags",
        "certificate",
        "details",
    }
    assert doc["certificate"] is None
    assert doc["flags"]["quadratic_closeness"] is True


def inflate_certificates(monkeypatch):
    """Make every certificate the perturbation module computes report
    deviation 2 while keeping its classification."""

    def inflated(c, tol=1e-9):
        return dataclasses.replace(certify(c, tol), deviation=2.0)

    monkeypatch.setattr(perturbation, "certify", inflated)


def test_violated_frame_bound_is_internal_error(monkeypatch):
    mu = load_measure("axes_2d")  # lower bound 1/2
    eta = uniform([[0.5, 0.0], [0.0, 0.5]])  # lower bound 1/8
    # cost 0 promises eta the lower bound of mu, which eta does not have
    monkeypatch.setattr(perturbation, "transport_cost", lambda c: 0.0)
    with pytest.raises(InternalInvariantError, match="bound violated"):
        perturbed_frame_bound(mu, eta)


def test_violated_glue_bound_is_internal_error(monkeypatch):
    mu = load_measure("axes_2d")
    _, dual_coupling = canonical_dual(mu)
    inflate_certificates(monkeypatch)
    with pytest.raises(InternalInvariantError, match="not below the guaranteed bound"):
        perturbed_approx_dual(mu, dual_coupling, mu, solve_w2(mu, mu).plan)


def test_violated_variant_bound_is_internal_error(monkeypatch):
    mu = load_measure("axes_2d")
    _, dual_coupling = canonical_dual(mu)
    inflate_certificates(monkeypatch)
    with pytest.raises(InternalInvariantError, match="not below the guaranteed bound"):
        variant_certificates(mu, dual_coupling, mu, solve_w2(mu, mu).plan)


def test_violated_pipeline_bound_is_internal_error(monkeypatch):
    inflate_certificates(monkeypatch)
    with pytest.raises(InternalInvariantError, match="not below the guaranteed bound"):
        discrete_dual_pipeline(load_measure("axes_2d"), 2)
