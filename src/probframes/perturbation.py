"""Stability of frames and duals under quadratic-transport perturbation.

Everything here is driven by one quantity: the quadratic cost
lambda = sum_ij plan_ij |x_i - y_j|^2 of a coupling between a perturbed
measure and a base frame. Small lambda keeps frame bounds alive,
transports approximate-dual certificates through the gluing
construction, and underwrites the discrete sampling pipeline that
manufactures an approximate dual for a measure from a modest subsample.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .duals import DualCertificate, _require_inverse, certificate_to_dict, certify
from .errors import (
    EtaNotFrame,
    InternalInvariantError,
    MarginalMismatch,
    NotApproximate,
    NotExactDual,
    TooFewSamples,
)
from .frames import analyze, canonical_dual
from .measures import DiscreteMeasure, same_measure, uniform
from .numerics import eig_sym, inverse, sq_dists
from . import transport as _transport
from .transport import Coupling, glue, graph_coupling, solve_w2, transport_cost

MATCH_TOL = 1e-10


@dataclass(frozen=True)
class HypothesisFlags:
    """Which perturbation hypotheses a report has verified.

    None means the hypothesis was not applicable to the operation that
    produced the report.
    """

    quadratic_closeness: bool | None = None  # lambda < A
    product_bound: bool | None = None        # A * C <= 1
    moment_bound: bool | None = None         # M2(nu) * C_direction < 1
    inverse_closeness: bool | None = None    # displaced cost < 1/C


@dataclass(frozen=True)
class PerturbationReport:
    """Certified outcome of a perturbation construction.

    quadratic_cost is the lambda of the driving coupling;
    lower_bound_estimate is the guaranteed frame bound
    (sqrt(A) - sqrt(lambda))^2 when the closeness hypothesis holds.
    details carries the operation-specific numbers that fed the flags.
    """

    quadratic_cost: float
    lower_bound_estimate: float | None
    flags: HypothesisFlags
    certificate: DualCertificate | None
    details: dict = field(default_factory=dict)

    @property
    def all_checked_hold(self) -> bool:
        values = [
            self.flags.quadratic_closeness,
            self.flags.product_bound,
            self.flags.moment_bound,
            self.flags.inverse_closeness,
        ]
        checked = [v for v in values if v is not None]
        return bool(checked) and all(checked)


def _expect_marginals(c: Coupling, left: DiscreteMeasure, right: DiscreteMeasure):
    for got, want, side in ((c.source, left, "source"), (c.target, right, "target")):
        if not same_measure(got, want, MATCH_TOL):
            raise MarginalMismatch(f"coupling {side} is not the expected measure")


def _bound_estimate(a: float, lam: float) -> float | None:
    """Guaranteed lower bound (sqrt(A) - sqrt(lambda))^2; None unless lambda < A."""
    return (math.sqrt(a) - math.sqrt(lam)) ** 2 if lam < a else None


def perturbed_frame_bound(
    mu: DiscreteMeasure, eta: DiscreteMeasure, c: Coupling | None = None
) -> PerturbationReport:
    """Frame bound survival under a quadratic perturbation.

    Any coupling of eta to mu with cost lambda below mu's lower frame
    bound A forces eta to be a frame with lower bound at least
    (sqrt(A) - sqrt(lambda))^2. With no coupling given, the optimal plan
    is used, so lambda = W2(eta, mu)^2.
    """
    mu_report = analyze(mu)
    if not mu_report.is_frame:
        raise EtaNotFrame("base measure is not a frame")
    if c is None:
        c = solve_w2(eta, mu).plan
    else:
        _expect_marginals(c, eta, mu)
    lam = transport_cost(c)
    a = mu_report.lower_bound
    close = lam < a
    estimate = _bound_estimate(a, lam)
    eta_lower = analyze(eta).lower_bound
    if close and eta_lower < estimate - 1e-9:
        raise InternalInvariantError(
            "perturbation bound violated: measured "
            f"{eta_lower:.17g} below estimate {estimate:.17g}"
        )
    return PerturbationReport(
        quadratic_cost=lam,
        lower_bound_estimate=estimate,
        flags=HypothesisFlags(quadratic_closeness=close),
        certificate=None,
        details={"base_lower_bound": a, "eta_lower_bound": eta_lower},
    )


def perturbed_approx_dual(
    mu: DiscreteMeasure,
    nu_dual: Coupling,
    eta: DiscreteMeasure,
    c: Coupling,
) -> PerturbationReport:
    """Transport an exact dual certificate to a perturbed source.

    nu_dual couples mu to an exact dual nu; c couples eta to mu. Gluing
    the two yields a coupling of eta to nu whose deviation is below
    sqrt(lambda * C) with C the upper bound of nu, hence below
    sqrt(A * C) <= 1 when both checked hypotheses hold.
    """
    base = certify(nu_dual)
    if base.classification != "exact":
        raise NotExactDual(
            f"base coupling certifies as {base.classification}, not exact"
        )
    _expect_marginals(nu_dual, mu, nu_dual.target)
    _expect_marginals(c, eta, mu)
    lam = transport_cost(c)
    a = analyze(mu).lower_bound
    cap = analyze(nu_dual.target).upper_bound
    close = lam < a
    product_ok = a * cap <= 1.0 + 1e-12
    glued_cert = certify(glue(c, nu_dual))
    if close and product_ok:
        bound = math.sqrt(a * cap) + 1e-9
        if not glued_cert.deviation < bound:
            raise InternalInvariantError(
                f"glued deviation {glued_cert.deviation:.17g} "
                f"exceeds the guaranteed bound {bound:.17g}"
            )
    return PerturbationReport(
        quadratic_cost=lam,
        lower_bound_estimate=_bound_estimate(a, lam),
        flags=HypothesisFlags(quadratic_closeness=close, product_bound=product_ok),
        certificate=glued_cert,
        details={"base_lower_bound": a, "dual_upper_bound": cap},
    )


def _displacement_matrix(c: Coupling) -> np.ndarray:
    """Second moment of the displacement x - y under a coupling."""
    x, y, p = c.source.atoms, c.target.atoms, c.plan
    cross = x.T @ p @ y
    return (
        (x * p.sum(axis=1)[:, None]).T @ x
        + (y * p.sum(axis=0)[:, None]).T @ y
        - cross
        - cross.T
    )


def variant_certificates(
    mu: DiscreteMeasure,
    base: Coupling,
    eta: DiscreteMeasure,
    c: Coupling,
) -> PerturbationReport:
    """The directional and inverse-displaced perturbation hypotheses.

    Two sharper routes to the same glued certificate: the directional
    constant C_direction (largest eigenvalue of the displacement second
    moment) combined with M2(nu), applicable when the base pair is
    exact; and the A^{-1}-displaced cost against 1/C_nu, applicable
    whenever the base mixed operator inverts. Either hypothesis forces
    the glued deviation below 1.
    """
    _expect_marginals(base, mu, base.target)
    _expect_marginals(c, eta, mu)
    base_cert = certify(base)
    a_inv = _require_inverse(base_cert.mixed_operator)
    lam = transport_cost(c)
    c_direction = eig_sym(_displacement_matrix(c)).largest
    nu = base.target
    moment_ok = None
    if base_cert.classification == "exact":
        moment_ok = nu.second_moment() * c_direction < 1.0
    displaced = float((c.plan * sq_dists(eta.atoms, mu.atoms @ a_inv.T)).sum())
    c_nu = analyze(nu).upper_bound
    inverse_ok = displaced < 1.0 / c_nu
    glued_cert = certify(glue(c, base))
    if (moment_ok or inverse_ok) and not glued_cert.deviation < 1.0 + 1e-9:
        raise InternalInvariantError(
            f"glued deviation {glued_cert.deviation:.17g} not below 1 "
            "despite a satisfied hypothesis"
        )
    a = analyze(mu).lower_bound
    return PerturbationReport(
        quadratic_cost=lam,
        lower_bound_estimate=_bound_estimate(a, lam),
        flags=HypothesisFlags(
            quadratic_closeness=lam < a,
            moment_bound=moment_ok,
            inverse_closeness=inverse_ok,
        ),
        certificate=glued_cert,
        details={
            "direction_constant": c_direction,
            "dual_second_moment": nu.second_moment(),
            "displaced_cost": displaced,
            "dual_upper_bound": c_nu,
        },
    )


def matched_mixed_dual(
    mu: DiscreteMeasure,
    base: Coupling,
    eta: DiscreteMeasure,
    c: Coupling,
) -> tuple[DiscreteMeasure, Coupling]:
    """Dual of a perturbed frame with the same mixed operator as the base.

    Pushes eta through A^T S_eta^{-1} where A is the base mixed
    operator; the resulting graph coupling reproduces A exactly, so the
    perturbed pair inherits the base certificate.
    """
    base_cert = certify(base)
    if not base_cert.deviation < 1.0:
        raise NotApproximate(
            f"base deviation {base_cert.deviation:.6g} is not below 1"
        )
    _expect_marginals(base, mu, base.target)
    _expect_marginals(c, eta, mu)
    lam = transport_cost(c)
    a_mu = analyze(mu).lower_bound
    if not lam < a_mu:
        raise EtaNotFrame(
            f"coupling cost {lam:.6g} does not certify eta as a frame "
            f"(needs < {a_mu:.6g})"
        )
    eta_report = analyze(eta)
    if not eta_report.is_frame:
        raise EtaNotFrame("perturbed measure is not a frame")
    s_inv = inverse(eta_report.frame_operator)
    coupling = graph_coupling(eta, eta.atoms @ s_inv @ base_cert.mixed_operator)
    return coupling.target, coupling


# ---------------------------------------------------------------------------
# discrete sampling pipeline


def greedy_subsample(eta: DiscreteMeasure, n: int) -> DiscreteMeasure:
    """Deterministic n-point uniform approximation of a discrete measure.

    Farthest-point seeding (started from the heaviest atom) followed by
    first-improvement swap passes, each swap accepted only when it
    lowers the exact squared W2 distance to eta by more than a relative
    1e-12, so that a swap of equal cost is refused whatever the last
    bits of the two solves. Candidates for a swap are the few nearest unchosen
    atoms; candidates whose unconstrained quantization energy already
    exceeds the incumbent W2 are pruned, since dropping the
    uniform-capacity constraint only lowers the cost.

    Each trial solve is warm-started from the incumbent's optimal tree
    relabelled onto the trial's sorted columns: an arc to atom k moves
    to k's position in the trial, and the swapped-out atom's arcs move
    to the candidate's. All subsample columns weigh 1/n, so the tree
    keeps its flows and stays feasible, and only the candidate's column
    has new costs.
    """
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

    def exact_cost(indices, start=None):
        plan, tree, _ = _transport._transport_simplex(
            eta.weights, sub_weights, sq[:, indices], start=start
        )
        return float((plan * sq[:, indices]).sum()), tree

    best_cost, best_tree = exact_cost(best)
    neighbors = 5
    for _ in range(6):
        improved = False
        for pos in range(n):
            current = set(best)
            out = best[pos]
            dist_to_out = sq[out].copy()
            dist_to_out[list(current)] = np.inf
            order = np.argsort(dist_to_out, kind="stable")[:neighbors]
            for cand in order:
                if not math.isfinite(dist_to_out[cand]):
                    break
                trial = sorted(set(best) - {out} | {int(cand)})
                floor = float(eta.weights @ sq[:, trial].min(axis=1))
                if floor >= best_cost:
                    continue
                column = {atom: k for k, atom in enumerate(trial)}
                column[out] = column[int(cand)]
                start = [(i, column[best[j]]) for i, j in best_tree]
                cost, tree = exact_cost(trial, start=start)
                if cost < best_cost * (1.0 - 1e-12):
                    best, best_cost, best_tree = trial, cost, tree
                    improved = True
                    break
        if not improved:
            break
    return uniform(atoms[best])


def discrete_dual_pipeline(
    eta,
    n_samples: int,
    seed: int = 0,
    a_n: float | None = None,
) -> tuple[DiscreteMeasure, DiscreteMeasure, PerturbationReport]:
    """Approximate dual of a measure from an n-point subsample.

    Builds a uniform n-point measure mu_hat close to eta (greedy
    subsample for a discrete eta; i.i.d. draws for a sampler), takes its
    canonical dual nu_hat, and certifies nu_hat as an approximate dual
    of eta by gluing the optimal transport plan with the canonical-dual
    graph. The hypothesis chain W2(eta, mu_hat) < sqrt(A_N) and
    A_N * C_N <= 1 is checked with C_N the measured upper bound of
    nu_hat; A_N defaults to a quarter of eta's lower frame bound, a
    margin loose enough that modest subsamples clear it.

    A sampler is a callable (rng, count) -> (count, dim) array; then
    eta itself is unavailable, so the W2 hypothesis is only estimated
    against a held-out empirical draw and every derived flag is marked
    estimated in the report details.
    """
    estimated = False
    if callable(eta):
        rng = np.random.default_rng(seed)
        draws = np.asarray(eta(rng, n_samples), dtype=float)
        if draws.ndim == 1:
            draws = draws.reshape(-1, 1)
        if n_samples < draws.shape[1]:
            raise TooFewSamples(
                f"{n_samples} draws cannot span dimension {draws.shape[1]}"
            )
        mu_hat = uniform(draws)
        reference = uniform(
            np.asarray(eta(rng, max(200, 4 * n_samples)), dtype=float)
        )
        reference_report = analyze(reference)
        estimated = True
    else:
        if n_samples < eta.dim:
            raise TooFewSamples(
                f"{n_samples} atoms cannot span dimension {eta.dim}"
            )
        reference, reference_report = eta, analyze(eta)
        if not reference_report.is_frame:
            raise EtaNotFrame("input measure is not a frame")
        already_uniform = (
            eta.size == n_samples
            and float(np.abs(eta.weights - 1.0 / n_samples).max()) <= 1e-12
        )
        mu_hat = eta if already_uniform else greedy_subsample(eta, n_samples)
    mu_report = analyze(mu_hat)
    if not mu_report.is_frame:
        raise EtaNotFrame("subsample does not span the ambient space")
    nu_hat, dual_coupling = canonical_dual(mu_hat)
    transport = solve_w2(reference, mu_hat)
    a_eta = reference_report.lower_bound
    if a_n is None:
        a_n = a_eta / 4.0
    c_n = analyze(nu_hat).upper_bound
    w2_ok = transport.w2 < math.sqrt(a_n)
    product_ok = a_n * c_n <= 1.0 + 1e-12
    glued_cert = certify(glue(transport.plan, dual_coupling))
    if w2_ok and product_ok and not glued_cert.deviation < 1.0:
        raise InternalInvariantError(
            f"pipeline deviation {glued_cert.deviation:.17g} not below 1 "
            "despite satisfied hypotheses"
        )
    lam = transport.cost
    return (
        mu_hat,
        nu_hat,
        PerturbationReport(
            quadratic_cost=lam,
            lower_bound_estimate=_bound_estimate(a_eta, lam),
            flags=HypothesisFlags(
                quadratic_closeness=w2_ok, product_bound=product_ok
            ),
            certificate=glued_cert,
            details={
                "w2": transport.w2,
                "a_n": a_n,
                "c_n": c_n,
                "eta_lower_bound": a_eta,
                "subsample_lower_bound": mu_report.lower_bound,
                "estimated": estimated,
            },
        ),
    )


def report_to_dict(r: PerturbationReport) -> dict:
    return {
        "lambda": r.quadratic_cost,
        "lower_bound_estimate": r.lower_bound_estimate,
        "flags": asdict(r.flags),
        "certificate": (
            certificate_to_dict(r.certificate) if r.certificate else None
        ),
        "details": dict(r.details),
    }
