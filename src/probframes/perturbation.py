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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .duals import (
    EXACT_TOL,
    DualCertificate,
    _require_inverse,
    approx_dual_pushforward,
    certificate_to_dict,
    certify,
)
from .errors import (
    BadArgument,
    EtaNotFrame,
    InternalInvariantError,
    MarginalMismatch,
    NotAFrame,
    NotApproximate,
    NotExactDual,
    TooFewSamples,
)
from .frames import analyze, canonical_dual
from .measures import DiscreteMeasure, _as_atoms, same_measure, uniform
from .numerics import eig_sym, sq_dists
from . import transport as _transport
from .transport import Coupling, glue, solve_w2, transport_cost


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
        values = (getattr(self.flags, f.name) for f in fields(self.flags))
        checked = [v for v in values if v is not None]
        return bool(checked) and all(checked)


def _expect_marginals(c: Coupling, *sides: DiscreteMeasure):
    """Raise unless c's source, and its target when given, are these measures."""
    for got, want, side in zip((c.source, c.target), sides, ("source", "target")):
        if not same_measure(got, want):
            raise MarginalMismatch(f"coupling {side} is not the expected measure")


def _closeness(
    mu: DiscreteMeasure, base: Coupling, eta: DiscreteMeasure, c: Coupling
) -> tuple[float, float]:
    """The setting of the perturbation theorems: (lambda, A).

    Raises unless the base coupling starts at mu and c couples eta to
    mu; lambda is the quadratic cost of c and A mu's lower frame bound.
    """
    _expect_marginals(base, mu)
    _expect_marginals(c, eta, mu)
    return transport_cost(c), analyze(mu).lower_bound


def _report(lam: float, a: float, **parts) -> PerturbationReport:
    """Report of a coupling of cost lam set against a lower frame bound a.

    Its guaranteed bound is (sqrt(a) - sqrt(lam))^2, None unless lam < a;
    parts are the report's flags, certificate and details.
    """
    estimate = (math.sqrt(a) - math.sqrt(lam)) ** 2 if lam < a else None
    return PerturbationReport(lam, estimate, **parts)


def _glued_certificate(
    c: Coupling, dual: Coupling, bound: float | None, tol: float = EXACT_TOL
) -> DualCertificate:
    """Certificate of the glued coupling glue(c, dual), exact within tol.

    bound is the deviation a theorem guarantees when its hypotheses hold,
    None when they do not; a deviation at or above it is a bug.
    """
    cert = certify(glue(c, dual), tol=tol)
    if bound is not None and not cert.deviation < bound:
        raise InternalInvariantError(
            f"glued deviation {cert.deviation:.17g} not below the guaranteed "
            f"bound {bound:.17g} despite satisfied hypotheses"
        )
    return cert


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
    eta_lower = analyze(eta).lower_bound
    report = _report(
        lam,
        a,
        flags=HypothesisFlags(quadratic_closeness=lam < a),
        certificate=None,
        details={"base_lower_bound": a, "eta_lower_bound": eta_lower},
    )
    estimate = report.lower_bound_estimate
    # the rounding of both bounds grows with the frame operator; so does the slack
    if estimate is not None and eta_lower < estimate - 1e-9 * mu_report.upper_bound:
        raise InternalInvariantError(
            "perturbation bound violated: measured "
            f"{eta_lower:.17g} below estimate {estimate:.17g}"
        )
    return report


def perturbed_approx_dual(
    mu: DiscreteMeasure,
    nu_dual: Coupling,
    eta: DiscreteMeasure,
    c: Coupling,
    tol: float = EXACT_TOL,
) -> PerturbationReport:
    """Transport an exact dual certificate to a perturbed source.

    nu_dual couples mu to an exact dual nu; c couples eta to mu. Gluing
    the two yields a coupling of eta to nu whose deviation is below
    sqrt(lambda * C) with C the upper bound of nu, hence below
    sqrt(A * C) <= 1 when both checked hypotheses hold. tol is the
    exactness tolerance of the glued certificate.
    """
    base = certify(nu_dual)
    if base.classification != "exact":
        raise NotExactDual(
            f"base coupling certifies as {base.classification}, not exact"
        )
    lam, a = _closeness(mu, nu_dual, eta, c)
    cap = analyze(nu_dual.target).upper_bound
    close = lam < a
    product_ok = a * cap <= 1.0 + 1e-12
    glued_cert = _glued_certificate(
        c,
        nu_dual,
        math.sqrt(a * cap) + 1e-9 if close and product_ok else None,
        tol=tol,
    )
    return _report(
        lam,
        a,
        flags=HypothesisFlags(quadratic_closeness=close, product_bound=product_ok),
        certificate=glued_cert,
        details={"base_lower_bound": a, "dual_upper_bound": cap},
    )


def _displacement_matrix(c: Coupling) -> np.ndarray:
    """Second moment of the displacement x - y under a coupling.

    It is symmetric by definition, and returned exactly symmetric: its
    terms cancel when y is near x, leaving an asymmetry of the order of
    their rounding, which grows with the coordinates.
    """
    x, y, p = c.source.atoms, c.target.atoms, c.plan
    cross = x.T @ p @ y
    m = (
        (x * p.sum(axis=1)[:, None]).T @ x
        + (y * p.sum(axis=0)[:, None]).T @ y
        - cross
        - cross.T
    )
    return 0.5 * (m + m.T)


def variant_certificates(
    mu: DiscreteMeasure,
    base: Coupling,
    eta: DiscreteMeasure,
    c: Coupling,
    tol: float = EXACT_TOL,
) -> PerturbationReport:
    """The directional and inverse-displaced perturbation hypotheses.

    Two sharper routes to the same glued certificate: the directional
    constant C_direction (largest eigenvalue of the displacement second
    moment) combined with M2(nu), applicable when the base pair is
    exact; and the A^{-1}-displaced cost against 1/C_nu, applicable
    whenever the base mixed operator inverts. Either hypothesis forces
    the glued deviation below 1. tol is the exactness tolerance of the
    glued certificate.
    """
    lam, a = _closeness(mu, base, eta, c)
    base_cert = certify(base)
    a_inv = _require_inverse(base_cert.mixed_operator)
    c_direction = float(eig_sym(_displacement_matrix(c))[-1])
    nu = base.target
    moment_ok = None
    if base_cert.classification == "exact":
        moment_ok = nu.second_moment() * c_direction < 1.0
    displaced = float((c.plan * sq_dists(eta.atoms, mu.atoms @ a_inv.T)).sum())
    c_nu = analyze(nu).upper_bound
    inverse_ok = displaced < 1.0 / c_nu
    glued_cert = _glued_certificate(
        c, base, 1.0 + 1e-9 if moment_ok or inverse_ok else None, tol=tol
    )
    return _report(
        lam,
        a,
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
    lam, a_mu = _closeness(mu, base, eta, c)
    if not lam < a_mu:
        raise EtaNotFrame(
            f"coupling cost {lam:.6g} does not certify eta as a frame "
            f"(needs < {a_mu:.6g})"
        )
    try:
        return approx_dual_pushforward(eta, base_cert.mixed_operator)
    except NotAFrame:
        raise EtaNotFrame("perturbed measure is not a frame") from None


# ---------------------------------------------------------------------------
# discrete sampling pipeline


def greedy_subsample(eta: DiscreteMeasure, n: int) -> DiscreteMeasure:
    """Deterministic n-point uniform approximation of a discrete measure.

    Farthest-point seeding (started from the heaviest atom) followed by
    first-improvement swap passes, each swap accepted only when it
    lowers the exact squared W2 distance to eta by more than a relative
    1e-12, so that a swap of equal cost is refused whatever the last
    bits of the two solves. Candidates for a swap are the few nearest
    unchosen atoms.

    Each trial's solve is handed the acceptance threshold as refuse_at,
    and stops as soon as a weak-duality bound on its cost, less a
    rounding margin, reaches it (see transport._transport_simplex). It
    then returns that floor as its cost, which is at or above the
    threshold and at most the cost a full solve reports, so the trial
    is refused as it would have been after a full solve; an accepted
    trial's solve never stops early, so the subsample and every
    accepted solve are those of full solves.

    A trial puts its candidate in the swapped-out atom's column and keeps
    every other column where the incumbent has it. All subsample columns
    weigh 1/n, so the incumbent's optimal tree is a feasible warm start
    for the trial as it stands, whose costs differ from the incumbent's
    only in the candidate's column. The incumbent's record also carries
    the duals that certified it (transport.HungTree.duals), and the solve
    prices the trial's cost against them first: most trials are refused
    on that floor, before the solve's set-up.
    """
    if n < 1:
        raise TooFewSamples(f"subsample size {n} is below 1")
    atoms = eta.atoms
    if n >= eta.size:
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
    best_tree, cost, _ = _transport._transport_simplex(
        eta.weights, sub_weights, sq[:, best]
    )
    threshold = cost * (1.0 - 1e-12)
    neighbors = 5
    for _ in range(6):
        improved = False
        for pos in range(n):
            out = sorted(best)[pos]
            k = best.index(out)
            dist_to_out = sq[out].copy()
            dist_to_out[best] = np.inf
            order = np.argsort(dist_to_out, kind="stable")[:neighbors]
            for cand in order:
                if not math.isfinite(dist_to_out[cand]):
                    break
                trial = best.copy()
                trial[k] = int(cand)
                tree, cost, _ = _transport._transport_simplex(
                    eta.weights,
                    sub_weights,
                    sq[:, trial],
                    start=best_tree,
                    refuse_at=threshold,
                )
                if cost < threshold:
                    best, best_tree, threshold = trial, tree, cost * (1.0 - 1e-12)
                    improved = True
                    break
        if not improved:
            break
    return uniform(atoms[sorted(best)])


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
    if a_n is not None and not 0.0 <= a_n < math.inf:
        raise BadArgument(f"A_N must be a finite number >= 0, got {a_n}")
    estimated = False
    if callable(eta):
        rng = np.random.default_rng(seed)
        draws = _as_atoms(eta(rng, n_samples))
        if n_samples < draws.shape[1]:
            raise TooFewSamples(
                f"{n_samples} draws cannot span dimension {draws.shape[1]}"
            )
        mu_hat = uniform(draws)
        reference = uniform(eta(rng, max(200, 4 * n_samples)))
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
        mu_hat = greedy_subsample(eta, n_samples)
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
    glued_cert = _glued_certificate(
        transport.plan, dual_coupling, 1.0 if w2_ok and product_ok else None
    )
    return (
        mu_hat,
        nu_hat,
        _report(
            transport.cost,
            a_eta,
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
