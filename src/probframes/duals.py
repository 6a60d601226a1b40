"""Dual, approximately dual, and pseudo-dual certification.

A coupling between two measures carries a mixed frame operator
A = sum_ij plan_ij x_i y_j^T. The pair is an exact dual when A is the
identity, approximately dual when ||A - Id|| < 1, pseudo-dual when A is
merely invertible. Certificates record the operator, its spectral
deviation from the identity, and the guaranteed frame bounds of the
second marginal.

Convention: certificates store the untransposed mixed operator. The
Neumann partial sums and the rescue construction act on the second
marginal through the TRANSPOSE of that operator; they transpose
internally and nothing else in the package needs to care.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadArgument,
    BadWeights,
    DeviationTooLarge,
    DimMismatch,
    MissingImage,
    NotAFrame,
    NotApproximate,
    Singular,
    SingularMixedOperator,
    SourceMismatch,
)
from .frames import _pushforward_images, analyze, frame_operator
from .measures import DiscreteMeasure, same_measure
from .numerics import inverse, spectral_norm
from .transport import Coupling, mixed_frame_operator, push_target

EXACT_TOL = 1e-9


@dataclass(frozen=True)
class DualCertificate:
    """What a coupling proves about its target as a dual of its source."""

    coupling: Coupling
    mixed_operator: np.ndarray
    deviation: float
    classification: str
    tol: float
    dual_lower_bound: float | None
    dual_upper_bound: float | None


def certify(c: Coupling, tol: float = EXACT_TOL) -> DualCertificate:
    """Classify a coupling by the strictest dual class it satisfies.

    exact: deviation <= tol; approximate: deviation < 1; pseudo: mixed
    operator invertible; none otherwise. When the operator inverts, the
    second marginal is guaranteed to be a frame with lower bound
    1/(B_mu ||A^{-1}||^2) and upper bound its second moment.
    """
    if not 0.0 <= tol < np.inf:
        raise BadArgument(
            f"the exactness tolerance must be a finite number >= 0, got {tol}"
        )
    if c.source.dim != c.target.dim:
        raise DimMismatch("dual certification needs equal ambient dimensions")
    a = mixed_frame_operator(c)
    deviation = spectral_norm(a - np.eye(c.source.dim))
    try:
        a_inv = inverse(a)
    except Singular:
        a_inv = None
    if deviation <= tol:
        classification = "exact"
    elif deviation < 1.0:
        classification = "approximate"
    elif a_inv is not None:
        classification = "pseudo"
    else:
        classification = "none"
    lower = upper = None
    if a_inv is not None:
        b_mu = analyze(c.source).upper_bound
        lower = 1.0 / (b_mu * spectral_norm(a_inv) ** 2)
        upper = c.target.second_moment()
    return DualCertificate(
        coupling=c,
        mixed_operator=a,
        deviation=deviation,
        classification=classification,
        tol=tol,
        dual_lower_bound=lower,
        dual_upper_bound=upper,
    )


def _require_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a mixed frame operator; SingularMixedOperator if none."""
    try:
        return inverse(a)
    except Singular:
        raise SingularMixedOperator("mixed frame operator is not invertible") from None


def approx_dual_pushforward(
    mu: DiscreteMeasure, a
) -> tuple[DiscreteMeasure, Coupling]:
    """Approximate dual (A^T S^{-1})#mu for a prescribed mixed operator.

    The graph coupling of the construction has mixed operator exactly A,
    so the deviation of the result is ||A - Id|| by design.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (mu.dim, mu.dim):
        raise DimMismatch(f"operator shape {a.shape} does not match dim {mu.dim}")
    deviation = spectral_norm(a - np.eye(mu.dim))
    if deviation >= 1.0:
        raise DeviationTooLarge(
            f"||A - Id|| = {deviation:.6g} is not below 1"
        )
    return _pushforward_images(mu, a=a)


def pushforward_dual(mu: DiscreteMeasure, h) -> tuple[DiscreteMeasure, Coupling]:
    """Exact dual from an arbitrary perturbation h of the canonical map.

    Sends x_i to S^{-1} x_i + h_i minus the moment correction
    sum_j w_j <S^{-1} x_i, x_j> h_j. The correction cancels whatever
    first mixed moment h introduces, so the result is an exact dual for
    every h; h with zero mixed moment is left untouched.
    """
    hv = np.asarray(h, dtype=float)
    if hv.ndim == 1:
        hv = hv.reshape(-1, 1)
    if hv.shape != (mu.size, mu.dim):
        raise MissingImage(
            f"need a {mu.size} x {mu.dim} array of h-values, got {hv.shape}"
        )
    return _pushforward_images(mu, h=hv)


def neumann_approx_dual(
    c: Coupling, n_terms: int
) -> tuple[DiscreteMeasure, Coupling, float]:
    """Neumann partial-sum correction of an approximate dual.

    Pushes the target through sum_{k=0}^{N} (Id - A)^k with A the
    transposed mixed operator. The corrected pair has mixed operator
    Id - (Id - A)^{N+1}, so the deviation is ||(Id - A)^{N+1}|| and is
    bounded by the returned error_bound ||Id - A||^{N+1}.
    """
    if n_terms < 0:
        raise BadArgument("the partial sum needs at least the k=0 term")
    cert = certify(c)
    if not cert.deviation < 1.0:
        raise NotApproximate(
            f"deviation {cert.deviation:.6g} is not below 1"
        )
    a_t = cert.mixed_operator.T
    eye = np.eye(a_t.shape[0])
    residual_op = eye - a_t
    partial = eye.copy()
    for _ in range(n_terms):
        partial = eye + residual_op @ partial
    corrected = push_target(c, c.target.atoms @ partial.T)
    error_bound = spectral_norm(residual_op) ** (n_terms + 1)
    return corrected.target, corrected, error_bound


def rescue_exact_dual(c: Coupling) -> tuple[DiscreteMeasure, Coupling]:
    """Exact dual from any pseudo-dual by inverting the mixed operator.

    Pushes the target through the inverse of the transposed mixed
    operator; the resulting pair has mixed operator Id.
    """
    cert = certify(c)
    a_t_inv = _require_inverse(cert.mixed_operator.T)
    rescued = push_target(c, c.target.atoms @ a_t_inv.T)
    return rescued.target, rescued


def uncertainty_product(c: Coupling, f) -> tuple[float, float]:
    """Uncertainty inequality for a coupling with invertible mixed operator.

    Returns (lhs, rhs) with
    lhs = (f^T A^{-1} S_mu A^{-T} f) * (f^T S_nu f) and rhs = |f|^4;
    the inequality lhs >= rhs holds by Cauchy-Schwarz through the plan.
    """
    fv = np.asarray(f, dtype=float).reshape(-1)
    if not np.all(np.isfinite(fv)):
        raise BadArgument("f has non-finite entries")
    cert = certify(c)
    a_inv = _require_inverse(cert.mixed_operator)
    if fv.shape[0] != c.source.dim:
        raise DimMismatch(f"f has dimension {fv.shape[0]}, expected {c.source.dim}")
    g = a_inv.T @ fv
    lhs = float(g @ frame_operator(c.source) @ g) * float(
        fv @ frame_operator(c.target) @ fv
    )
    rhs = float(fv @ fv) ** 2
    return lhs, rhs


@dataclass(frozen=True)
class BoundInequalities:
    """Frame bounds of both marginals against the guaranteed floors."""

    source_lower: float
    source_upper: float
    target_lower: float
    target_upper: float
    inverse_norm: float
    source_slack: float
    target_slack: float
    source_equality: bool
    target_equality: bool


def bound_inequalities(c: Coupling, tol: float = 1e-8) -> BoundInequalities:
    """Slacks of the two guaranteed lower-bound inequalities.

    target_slack = A_nu - 1/(B_mu ||A^{-1}||^2) and symmetrically for
    the source; both are nonnegative up to roundoff, with equality
    exactly for canonical dual pairs. A side reads as an equality when
    its |slack| <= tol times its own lower bound, so the flags do not
    change when the atoms are scaled.
    """
    source_report = analyze(c.source)
    target_report = analyze(c.target)
    if not (source_report.is_frame and target_report.is_frame):
        raise NotAFrame("both marginals must be frames")
    inv_norm = spectral_norm(_require_inverse(certify(c).mixed_operator))
    target_floor = 1.0 / (source_report.upper_bound * inv_norm**2)
    source_floor = 1.0 / (target_report.upper_bound * inv_norm**2)
    target_slack = target_report.lower_bound - target_floor
    source_slack = source_report.lower_bound - source_floor
    return BoundInequalities(
        source_lower=source_report.lower_bound,
        source_upper=source_report.upper_bound,
        target_lower=target_report.lower_bound,
        target_upper=target_report.upper_bound,
        inverse_norm=inv_norm,
        source_slack=source_slack,
        target_slack=target_slack,
        source_equality=abs(source_slack) <= tol * source_report.lower_bound,
        target_equality=abs(target_slack) <= tol * target_report.lower_bound,
    )


def convex_combination_certificate(
    c1: Coupling, c2: Coupling, w: float, tol: float = EXACT_TOL
) -> DualCertificate:
    """Certificate of the w-mixture of two approximate duals of one source.

    The mixture coupling sends the shared source into
    w nu_1 + (1-w) nu_2; its mixed operator is the corresponding convex
    combination, so deviations combine subadditively.
    """
    if not 0.0 <= w <= 1.0:
        raise BadWeights(f"mixture weight {w} is outside [0, 1]")
    if not same_measure(c1.source, c2.source):
        raise SourceMismatch("couplings do not share their source measure")
    d1, d2 = certify(c1, tol), certify(c2, tol)
    if not (d1.deviation < 1.0 and d2.deviation < 1.0):
        raise NotApproximate("both couplings must be approximate duals")
    if w == 1.0:
        return d1
    if w == 0.0:
        return d2
    stacked_atoms = np.vstack([c1.target.atoms, c2.target.atoms])
    stacked_weights = np.concatenate(
        [w * c1.target.weights, (1.0 - w) * c2.target.weights]
    )
    stacked_plan = np.hstack([w * c1.plan, (1.0 - w) * c2.plan])
    stacked = Coupling(
        c1.source,
        DiscreteMeasure(stacked_atoms, stacked_weights),
        stacked_plan,
    )
    # identity pushforward merges duplicate target atoms and their columns
    merged = push_target(stacked, stacked_atoms)
    return certify(merged, tol)


def certificate_to_dict(cert: DualCertificate) -> dict:
    return {
        "classification": cert.classification,
        "deviation": cert.deviation,
        "mixed_operator": cert.mixed_operator.tolist(),
        "dual_lower_bound": cert.dual_lower_bound,
        "dual_upper_bound": cert.dual_upper_bound,
        "tol": cert.tol,
    }
