"""Frame-operator analysis of discrete measures.

The frame operator of a measure is its second-moment matrix; the
measure is a frame exactly when that matrix is positive definite, and
the optimal frame bounds are its extreme eigenvalues. The canonical
dual is the pushforward under the inverse frame operator, carried here
together with its graph coupling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotAFrame
from .measures import DiscreteMeasure
from .numerics import eig_sym, inverse
from .transport import Coupling, graph_coupling

FRAME_RTOL = 1e-10
TIGHT_RTOL = 1e-9


@dataclass(frozen=True)
class FrameReport:
    """Classification of a measure by its frame operator spectrum."""

    frame_operator: np.ndarray
    lower_bound: float
    upper_bound: float
    is_frame: bool
    is_tight: bool
    is_parseval: bool
    second_moment: float

    def inverse(self) -> np.ndarray:
        """Inverse frame operator S^{-1}; NotAFrame when S does not invert."""
        if not self.is_frame:
            raise NotAFrame(
                f"smallest frame-operator eigenvalue {self.lower_bound:.3e} "
                "is not positive within tolerance"
            )
        return inverse(self.frame_operator)


def frame_operator(m: DiscreteMeasure) -> np.ndarray:
    """Second-moment matrix sum_i w_i x_i x_i^T."""
    return (m.atoms * m.weights[:, None]).T @ m.atoms


def analyze(m: DiscreteMeasure, tol: float = FRAME_RTOL) -> FrameReport:
    """Optimal frame bounds and tightness flags.

    The bounds are the extreme eigenvalues of the frame operator, which
    are optimal because x^T S x is exactly the integral of <x, y>^2.
    A measure counts as a frame when lambda_min > tol * lambda_max, a
    test that scaling the atoms does not change; a measure whose atoms
    are all zero is not a frame.
    """
    s = frame_operator(m)
    w = eig_sym(s)
    lo, hi = float(w[0]), float(w[-1])
    is_frame = lo > tol * hi
    is_tight = is_frame and (hi - lo) <= TIGHT_RTOL * hi
    is_parseval = is_tight and abs(hi - 1.0) <= TIGHT_RTOL
    return FrameReport(
        frame_operator=s,
        lower_bound=lo,
        upper_bound=hi,
        is_frame=is_frame,
        is_tight=is_tight,
        is_parseval=is_parseval,
        second_moment=m.second_moment(),
    )


def canonical_dual(m: DiscreteMeasure) -> tuple[DiscreteMeasure, Coupling]:
    """Canonical dual measure with its graph coupling.

    Pushes every atom through the inverse frame operator. The dual's
    frame operator is the inverse of the original one, so its bounds are
    the reciprocals of the original bounds in swapped order.
    """
    s_inv = analyze(m).inverse()
    coupling = graph_coupling(m, m.atoms @ s_inv)
    return coupling.target, coupling


def rkhs_kernel(m: DiscreteMeasure, x, y) -> float:
    """Reproducing kernel x^T S^{-1} y of the analysis-operator range."""
    s_inv = analyze(m).inverse()
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    return float(xv @ s_inv @ yv)


def reproducing_check(m: DiscreteMeasure, u, z) -> float:
    """Residual of the reproducing identity for the functional <u, .>.

    Evaluates |sum_i w_i <u, x_i> K(z, x_i) - <u, z>|, which vanishes
    because sum_i w_i x_i x_i^T S^{-1} is the identity.
    """
    s_inv = analyze(m).inverse()
    uv = np.asarray(u, dtype=float).reshape(-1)
    zv = np.asarray(z, dtype=float).reshape(-1)
    kernel_at_atoms = m.atoms @ (s_inv @ zv)
    reproduced = float((m.weights * (m.atoms @ uv)) @ kernel_at_atoms)
    return abs(reproduced - float(uv @ zv))


def frame_report_to_dict(r: FrameReport) -> dict:
    return {**asdict(r), "frame_operator": r.frame_operator.tolist()}
