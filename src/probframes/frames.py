"""Frame-operator analysis of discrete measures.

The frame operator of a measure is its second-moment matrix; the
measure is a frame exactly when that matrix is positive definite, and
the optimal frame bounds are its extreme eigenvalues. The canonical
dual is the pushforward under the inverse frame operator, carried here
together with its graph coupling, as the one point of a family: the
duals of pushforward type, whose images are X S^{-1} A + H - X S^{-1}
(X^T W H) for a mixed operator A and any offsets H.
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


def analyze(m: DiscreteMeasure) -> FrameReport:
    """Optimal frame bounds and tightness flags.

    The bounds are the extreme eigenvalues of the frame operator, which
    are optimal because x^T S x is exactly the integral of <x, y>^2.
    A measure counts as a frame when lambda_min > FRAME_RTOL *
    lambda_max, a test that scaling the atoms does not change; a measure
    whose atoms are all zero is not a frame.
    """
    s = frame_operator(m)
    w = eig_sym(s)
    lo, hi = float(w[0]), float(w[-1])
    is_frame = lo > FRAME_RTOL * hi
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


def _pushforward_images(
    m: DiscreteMeasure, a=None, h=None
) -> tuple[DiscreteMeasure, Coupling]:
    """The pushforward-type dual of m with mixed operator A, offset by H.

    Sends the atoms X to X S^{-1} A + H - X S^{-1} (X^T W H), whose mixed
    frame operator X^T W T(X) is A for every H; A = I and H = 0 give the
    canonical dual. A term left out (None) is not applied at all, since
    x @ I and x + 0.0 would turn -0.0 into +0.0.
    """
    base = m.atoms @ analyze(m).inverse()
    images = base if a is None else base @ a
    if h is not None:
        images = images + h - base @ (m.atoms.T @ (m.weights[:, None] * h))
    coupling = graph_coupling(m, images)
    return coupling.target, coupling


def canonical_dual(m: DiscreteMeasure) -> tuple[DiscreteMeasure, Coupling]:
    """Canonical dual measure with its graph coupling.

    Pushes every atom through the inverse frame operator. The dual's
    frame operator is the inverse of the original one, so its bounds are
    the reciprocals of the original bounds in swapped order.
    """
    return _pushforward_images(m)


def frame_report_to_dict(r: FrameReport) -> dict:
    return {**asdict(r), "frame_operator": r.frame_operator.tolist()}
