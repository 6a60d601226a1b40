"""Redundancy of discrete frames via the synthesis operator.

Redundancy is the kernel dimension of the synthesis operator, which for
an N-atom measure in R^n is N minus the rank of the atom matrix. A
second, spectral route computes the same number through the canonical
weighted basis of the analysis-operator range: the trace formula
sum_i (1 - w_i x_i^T S^{-1} x_i). The two routes agree exactly on
frames, which is the cross-check exposed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Singular
from .frames import analyze
from .measures import DiscreteMeasure
from .numerics import inverse, numeric_rank


@dataclass(frozen=True)
class SynthesisMatrix:
    """Matrix of the synthesis operator: column i is w_i x_i."""

    matrix: np.ndarray


def synthesis_matrix(m: DiscreteMeasure) -> SynthesisMatrix:
    return SynthesisMatrix((m.atoms * m.weights[:, None]).T)


def redundancy_rank(m: DiscreteMeasure, tol: float | None = None) -> int:
    """Kernel dimension of the synthesis operator.

    Duplicate atoms are merged first so the count reflects the support,
    not the listing.
    """
    merged = m.coalesce()
    return merged.size - numeric_rank(synthesis_matrix(merged).matrix, tol)


def redundancy_trace(m: DiscreteMeasure) -> float:
    """Redundancy through the canonical weighted basis of the range.

    Each atom contributes 1 - w_i x_i^T S^{-1} x_i, the defect of the
    corresponding basis functional under the reproducing kernel. Needs
    an invertible frame operator.
    """
    merged = m.coalesce()
    s_inv = analyze(merged).inverse()
    diag = np.einsum("ij,jk,ik->i", merged.atoms, s_inv, merged.atoms)
    return float(np.sum(1.0 - merged.weights * diag))


def equivalence_redundancy_check(m: DiscreteMeasure, a) -> tuple[int, int]:
    """Redundancy before and after an invertible linear pushforward.

    The two numbers agree: invertible maps preserve the kernel of the
    synthesis operator.
    """
    a = np.asarray(a, dtype=float)
    try:
        inverse(a)
    except Singular:
        raise Singular("pushforward matrix is not invertible") from None
    return redundancy_rank(m), redundancy_rank(m.pushforward_linear(a))
