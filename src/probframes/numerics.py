"""Dense linear algebra with explicit failure modes, on numpy alone.

Thin wrappers around LAPACK (via numpy) that pin down the tolerances the
rest of the package relies on: symmetry is checked before any
eigendecomposition, and inversion refuses matrices whose LU pivots fall
below a relative threshold instead of returning garbage.
"""

from __future__ import annotations

import numpy as np

from .errors import BadArgument, DimMismatch, NonSymmetric, Singular

SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-12
RANK_RTOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d float array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise BadArgument(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise BadArgument("matrix has non-finite entries")
    return a


def as_square(m) -> np.ndarray:
    """as_matrix, refusing a matrix that is not square or is empty."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1] or a.size == 0:
        raise BadArgument(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


def eig_sym(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    Raises NonSymmetric when the asymmetry exceeds SYMMETRY_RTOL relative
    to the largest entry.
    """
    a = as_square(m)
    if float(np.abs(a - a.T).max()) > SYMMETRY_RTOL * float(np.abs(a).max()):
        raise NonSymmetric("matrix is not symmetric within tolerance")
    # symmetrize so roundoff in the input cannot leak into LAPACK; eigh,
    # since eigvalsh takes another LAPACK path whose last bits differ
    return np.linalg.eigh(0.5 * (a + a.T))[0]


def inverse(m) -> np.ndarray:
    """Invert via LU with partial pivoting.

    Raises Singular when any pivot of U falls below
    PIVOT_RTOL * max|entry|, which is the package-wide notion of
    numerically singular.
    """
    a = as_square(m)
    n = a.shape[0]
    scale = float(np.abs(a).max())
    if scale == 0.0:
        raise Singular("zero matrix is not invertible")
    u = a.copy()  # U's diagonal holds the pivots; numpy does not expose its LU
    for k in range(n):
        p = k + int(np.abs(u[k:, k]).argmax())
        u[[k, p]] = u[[p, k]]
        if abs(u[k, k]) < PIVOT_RTOL * scale:
            raise Singular(
                f"pivot {abs(u[k, k]):.3e} below threshold {PIVOT_RTOL * scale:.3e}"
            )
        u[k + 1:, k:] -= np.outer(u[k + 1:, k] / u[k, k], u[k, k:])
    # Fortran order: redundancy_trace's einsum rounds a C-ordered inverse differently
    return np.asfortranarray(np.linalg.solve(a, np.eye(n)))


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_matrix(m), 2))


def numeric_rank(m) -> int:
    """Number of singular values above RANK_RTOL * sigma_max."""
    s = np.linalg.svd(as_matrix(m), compute_uv=False)
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def sq_dists(x, y) -> np.ndarray:
    """Squared distances between the rows of x and y, one coordinate at a time."""
    if x.shape[1] != y.shape[1]:
        raise DimMismatch(f"measures live in dimensions {x.shape[1]} and {y.shape[1]}")
    out = np.zeros((x.shape[0], y.shape[0]))
    for k in range(x.shape[1]):
        out += (x[:, k, None] - y[None, :, k]) ** 2
    return out
