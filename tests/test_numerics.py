import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import cdist

from probframes.errors import BadArgument, NonSymmetric, Singular
from probframes.numerics import (
    PIVOT_RTOL,
    RANK_RTOL,
    as_matrix,
    as_square,
    eig_sym,
    inverse,
    numeric_rank,
    spectral_norm,
    sq_dists,
)

EPS = np.finfo(float).eps


def test_eig_sym_known_matrix():
    # eigenvalues of [[2, 1], [1, 2]] are 1 and 3
    spec = eig_sym([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)
    assert spec.smallest == spec.eigenvalues[0]
    assert spec.largest == spec.eigenvalues[-1]


def test_eig_sym_reconstruction_and_orthogonality():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(1, 7)
        m = rng.standard_normal((n, n))
        s = m + m.T
        spec = eig_sym(s)
        assert np.abs(spec.reconstruct() - s).max() < 1e-10
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.abs(gram - np.eye(n)).max() < 1e-12
        assert np.all(np.diff(spec.eigenvalues) >= 0)


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(NonSymmetric):
        eig_sym([[0.0, 1.0], [0.0, 0.0]])


def test_inverse_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 6)
        m = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        inv = inverse(m)
        assert np.abs(m @ inv - np.eye(n)).max() < 1e-9


def test_inverse_rejects_singular():
    with pytest.raises(Singular):
        inverse([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(Singular):
        inverse(np.zeros((3, 3)))


def test_spectral_norm_oracle():
    # rank-one uv^T has spectral norm |u| |v|
    u = np.array([3.0, 4.0])
    v = np.array([1.0, 2.0, 2.0])
    assert abs(spectral_norm(np.outer(u, v)) - 15.0) < 1e-12
    assert spectral_norm(np.eye(4)) == 1.0


def test_spectral_norm_vs_power_iteration():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        # independent oracle: largest eigenvalue of m^T m
        expect = np.sqrt(np.linalg.eigvalsh(m.T @ m)[-1])
        assert abs(spectral_norm(m) - expect) < 1e-10


def test_numeric_rank():
    rng = np.random.default_rng(11)
    for _ in range(30):
        rows, cols = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        r = int(rng.integers(1, min(rows, cols) + 1))
        m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        assert numeric_rank(m) == r
    assert numeric_rank(np.zeros((3, 5))) == 0


def test_malformed_matrices_are_bad_arguments():
    for bad in ([1.0, 2.0], [[1.0, np.nan]], [[np.inf]]):
        with pytest.raises(BadArgument):
            as_matrix(bad)
    with pytest.raises(BadArgument):
        as_square([[1.0, 2.0]])
    # still a ValueError for callers that catch one
    assert issubclass(BadArgument, ValueError)


# --- scipy as the oracle of the numpy-only routines --------------------------


def test_sq_dists_equals_cdist_bit_for_bit():
    rng = np.random.default_rng(8)
    for d in range(1, 13):
        for _ in range(200):
            m, n = rng.integers(1, 9, size=2)
            x = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-4, 4, d)
            y = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-4, 4, d)
            if rng.random() < 0.2:
                y[: min(m, n)] = x[: min(m, n)]  # zero distances
            assert np.array_equal(sq_dists(x, y), cdist(x, y, "sqeuclidean"))


def test_inverse_equals_lu_solve_and_is_fortran_ordered():
    """Bit for bit through d = 5. From d = 6 the LAPACK builds bundled
    with numpy and scipy may round differently, so larger inverses are
    held to the rounding error of the inversion."""
    rng = np.random.default_rng(9)
    for _ in range(2000):
        n = int(rng.integers(1, 10))
        a = rng.standard_normal((n, n))
        if rng.random() < 0.5:
            a = a @ a.T  # frame operators are symmetric positive definite
        else:
            a *= 10.0 ** rng.uniform(-2, 2, (n, 1))
        a *= 10.0 ** rng.uniform(-4, 4)
        inv = inverse(a)
        ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), np.eye(n))
        assert inv.flags.f_contiguous and inv.shape == (n, n)
        if n <= 5:
            assert np.array_equal(inv, ref)
        else:
            bound = EPS * np.linalg.cond(a) * np.abs(ref).max()
            assert np.abs(inv - ref).max() <= bound


def _lapack_pivot_ratio(a: np.ndarray) -> float:
    """Smallest |U_kk| of LAPACK's LU over the Singular threshold."""
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(a)
    return float(np.abs(np.diag(lu)).min()) / (PIVOT_RTOL * scale)


def _refuses(a: np.ndarray) -> bool:
    try:
        inverse(a)
    except Singular:
        return True
    return False


def test_singular_decisions_equal_lapack_pivot_decisions():
    """inverse refuses exactly the matrices whose LAPACK LU has a pivot
    below the threshold. The two eliminations round differently, so a
    pivot within 1e-3 of the threshold (relative) may land on either
    side; such ties are counted, and must stay rare."""
    rng = np.random.default_rng(10)
    decided = near = ties = 0
    for i in range(12000):
        n = int(rng.integers(1, 10))
        if i % 4 == 3:
            # exactly rank-deficient integer matrices
            k = int(rng.integers(0, n))
            a = rng.integers(-3, 4, (n, k)) @ rng.integers(-3, 4, (k, n))
            a = a.astype(float)
        else:
            # smallest singular value within a decade of the threshold
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s = np.sort(10.0 ** rng.uniform(-2, 2, n))[::-1]
            s[-1] = s[0] * PIVOT_RTOL * 10.0 ** rng.uniform(-1, 1)
            a = (q1 * s) @ q2.T * 10.0 ** rng.uniform(-4, 4)
        ratio = _lapack_pivot_ratio(a)
        near += 0.5 < ratio < 2.0
        if abs(ratio - 1.0) < 1e-3:
            ties += 1
            continue
        assert _refuses(a) == (ratio < 1.0), (i, ratio)
        decided += 1
    assert decided >= 10000 and near >= 1000 and ties <= 20


def test_numeric_rank_equals_svdvals_count():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        rows, cols = (int(v) for v in rng.integers(1, 10, size=2))
        k = min(rows, cols)
        r = int(rng.integers(0, k + 1))
        m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        if rng.random() < 0.5:
            # singular values spread around the rank threshold
            q1, _ = np.linalg.qr(rng.standard_normal((rows, k)))
            q2, _ = np.linalg.qr(rng.standard_normal((cols, k)))
            m = (q1 * 10.0 ** rng.uniform(-12, 0, k)) @ q2.T
        m *= 10.0 ** rng.uniform(-4, 4)
        s = scipy.linalg.svdvals(m)
        want = 0 if s[0] == 0.0 else int(np.count_nonzero(s > RANK_RTOL * s[0]))
        assert numeric_rank(m) == want
