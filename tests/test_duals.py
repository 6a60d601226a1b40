import numpy as np
import pytest

from probframes.duals import (
    approx_dual_pushforward,
    bound_inequalities,
    certificate_to_dict,
    certify,
    convex_combination_certificate,
    neumann_approx_dual,
    pushforward_dual,
    rescue_exact_dual,
    uncertainty_product,
)
from probframes.errors import (
    BadArgument,
    BadWeights,
    DeviationTooLarge,
    NotApproximate,
    SingularMixedOperator,
    SourceMismatch,
)
from probframes.fixtures import load_coupling, load_measure
from probframes.frames import _pushforward_images, analyze, canonical_dual
from probframes.measures import DiscreteMeasure
from probframes.transport import mixed_frame_operator, product_coupling


def random_frame(rng, dim, size):
    atoms = rng.standard_normal((size, dim))
    w = rng.uniform(0.2, 1.0, size)
    return DiscreteMeasure(atoms, w / w.sum())


def random_contraction(rng, dim, norm):
    """Operator Id + E with ||E|| scaled to exactly norm."""
    e = rng.standard_normal((dim, dim))
    e *= norm / np.linalg.norm(e, 2)
    return np.eye(dim) + e


def test_certify_classes():
    rng = np.random.default_rng(8)
    mu = random_frame(rng, 2, 5)
    _, exact = canonical_dual(mu)
    assert certify(exact).classification == "exact"

    _, approx = approx_dual_pushforward(mu, random_contraction(rng, 2, 0.5))
    cert = certify(approx)
    assert cert.classification == "approximate"
    assert abs(cert.deviation - 0.5) < 1e-10

    # invertible but far from the identity
    _, far = canonical_dual(mu)
    from probframes.transport import push_target

    pseudo = push_target(far, far.target.atoms * 5.0)
    assert certify(pseudo).classification == "pseudo"

    assert certify(load_coupling("permuted_axes_coupling")).classification == "none"


@pytest.mark.parametrize("tol", [-1.0, -1e-300, np.nan, np.inf])
def test_certify_refuses_a_tolerance_that_is_negative_or_not_finite(tol):
    c = load_coupling("permuted_axes_coupling")
    with pytest.raises(BadArgument, match="finite number >= 0"):
        certify(c, tol=tol)
    # zero is a tolerance: the canonical pair of axes_2d deviates by 0
    cert = certify(canonical_dual(load_measure("axes_2d"))[1], tol=0.0)
    assert (cert.deviation, cert.classification) == (0.0, "exact")


def test_certificate_bounds_present_only_when_invertible():
    cert = certify(load_coupling("permuted_axes_coupling"))
    assert cert.dual_lower_bound is None
    assert cert.dual_upper_bound is None

    mu = load_measure("axes_2d")
    _, coupling = canonical_dual(mu)
    cert = certify(coupling)
    # 1/(B ||A^{-1}||^2) with B = 1/2 and A = Id
    assert abs(cert.dual_lower_bound - 2.0) < 1e-12
    assert abs(cert.dual_upper_bound - 4.0) < 1e-12


def test_approx_dual_reproduces_operator():
    rng = np.random.default_rng(21)
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        mu = random_frame(rng, dim, dim + int(rng.integers(0, 5)))
        a = random_contraction(rng, dim, rng.uniform(0.05, 0.95))
        _, coupling = approx_dual_pushforward(mu, a)
        assert np.abs(certify(coupling).mixed_operator - a).max() < 1e-9


def test_approx_dual_rejects_large_deviation():
    mu = load_measure("axes_2d")
    with pytest.raises(DeviationTooLarge):
        approx_dual_pushforward(mu, 2.5 * np.eye(2))


def test_pushforward_dual_exact_for_any_h():
    rng = np.random.default_rng(40)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        mu = random_frame(rng, dim, dim + int(rng.integers(1, 5)))
        h = rng.standard_normal((mu.size, dim))
        _, coupling = pushforward_dual(mu, h)
        assert certify(coupling).deviation < 1e-9


def test_pushforward_dual_zero_h_is_canonical():
    mu = load_measure("axes_2d")
    dual, _ = pushforward_dual(mu, np.zeros((2, 2)))
    canonical, _ = canonical_dual(mu)
    assert dual.is_close(canonical)


def pushforward_family_cases(seed, redundancies=range(4), count=40):
    """(measure, redundancy, scale) for seeded measures without duplicate
    atoms: dimension 1-3, redundancy R in redundancies, and coordinates
    at a scale from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim, r = int(rng.integers(1, 4)), int(rng.choice(redundancies))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        mu = random_frame(rng, dim, dim + r)
        yield DiscreteMeasure(scale * mu.atoms, mu.weights), r, scale


def images_of(coupling):
    """T(x_i) for each source atom of a graph coupling, in atom order."""
    return coupling.target.atoms[coupling.plan.argmax(axis=1)]


def relative_error(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def test_canonical_dual_is_the_only_pushforward_dual_without_redundancy():
    """With R = 0 the exact duals of pushforward type are one point: every
    offset h gives the canonical dual's images."""
    rng = np.random.default_rng(26)
    for mu, _, scale in pushforward_family_cases(260, redundancies=[0]):
        canonical = images_of(canonical_dual(mu)[1])
        for _ in range(5):
            # offsets as large as the dual atoms, which scale as 1/scale
            h = rng.standard_normal(mu.atoms.shape) / scale
            got = images_of(pushforward_dual(mu, h)[1])
            assert relative_error(got, canonical) < 1e-10


def test_pushforward_duals_form_an_affine_space_of_dimension_dim_times_redundancy():
    """h -> images is affine, and its linear part, the projection
    h -> h - X S^{-1} (X^T W h), has rank dim * R. Measured on unit
    offsets its nonzero singular values are at least 1 and the others
    rounding noise, so the rank counts singular values above 1/2: a
    rank relative to the largest singular value would count the noise
    of the zero map at R = 0."""
    rng = np.random.default_rng(27)
    for mu, r, scale in pushforward_family_cases(270):
        def images(h):
            return images_of(pushforward_dual(mu, h)[1])

        unit = 1.0 / scale
        origin = images(np.zeros(mu.atoms.shape))
        basis = np.eye(mu.atoms.size).reshape(-1, *mu.atoms.shape)
        linear = np.column_stack(
            [((images(unit * e) - origin) / unit).ravel() for e in basis]
        )
        singular = np.linalg.svd(linear, compute_uv=False)
        assert np.count_nonzero(singular > 0.5) == mu.dim * r
        h1, h2 = (unit * rng.standard_normal(mu.atoms.shape) for _ in range(2))
        mixed = images(0.25 * h1 + 0.75 * h2)
        assert relative_error(mixed, 0.25 * images(h1) + 0.75 * images(h2)) < 1e-10


def test_every_pushforward_type_dual_has_its_prescribed_mixed_operator():
    """X S^{-1} A + H - X S^{-1} (X^T W H) has mixed operator A for any
    offsets H and any A with ||A - I|| < 1, and so do the public members
    of the family: the canonical dual (A = I, H = 0), the approximate
    dual (H = 0) and the pushforward dual (A = I)."""
    rng = np.random.default_rng(28)
    for mu, _, scale in pushforward_family_cases(280):
        eye = np.eye(mu.dim)
        a = random_contraction(rng, mu.dim, rng.uniform(0.05, 0.95))
        h = rng.standard_normal(mu.atoms.shape) / scale
        for coupling, want in (
            (_pushforward_images(mu, a, h)[1], a),
            (canonical_dual(mu)[1], eye),
            (approx_dual_pushforward(mu, a)[1], a),
            (pushforward_dual(mu, h)[1], eye),
        ):
            assert relative_error(mixed_frame_operator(coupling), want) < 1e-10


def test_neumann_scalar_fixture():
    """One atom at 1/2 makes every quantity a closed-form power of 2."""
    mu = DiscreteMeasure([[1.0]], [1.0])
    _, coupling = approx_dual_pushforward(mu, [[0.5]])
    for n in range(6):
        dual, corrected, bound = neumann_approx_dual(coupling, n)
        # partial sum (1 + 1/2 + ... + 2^{-n}) applied to the atom 1/2
        expect_atom = 1.0 - 0.5 ** (n + 1)
        assert abs(dual.atoms[0, 0] - expect_atom) < 1e-12
        dev = certify(corrected).deviation
        assert abs(dev - 0.5 ** (n + 1)) < 1e-12
        assert abs(bound - 0.5 ** (n + 1)) < 1e-12


def test_neumann_deviation_identity():
    rng = np.random.default_rng(62)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        mu = random_frame(rng, dim, dim + 3)
        a = random_contraction(rng, dim, rng.uniform(0.1, 0.9))
        _, coupling = approx_dual_pushforward(mu, a)
        residual = np.eye(dim) - a
        for n in (0, 1, 3, 7):
            _, corrected, bound = neumann_approx_dual(coupling, n)
            power = np.linalg.matrix_power(residual, n + 1)
            expect = np.linalg.norm(power, 2)
            assert abs(certify(corrected).deviation - expect) < 1e-9
            assert certify(corrected).deviation <= bound + 1e-9


def test_neumann_needs_approximate_input():
    with pytest.raises(NotApproximate):
        neumann_approx_dual(load_coupling("permuted_axes_coupling"), 3)
    mu = DiscreteMeasure([[1.0]], [1.0])
    _, c = approx_dual_pushforward(mu, [[0.5]])
    with pytest.raises(BadArgument):
        neumann_approx_dual(c, -1)


def test_rescue_recovers_canonical_dual():
    rng = np.random.default_rng(314)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        mu = random_frame(rng, dim, dim + int(rng.integers(0, 4)))
        a = random_contraction(rng, dim, rng.uniform(0.1, 0.9))
        _, approx = approx_dual_pushforward(mu, a)
        rescued, coupling = rescue_exact_dual(approx)
        assert certify(coupling).deviation <= 1e-9
        canonical, _ = canonical_dual(mu)
        assert rescued.is_close(canonical, tol=1e-8)


def test_rescue_needs_invertible_operator():
    with pytest.raises(SingularMixedOperator):
        rescue_exact_dual(load_coupling("permuted_axes_coupling"))


def test_uncertainty_inequality():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        mu = random_frame(rng, dim, dim + int(rng.integers(0, 5)))
        a = random_contraction(rng, dim, rng.uniform(0.05, 0.95))
        _, coupling = approx_dual_pushforward(mu, a)
        for _ in range(5):
            f = rng.standard_normal(dim)
            lhs, rhs = uncertainty_product(coupling, f)
            assert lhs >= rhs - 1e-9
            assert abs(rhs - float(f @ f) ** 2) < 1e-9


def test_uncertainty_equality_for_canonical_pairs():
    mu = load_measure("axes_2d")
    _, coupling = canonical_dual(mu)
    lhs, rhs = uncertainty_product(coupling, [1.0, 0.0])
    # S and S^{-1} quadratic forms multiply to exactly |f|^4 here
    assert abs(lhs - rhs) < 1e-12


def test_bound_inequalities_equality_for_canonical():
    rng = np.random.default_rng(12)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        mu = random_frame(rng, dim, dim + int(rng.integers(0, 4)))
        _, coupling = canonical_dual(mu)
        b = bound_inequalities(coupling)
        assert b.target_equality and b.source_equality
        assert b.target_slack >= -1e-10
        assert b.source_slack >= -1e-10


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1.0, 1e4])
def test_frames_and_canonical_pairs_at_every_coordinate_scale(scale):
    # scaling the atoms by s scales S by s**2, so a frame stays a frame
    # and its canonical pair meets both bound inequalities with equality
    rng = np.random.default_rng(7)
    for _ in range(100):
        unit = random_frame(rng, 2, 4)
        mu = DiscreteMeasure(scale * unit.atoms, unit.weights)
        assert analyze(mu).is_frame
        b = bound_inequalities(canonical_dual(mu)[1])
        assert b.source_equality and b.target_equality


def test_bound_inequalities_slack_nonnegative():
    rng = np.random.default_rng(44)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        mu = random_frame(rng, dim, dim + 3)
        a = random_contraction(rng, dim, rng.uniform(0.1, 0.8))
        _, coupling = approx_dual_pushforward(mu, a)
        b = bound_inequalities(coupling)
        assert b.target_slack >= -1e-10
        assert b.source_slack >= -1e-10


def test_convex_combination_endpoints_and_mixtures():
    rng = np.random.default_rng(90)
    mu = random_frame(rng, 2, 5)
    _, c1 = approx_dual_pushforward(mu, random_contraction(rng, 2, 0.3))
    _, c2 = approx_dual_pushforward(mu, random_contraction(rng, 2, 0.6))
    d1, d2 = certify(c1), certify(c2)
    assert convex_combination_certificate(c1, c2, 1.0).deviation == d1.deviation
    assert convex_combination_certificate(c1, c2, 0.0).deviation == d2.deviation
    for w in (0.25, 0.5, 0.75):
        mix = convex_combination_certificate(c1, c2, w)
        # deviations combine subadditively
        assert mix.deviation <= w * d1.deviation + (1 - w) * d2.deviation + 1e-12
        assert mix.classification in ("exact", "approximate")


def test_convex_combination_guards():
    rng = np.random.default_rng(91)
    mu = random_frame(rng, 2, 5)
    other = random_frame(rng, 2, 5)
    _, c1 = approx_dual_pushforward(mu, random_contraction(rng, 2, 0.3))
    _, c2 = approx_dual_pushforward(other, random_contraction(rng, 2, 0.3))
    with pytest.raises(SourceMismatch):
        convex_combination_certificate(c1, c2, 0.5)
    with pytest.raises(BadWeights):
        convex_combination_certificate(c1, c1, 1.5)
    with pytest.raises(NotApproximate):
        convex_combination_certificate(
            load_coupling("permuted_axes_coupling"),
            load_coupling("permuted_axes_coupling"),
            0.5,
        )


def test_zero_mean_self_product_is_none():
    m = load_measure("sym_pair_1d")
    cert = certify(product_coupling(m, m))
    assert cert.classification == "none"
    assert abs(cert.mixed_operator[0, 0]) < 1e-15


def test_certificate_dict_keys():
    mu = load_measure("axes_2d")
    _, coupling = canonical_dual(mu)
    doc = certificate_to_dict(certify(coupling))
    assert doc["classification"] == "exact"
    assert set(doc) == {
        "classification",
        "deviation",
        "mixed_operator",
        "dual_lower_bound",
        "dual_upper_bound",
        "tol",
    }
