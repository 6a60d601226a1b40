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
from probframes.frames import canonical_dual
from probframes.measures import DiscreteMeasure
from probframes.transport import product_coupling


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
