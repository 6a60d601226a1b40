import numpy as np
import pytest

from probframes.errors import NotAFrame
from probframes.fixtures import load_measure
from probframes.frames import (
    analyze,
    canonical_dual,
    frame_operator,
    frame_report_to_dict,
)
from probframes.measures import DiscreteMeasure, dirac, uniform
from probframes.transport import mixed_frame_operator


def random_frame(rng, dim, size):
    atoms = rng.standard_normal((size, dim))
    w = rng.uniform(0.2, 1.0, size)
    return DiscreteMeasure(atoms, w / w.sum())


def test_dirac_one_is_parseval():
    report = analyze(dirac([1.0]))
    assert report.is_frame
    assert report.is_tight
    assert report.is_parseval
    assert abs(report.lower_bound - 1.0) < 1e-15


def test_dirac_zero_is_not_a_frame():
    report = analyze(dirac([0.0]))
    assert not report.is_frame
    with pytest.raises(NotAFrame, match=(
        r"^smallest frame-operator eigenvalue 0\.000e\+00 "
        "is not positive within tolerance$"
    )):
        canonical_dual(dirac([0.0]))


def test_two_point_operator_value():
    # 1/2 * (1/2)^2 + 1/2 * (3/2)^2 = 5/4
    m = load_measure("mean_one_pair")
    s = frame_operator(m)
    assert abs(s[0, 0] - 1.25) < 1e-15
    report = analyze(m)
    assert abs(report.second_moment - 1.25) < 1e-15
    # scalar operators are always tight, never Parseval unless equal to 1
    assert report.is_frame and report.is_tight and not report.is_parseval


def test_axes_are_tight_not_parseval():
    report = analyze(load_measure("axes_2d"))
    assert report.is_tight
    assert not report.is_parseval
    assert abs(report.lower_bound - 0.5) < 1e-15


def test_rank_deficient_support_is_not_a_frame():
    # both atoms on the first axis leave the second direction unseen
    m = uniform([[1.0, 0.0], [2.0, 0.0]])
    assert not analyze(m).is_frame


def test_canonical_dual_of_axes():
    dual, coupling = canonical_dual(load_measure("axes_2d"))
    assert dual.is_close(uniform([[2.0, 0.0], [0.0, 2.0]]))
    assert np.abs(mixed_frame_operator(coupling) - np.eye(2)).max() < 1e-12


def test_canonical_dual_operator_and_bounds():
    rng = np.random.default_rng(19)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        m = random_frame(rng, dim, dim + int(rng.integers(0, 5)))
        report = analyze(m)
        dual, _ = canonical_dual(m)
        dual_report = analyze(dual)
        s_inv = np.linalg.inv(report.frame_operator)
        assert np.abs(frame_operator(dual) - s_inv).max() < 1e-9
        # bounds swap and invert
        assert abs(dual_report.lower_bound - 1.0 / report.upper_bound) < 1e-8
        assert abs(dual_report.upper_bound - 1.0 / report.lower_bound) < 1e-8


def test_report_dict_keys():
    doc = frame_report_to_dict(analyze(dirac([1.0])))
    assert doc["is_parseval"] is True
    assert doc["frame_operator"] == [[1.0]]
    assert set(doc) == {
        "frame_operator",
        "lower_bound",
        "upper_bound",
        "is_frame",
        "is_tight",
        "is_parseval",
        "second_moment",
    }
