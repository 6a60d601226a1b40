import numpy as np
import pytest

from probframes.duals import certify
from probframes.errors import NotAFrame, Singular
from probframes.fixtures import load_measure, near_dirac_family
from probframes.frames import canonical_dual
from probframes.measures import DiscreteMeasure, dirac, uniform
from probframes.redundancy import (
    equivalence_redundancy_check,
    redundancy_rank,
    redundancy_trace,
    synthesis_matrix,
)


def test_ladder_of_fixture_redundancies():
    assert redundancy_rank(load_measure("dirac_one")) == 0
    assert redundancy_rank(load_measure("mean_one_pair")) == 1
    assert redundancy_rank(load_measure("mean_one_triple")) == 2
    assert abs(redundancy_trace(load_measure("dirac_one")) - 0.0) < 1e-12
    assert abs(redundancy_trace(load_measure("mean_one_pair")) - 1.0) < 1e-12
    assert abs(redundancy_trace(load_measure("mean_one_triple")) - 2.0) < 1e-12


def test_synthesis_matrix_columns():
    m = DiscreteMeasure([[1.0, 0.0], [0.0, 1.0]], [0.25, 0.75])
    sm = synthesis_matrix(m)
    assert sm.matrix.shape == (2, 2)
    np.testing.assert_allclose(sm.matrix[:, 0], [0.25, 0.0])
    np.testing.assert_allclose(sm.matrix[:, 1], [0.0, 0.75])


def test_routes_agree_on_random_frames():
    rng = np.random.default_rng(101)
    for _ in range(60):
        dim = int(rng.integers(1, 6))
        size = dim + int(rng.integers(0, 8))
        atoms = rng.standard_normal((size, dim))
        w = rng.uniform(0.1, 1.0, size)
        m = DiscreteMeasure(atoms, w / w.sum())
        assert redundancy_rank(m) == size - dim
        assert abs(redundancy_trace(m) - (size - dim)) < 1e-8


def test_trace_route_needs_a_frame():
    # the one guarded inverse frame operator raises it, as canonical_dual does
    with pytest.raises(NotAFrame, match=(
        r"^smallest frame-operator eigenvalue 0\.000e\+00 "
        "is not positive within tolerance$"
    )):
        redundancy_trace(dirac([0.0]))


def test_duplicate_atoms_counted_once():
    m = DiscreteMeasure([[1.0], [1.0], [2.0]], [0.25, 0.25, 0.5])
    # two distinct support points in one dimension
    assert redundancy_rank(m) == 1
    assert abs(redundancy_trace(m) - 1.0) < 1e-12


def test_non_continuity_of_redundancy():
    """Redundancy 1 along the whole family, 0 at its W2 limit."""
    for k in range(1, 11):
        assert redundancy_rank(near_dirac_family(k)) == 1
    assert redundancy_rank(dirac([1.0])) == 0


def test_invariance_under_invertible_pushforward():
    rng = np.random.default_rng(55)
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        m = uniform(rng.standard_normal((dim + 3, dim)))
        a = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
        before, after = equivalence_redundancy_check(m, a)
        assert before == after == 3


def test_equivalence_check_rejects_singular_map():
    m = uniform([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(Singular):
        equivalence_redundancy_check(m, [[1.0, 0.0], [0.0, 0.0]])


def test_duplicate_merging_does_not_depend_on_the_scale():
    """A seeded 2-D frame of four atoms plus a copy of one, scaled by 2^k.

    A power-of-two scale is exact in floats, and the merges group atoms
    within a radius that scales with them, so the copy merges and the
    distinct atoms stay apart at every k: the redundancy, the canonical
    dual's atom count and its certificate do not move.
    """
    rng = np.random.default_rng(4)
    atoms = rng.standard_normal((4, 2))
    atoms = np.vstack([atoms, atoms[1]])
    w = rng.uniform(0.2, 1.0, 5)
    w /= w.sum()
    for k in range(-45, 46):
        m = DiscreteMeasure(2.0**k * atoms, w)
        assert redundancy_rank(m) == 2
        assert abs(redundancy_trace(m) - 2.0) < 2e-9
        dual, coupling = canonical_dual(m)
        assert dual.size == 4
        assert certify(coupling).classification == "exact"
