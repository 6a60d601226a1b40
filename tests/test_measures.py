import numpy as np
import pytest

from probframes.duals import convex_combination_certificate
from probframes.errors import (
    BadWeights,
    DimMismatch,
    MarginalMismatch,
    SourceMismatch,
)
from probframes.frames import canonical_dual
from probframes.measures import (
    DiscreteMeasure,
    dirac,
    group_atoms,
    measure_from_dict,
    measure_to_dict,
    mixture,
    same_measure,
    uniform,
    validate,
)
from probframes.perturbation import perturbed_frame_bound
from probframes.transport import glue, product_coupling


def test_point_list_promotes_to_column():
    m = DiscreteMeasure([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
    assert m.dim == 1
    assert m.size == 3
    assert m.atoms.shape == (3, 1)


def test_weight_validation():
    with pytest.raises(BadWeights):
        DiscreteMeasure([[0.0], [1.0]], [0.7, 0.7])
    with pytest.raises(BadWeights):
        DiscreteMeasure([[0.0], [1.0]], [1.1, -0.1])
    with pytest.raises(DimMismatch):
        DiscreteMeasure([[0.0], [1.0]], [0.5, 0.25, 0.25])


def test_arrays_are_frozen():
    m = uniform([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        m.atoms[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.weights[0] = 0.9


def test_second_moment():
    m = DiscreteMeasure([[1.0, 0.0], [0.0, 2.0]], [0.25, 0.75])
    # 0.25 * 1 + 0.75 * 4
    assert abs(m.second_moment() - 3.25) < 1e-15


def test_coalesce_merges_weights():
    m = DiscreteMeasure([[1.0], [1.0], [2.0]], [0.25, 0.25, 0.5])
    merged = m.coalesce()
    assert merged.size == 2
    assert abs(merged.weights.sum() - 1.0) < 1e-15
    # first occurrence is the representative
    assert merged.atoms[0, 0] == 1.0
    assert abs(merged.weights[0] - 0.5) < 1e-15


def test_group_atoms_tolerance():
    atoms = np.array([[0.0], [1e-14], [1.0]])
    reps, assign = group_atoms(atoms, 1e-12)
    assert reps == [0, 2]
    assert list(assign) == [0, 0, 1]


def nested_loop_groups(atoms, tol):
    """Reference: each atom joins the first representative within tol."""
    reps, assign = [], np.empty(atoms.shape[0], dtype=int)
    for i in range(atoms.shape[0]):
        hit = -1
        for g, r in enumerate(reps):
            if np.linalg.norm(atoms[i] - atoms[r]) <= tol:
                hit = g
                break
        if hit < 0:
            reps.append(i)
            hit = len(reps) - 1
        assign[i] = hit
    return reps, assign


def test_group_atoms_matches_nested_loop():
    rng = np.random.default_rng(2718)
    for case in range(400):
        n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        tol = (0.0, 1e-12, 1e-3, 0.5)[case % 4]
        family = case // 4 % 4
        if family == 0:  # lattice: many exact ties and distances of 1
            atoms = rng.integers(0, 3, (n, dim)).astype(float)
        elif family == 1:  # duplicates scattered through the list
            k = max(1, n // 3)
            atoms = rng.standard_normal((k, dim))[rng.integers(0, k, n)]
        elif family == 2:  # offsets at, just inside and just outside tol
            k = max(1, n // 4)
            base = rng.standard_normal((k, dim))[rng.integers(0, k, n)]
            step = tol * rng.choice([1.0, 1.0 - 1e-9, 1.0 + 1e-9, 0.5, 2.0], n)
            atoms = base + step[:, None] * np.eye(dim)[rng.integers(0, dim, n)]
        else:  # chains whose links are under tol while their ends are not
            atoms = np.cumsum(np.full((n, dim), 0.6 * tol / np.sqrt(dim)), axis=0)
            atoms = atoms[rng.permutation(n)]
        reps, assign = group_atoms(atoms, tol)
        want_reps, want_assign = nested_loop_groups(atoms, tol)
        assert reps == want_reps
        assert np.array_equal(assign, want_assign)


def test_pushforward_linear():
    m = uniform([[1.0, 0.0], [0.0, 1.0]])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    pushed = m.pushforward_linear(rot)
    assert np.abs(pushed.atoms - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-15


def test_pushforward_map_collapses_duplicates():
    m = uniform([[-1.0], [1.0]])
    pushed = m.pushforward_map(np.abs(m.atoms))
    assert pushed.size == 1
    assert pushed.weights[0] == 1.0


def test_dirac_and_uniform():
    d = dirac([2.0, 0.0])
    assert d.size == 1 and d.weights[0] == 1.0
    u = uniform([[0.0], [1.0], [2.0], [3.0]])
    assert np.abs(u.weights - 0.25).max() < 1e-15


def test_mixture():
    a = dirac([0.0])
    b = dirac([1.0])
    m = mixture([a, b], [0.3, 0.7])
    assert m.size == 2
    np.testing.assert_allclose(m.weights, [0.3, 0.7])
    with pytest.raises(BadWeights):
        mixture([a, b], [0.5, 0.6])


def test_mixture_merges_shared_atoms():
    a = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    b = DiscreteMeasure([[1.0], [2.0]], [0.5, 0.5])
    m = mixture([a, b], [0.5, 0.5])
    assert m.size == 3
    assert abs(m.weights.sum() - 1.0) < 1e-15


def test_validate_merges_on_request():
    m = DiscreteMeasure([[1.0], [1.0]], [0.5, 0.5])
    kept = validate(m)
    assert kept.size == 2
    merged = validate(m, merge_duplicates=True)
    assert merged.size == 1


def test_dict_round_trip():
    m = DiscreteMeasure([[0.5, 1.5], [2.0, -1.0]], [0.4, 0.6])
    back = measure_from_dict(measure_to_dict(m))
    assert np.array_equal(back.atoms, m.atoms)
    assert np.array_equal(back.weights, m.weights)


def test_dict_defaults_to_uniform():
    m = measure_from_dict({"atoms": [[0.0], [1.0], [2.0]]})
    assert np.abs(m.weights - 1.0 / 3.0).max() < 1e-15


def test_dict_checks_declared_dim():
    with pytest.raises(DimMismatch):
        measure_from_dict({"dim": 3, "atoms": [[0.0, 1.0]]})


def test_is_close_ignores_atom_order():
    a = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    b = DiscreteMeasure([[1.0], [0.0]], [0.5, 0.5])
    assert a.is_close(b)
    c = DiscreteMeasure([[0.0], [1.0]], [0.4, 0.6])
    assert not a.is_close(c)


def test_same_measure_boundary_in_2d():
    """Tolerance 1e-10 bounds the Euclidean distance of each atom pair.

    A shift of (0.8e-10, 0.8e-10) moves every atom by 1.13e-10 although
    no entry moves by more than 1e-10; (0.5e-10, 0.5e-10) moves it by
    0.71e-10. Every caller applies the same rule.
    """
    mu = DiscreteMeasure([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.2, 0.3, 0.5])
    _, canonical = canonical_dual(mu)
    for step, same in ((0.8e-10, False), (0.5e-10, True)):
        moved = DiscreteMeasure(mu.atoms + step, mu.weights)
        assert same_measure(mu, moved, 1e-10) is same
        callers = (
            (MarginalMismatch, lambda: glue(
                product_coupling(mu, mu), product_coupling(moved, mu)
            )),
            (MarginalMismatch, lambda: perturbed_frame_bound(
                mu, mu, product_coupling(mu, moved)
            )),
            (SourceMismatch, lambda: convex_combination_certificate(
                canonical, canonical_dual(moved)[1], 0.5
            )),
        )
        for error, call in callers:
            if same:
                call()
            else:
                with pytest.raises(error):
                    call()
    heavier = DiscreteMeasure(mu.atoms, [0.2 + 2e-10, 0.3 - 2e-10, 0.5])
    assert not same_measure(mu, heavier, 1e-10)
