"""Finitely supported probability measures on R^n.

A measure is a weighted atom list: atoms stacked as rows of an (N, n)
array, strictly positive weights summing to one. Construction validates
and rejects bad input; nothing is silently repaired. Coalescing of
near-duplicate atoms is explicit and used by the pushforward operations
so duplicate atoms cannot accumulate downstream; their one image merge
groups atoms within a radius relative to the atoms' scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadWeights, DimMismatch, MissingImage
from .numerics import as_matrix

WEIGHT_TOL = 1e-12
COALESCE_TOL = 1e-12
SAME_TOL = 1e-10


def _as_floats(value, error) -> np.ndarray:
    """value as a new float array; error(text) when it is not numeric."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise error(str(err)) from None


def _as_atoms(atoms) -> np.ndarray:
    a = _as_floats(atoms, DimMismatch)
    if a.ndim == 1:
        # a flat list is read as N points on the real line
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimMismatch(f"atoms must be an (N, dim) array, got shape {a.shape}")
    if a.shape[1] == 0:
        raise DimMismatch(f"atoms need at least one coordinate, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimMismatch("atoms have non-finite entries")
    return a


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finite support in R^dim.

    It holds read-only copies of the arrays it is given.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = _as_atoms(self.atoms)
        weights = np.array(self.weights, dtype=float).reshape(-1)
        if atoms.shape[0] == 0:
            raise BadWeights("measure needs at least one atom")
        if weights.shape[0] != atoms.shape[0]:
            raise DimMismatch(
                f"{atoms.shape[0]} atoms but {weights.shape[0]} weights"
            )
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise BadWeights("weights must be finite and strictly positive")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_TOL:
            raise BadWeights(
                f"weights sum to {float(weights.sum()):.17g}, not 1"
            )
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    def second_moment(self) -> float:
        """Integral of |x|^2, the Bessel constant of the measure."""
        return float(self.weights @ np.einsum("ij,ij->i", self.atoms, self.atoms))

    def coalesce(self, tol: float | None = None) -> "DiscreteMeasure":
        """Merge atoms within Euclidean distance tol, summing weights.

        The first occurrence of each atom group is kept as the
        representative, so the result is deterministic. tol=0 merges
        exact duplicates only; by default atoms merge within
        _merge_radius, which scales with them.
        """
        reps, assign = group_atoms(
            self.atoms, _merge_radius(self.atoms) if tol is None else tol
        )
        if len(reps) == self.size:
            return self
        return merge_atoms(self.atoms, self.weights, reps, assign)

    def pushforward_linear(self, a) -> "DiscreteMeasure":
        """Image measure under x -> A x; colliding images are merged."""
        mat = as_matrix(a)
        if mat.shape[1] != self.dim:
            raise DimMismatch(
                f"map expects dimension {mat.shape[1]}, measure has {self.dim}"
            )
        return _merged_images(self.atoms @ mat.T, self.weights)[0]

    def pushforward_map(self, images) -> "DiscreteMeasure":
        """Image measure under an extensionally given map.

        images supplies T(x_i) for each atom in order; anything else is
        a MissingImage error. Colliding images are merged.
        """
        return _merged_images(images, self.weights)[0]

    def is_close(self, other: "DiscreteMeasure", tol: float | None = None) -> bool:
        """Equality as measures: same atoms (within a radius) with same mass.

        Atom order is irrelevant; both sides are coalesced within the
        radius first. By default the radius is 1e-9 times the larger of
        the two measures' largest absolute coordinates, the rule of
        same_measure, and weights match within 1e-9; an explicit tol is
        an absolute radius, and weights then match within max(tol, 1e-12).
        """
        scale = max(float(np.abs(m.atoms).max()) for m in (self, other))
        radius, wtol = (1e-9 * scale, 1e-9) if tol is None else (tol, max(tol, 1e-12))
        a, b = self.coalesce(radius), other.coalesce(radius)
        if a.dim != b.dim or a.size != b.size:
            return False
        used = np.zeros(b.size, dtype=bool)
        for i in range(a.size):
            d = np.linalg.norm(b.atoms - a.atoms[i], axis=1)
            d[used] = np.inf
            j = int(np.argmin(d))
            if d[j] > radius or abs(a.weights[i] - b.weights[j]) > wtol:
                return False
            used[j] = True
        return True


def group_atoms(atoms: np.ndarray, tol: float) -> tuple[list[int], np.ndarray]:
    """Greedy duplicate grouping: first occurrence is the representative.

    Returns (representative indices, group index per atom). Each
    ungrouped atom opens a group and claims, in one vectorized pass,
    every later ungrouped atom within Euclidean distance tol.
    """
    reps: list[int] = []
    assign = np.full(atoms.shape[0], -1)
    for i in range(atoms.shape[0]):
        if assign[i] < 0:
            near = np.linalg.norm(atoms[i:] - atoms[i], axis=1) <= tol
            assign[i:][near & (assign[i:] < 0)] = len(reps)
            reps.append(i)
    return reps, assign


def _merge_radius(atoms: np.ndarray) -> float:
    """COALESCE_TOL times the largest absolute coordinate of the atoms:
    the radius within which the package's own merges group atoms, so
    that scaling the atoms by 2^k merges the same ones."""
    return COALESCE_TOL * float(np.abs(atoms).max())


def merge_atoms(
    atoms: np.ndarray, weights, reps: list[int], assign: np.ndarray
) -> DiscreteMeasure:
    """Merge the atom groups found by group_atoms into one measure.

    Each group sits at its representative and carries the summed weight
    of its atoms, added in atom order.
    """
    merged = np.zeros(len(reps))
    np.add.at(merged, assign, weights)
    return DiscreteMeasure(atoms[reps], merged)


def _merged_images(images, weights) -> tuple[DiscreteMeasure, np.ndarray]:
    """The measure of weighted images, colliding ones merged into one atom.

    Returns that measure and, for each image, the index of its atom;
    MissingImage unless there is one image per weight.
    """
    imgs = _as_atoms(images)
    if imgs.shape[0] != weights.shape[0]:
        raise MissingImage(f"need {weights.shape[0]} images, got {imgs.shape[0]}")
    reps, assign = group_atoms(imgs, _merge_radius(imgs))
    return merge_atoms(imgs, weights, reps, assign), assign


def same_measure(a: DiscreteMeasure, b: DiscreteMeasure) -> bool:
    """Atom-by-atom equality: same size and dimension, each atom within
    Euclidean distance SAME_TOL * scale of its partner, scale the larger
    of the two measures' largest absolute coordinates, and each weight
    within SAME_TOL."""
    if a.size != b.size or a.dim != b.dim:
        return False
    scale = max(float(np.abs(a.atoms).max()), float(np.abs(b.atoms).max()))
    return (
        float(np.linalg.norm(a.atoms - b.atoms, axis=1).max()) <= SAME_TOL * scale
        and float(np.abs(a.weights - b.weights).max()) <= SAME_TOL
    )


def dirac(point) -> DiscreteMeasure:
    """Unit mass at a single point."""
    p = np.atleast_1d(np.asarray(point, dtype=float))
    return DiscreteMeasure(p.reshape(1, -1), np.array([1.0]))


def uniform(atoms) -> DiscreteMeasure:
    """Equal mass on the given atoms."""
    a = _as_atoms(atoms)
    return DiscreteMeasure(a, np.full(a.shape[0], 1.0) / a.shape[0])


def validate(m: DiscreteMeasure, merge_duplicates: bool = False) -> DiscreteMeasure:
    """m itself, or m.coalesce() (within the merge radius, relative to
    the atoms' scale) when merge_duplicates is set. Construction has
    already checked it, and the record holds read-only copies, so there
    is nothing to check again."""
    return m.coalesce() if merge_duplicates else m


def mixture(measures, coefficients) -> DiscreteMeasure:
    """Convex combination of measures on a common space."""
    coef = np.asarray(coefficients, dtype=float).reshape(-1)
    if len(measures) == 0 or coef.shape[0] != len(measures):
        raise DimMismatch("need one coefficient per measure")
    if np.any(coef <= 0.0) or abs(float(coef.sum()) - 1.0) > WEIGHT_TOL:
        raise BadWeights("mixture coefficients must be positive and sum to 1")
    dim = measures[0].dim
    if any(m.dim != dim for m in measures):
        raise DimMismatch("mixture components live in different dimensions")
    atoms = np.vstack([m.atoms for m in measures])
    weights = np.concatenate([c * m.weights for c, m in zip(coef, measures)])
    return DiscreteMeasure(atoms, weights).coalesce()


def measure_to_dict(m: DiscreteMeasure) -> dict:
    return {
        "dim": m.dim,
        "atoms": m.atoms.tolist(),
        "weights": m.weights.tolist(),
    }


def measure_from_dict(d: dict) -> DiscreteMeasure:
    if not isinstance(d, dict):
        raise DimMismatch("measure document is not a JSON object")
    if "atoms" not in d:
        raise DimMismatch("measure document lacks 'atoms'")
    atoms = _as_atoms(d["atoms"])
    if "dim" in d:
        try:
            dim = int(d["dim"])
        except (TypeError, ValueError) as err:
            raise DimMismatch(str(err)) from None
        if dim != atoms.shape[1]:
            raise DimMismatch(
                f"declared dim {d['dim']} but atoms have dimension {atoms.shape[1]}"
            )
    if d.get("weights") is None:
        return uniform(atoms)
    return DiscreteMeasure(atoms, _as_floats(d["weights"], BadWeights))
