"""Bundled example measures and couplings.

Small closed-form fixtures used across the test suite and reachable
from the command line via --fixture. The Gaussian cloud ships as a
generated file; regenerate_cloud() reproduces it bit for bit.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import BadArgument
from .measures import DiscreteMeasure, measure_from_dict, uniform
from .transport import Coupling, coupling_from_dict

MEASURES = (
    "dirac_one",
    "dirac_zero",
    "mean_one_pair",
    "mean_one_triple",
    "small_pair",
    "axes_2d",
    "sym_pair_1d",
    "near_dirac_pair",
    "shifted_gauss_100",
)
COUPLINGS = ("permuted_axes_coupling",)

CLOUD_SEED = 7
CLOUD_SIZE = 100


def fixture_path(name: str) -> Path:
    path = Path(str(resources.files("probframes") / "fixtures" / f"{name}.json"))
    if not path.exists():
        known = ", ".join(sorted(MEASURES + COUPLINGS))
        raise FileNotFoundError(f"no fixture '{name}' (known: {known})")
    return path


def load_measure(name: str) -> DiscreteMeasure:
    with open(fixture_path(name)) as fh:
        return measure_from_dict(json.load(fh))


def load_coupling(name: str) -> Coupling:
    with open(fixture_path(name)) as fh:
        return coupling_from_dict(json.load(fh))


def near_dirac_family(k: int) -> DiscreteMeasure:
    """Half the mass at 1, half at 1 - 1/(k+1).

    The family converges to the point mass at 1 in W2 at rate
    1/(sqrt(2)(k+1)) while its redundancy stays 1; the limit has
    redundancy 0.
    """
    if k < 1:
        raise BadArgument("the family starts at k = 1")
    return uniform([[1.0], [1.0 - 1.0 / (k + 1)]])


def regenerate_cloud() -> DiscreteMeasure:
    """The shifted Gaussian cloud behind shifted_gauss_100.json.

    100 standard-normal points in the plane shifted by e1 so the cloud
    has nonzero mean, drawn from a fixed seed.
    """
    rng = np.random.default_rng(CLOUD_SEED)
    points = rng.standard_normal((CLOUD_SIZE, 2))
    points[:, 0] += 1.0
    return uniform(points)
