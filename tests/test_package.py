import numpy as np
import pytest

import probframes
from probframes.errors import BadArgument
from probframes.fixtures import fixture_path, near_dirac_family, regenerate_cloud
from probframes.jsonio import dumps
from probframes.measures import measure_to_dict

PUBLIC_NAMES = [
    "Coupling",
    "DiscreteMeasure",
    "DualCertificate",
    "FrameReport",
    "PerturbationReport",
    "ProbFramesError",
    "TransportResult",
    "analyze",
    "approx_dual_pushforward",
    "bound_inequalities",
    "canonical_dual",
    "certify",
    "convex_combination_certificate",
    "dirac",
    "discrete_dual_pipeline",
    "equivalence_redundancy_check",
    "frame_operator",
    "glue",
    "graph_coupling",
    "greedy_subsample",
    "matched_mixed_dual",
    "mixed_frame_operator",
    "mixture",
    "neumann_approx_dual",
    "optimize_mixed_operator",
    "perturbed_approx_dual",
    "perturbed_frame_bound",
    "product_coupling",
    "pushforward_dual",
    "redundancy_rank",
    "redundancy_trace",
    "rescue_exact_dual",
    "solve_w2",
    "synthesis_matrix",
    "transport_cost",
    "uniform",
    "uncertainty_product",
    "validate",
    "variant_certificates",
    "w2_bruteforce",
]


def test_public_api_is_pinned():
    assert probframes.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(probframes, name)] == []


def test_regenerated_cloud_matches_bundled_file():
    # the file is the rendering of the regenerated cloud, byte for byte
    with open(fixture_path("shifted_gauss_100")) as fh:
        bundled = fh.read()
    assert bundled == dumps(measure_to_dict(regenerate_cloud())) + "\n"


def test_out_of_range_arguments_raise_bad_argument():
    mu = probframes.uniform([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(BadArgument, match="at least one iteration"):
        probframes.optimize_mixed_operator(mu, mu, np.eye(2), iters=0)
    with pytest.raises(BadArgument, match="k=0 term"):
        probframes.neumann_approx_dual(probframes.product_coupling(mu, mu), -1)
    with pytest.raises(BadArgument, match="starts at k = 1"):
        near_dirac_family(0)
