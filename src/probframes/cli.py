"""Command-line front end.

Every operation of the library is reachable on JSON documents: measures
and couplings are files (or bundled fixture names), reports are printed
to standard output with fixed-precision floats so identical invocations
are byte-identical. Exit codes: 0 success, 2 validation error
(including unreadable paths and measure or coupling documents that are
not JSON objects), 3 when a perturbation hypothesis fails and the report
therefore asserts nothing, 1 internal error (including a failed
optimality certificate or a violated theorem bound).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fixtures
from .duals import (
    EXACT_TOL,
    approx_dual_pushforward,
    bound_inequalities,
    certificate_to_dict,
    certify,
    neumann_approx_dual,
    pushforward_dual,
    rescue_exact_dual,
    uncertainty_product,
)
from .errors import BadArgument, ProbFramesError, WrongInputCount
from .frames import analyze, canonical_dual, frame_report_to_dict
from .jsonio import dumps, render_text
from .measures import DiscreteMeasure, _as_floats, measure_from_dict, measure_to_dict
from .perturbation import (
    discrete_dual_pipeline,
    matched_mixed_dual,
    perturbed_approx_dual,
    perturbed_frame_bound,
    report_to_dict,
    variant_certificates,
)
from .redundancy import redundancy_rank, redundancy_trace
from .transport import (
    SEARCH_ITERS,
    Coupling,
    _marginal_errors,
    coupling_from_dict,
    coupling_to_dict,
    mixed_frame_operator,
    optimize_mixed_operator,
    solve_w2,
    transport_cost,
)


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # not JSON, or not text at all
            raise BadArgument(str(err)) from None


def _resolve(name: str) -> object:
    """A positional input is a file path or a bundled fixture name."""
    if Path(name).exists():
        return _read_json(name)
    return _read_json(fixtures.fixture_path(name))


def _measure(name: str) -> DiscreteMeasure:
    return measure_from_dict(_resolve(name))


def _coupling(name: str) -> Coupling:
    return coupling_from_dict(_resolve(name))


def _matrix(name: str) -> np.ndarray:
    doc = _resolve(name)
    if isinstance(doc, dict):
        doc = doc.get("entries", doc.get("atoms"))
    return _as_floats(doc, BadArgument)


def _inputs(args, counts: tuple[int, ...]) -> list[str]:
    """The positional inputs, which must number one of counts."""
    if len(args.inputs) not in counts:
        takes = " or ".join(map(str, counts))
        plural = "" if counts == (1,) else "s"
        raise WrongInputCount(
            f"{args.command} takes {takes} input{plural}, got {len(args.inputs)}"
        )
    return args.inputs


def _dual_doc(dual: DiscreteMeasure, coupling: Coupling, tol: float) -> dict:
    return {
        "dual": measure_to_dict(dual),
        "coupling": coupling_to_dict(coupling),
        "certificate": certificate_to_dict(certify(coupling, tol=tol)),
    }


def _measure_summary(m: DiscreteMeasure) -> dict:
    report = analyze(m)
    doc = frame_report_to_dict(report)
    doc["redundancy_rank"] = redundancy_rank(m)
    doc["redundancy_trace"] = redundancy_trace(m) if report.is_frame else None
    return doc


# --- command handlers: each returns (document, hypotheses_ok) ----------------


def _cmd_analyze(args, name):
    return _measure_summary(_measure(name)), True


def _cmd_w2(args, a, b):
    result = solve_w2(_measure(a), _measure(b))
    return {
        "cost": result.cost,
        "w2": result.w2,
        "plan": coupling_to_dict(result.plan),
    }, True


def _cmd_coupling_check(args, name):
    c = _coupling(name)
    row_err, col_err = _marginal_errors(c.plan, c.source, c.target)
    doc = {
        "valid": True,
        "row_error": row_err,
        "col_error": col_err,
        "mixed_operator": mixed_frame_operator(c).tolist(),
    }
    if c.source.dim == c.target.dim:
        doc["cost"] = transport_cost(c)
    return doc, True


def _cmd_certify(args, *names):
    if len(names) == 1:
        cert = certify(_coupling(names[0]), tol=args.tol)
        doc = certificate_to_dict(cert)
    else:
        mu, nu = _measure(names[0]), _measure(names[1])
        search = optimize_mixed_operator(
            mu, nu, np.eye(mu.dim), iters=args.iters
        )
        cert = certify(search.coupling, tol=args.tol)
        doc = certificate_to_dict(cert)
        doc["search"] = {
            "residual": search.residual,
            "gap": search.gap,
            "iterations": search.iterations,
        }
    doc["source_redundancy"] = redundancy_rank(cert.coupling.source)
    doc["target_redundancy"] = redundancy_rank(cert.coupling.target)
    return doc, True


def _cmd_canonical_dual(args, name):
    return _dual_doc(*canonical_dual(_measure(name)), args.tol), True


def _cmd_approx_dual(args, name):
    dual_pair = approx_dual_pushforward(_measure(name), _matrix(args.operator))
    return _dual_doc(*dual_pair, args.tol), True


def _cmd_neumann(args, name):
    if args.terms < 0:
        raise BadArgument(f"--terms must be at least 0, got {args.terms}")
    c = _coupling(name)
    sequence = []
    dual = corrected = None
    for k in range(args.terms + 1):
        dual, corrected, bound = neumann_approx_dual(c, k)
        sequence.append(
            {
                "terms": k,
                "deviation": certify(corrected, tol=args.tol).deviation,
                "error_bound": bound,
            }
        )
    return {
        "sequence": sequence,
        "dual": measure_to_dict(dual),
        "coupling": coupling_to_dict(corrected),
    }, True


def _cmd_rescue(args, name):
    return _dual_doc(*rescue_exact_dual(_coupling(name)), args.tol), True


def _cmd_pushforward(args, name):
    m = _measure(name)
    offsets = (
        _matrix(args.offsets)
        if args.offsets
        else np.zeros((m.size, m.dim))
    )
    return _dual_doc(*pushforward_dual(m, offsets), args.tol), True


def _cmd_uncertainty(args, name):
    f = _as_floats(args.vector.split(","), BadArgument)
    lhs, rhs = uncertainty_product(_coupling(name), f)
    return {"lhs": lhs, "rhs": rhs, "satisfied": bool(lhs >= rhs - 1e-9)}, True


def _cmd_bounds_ineq(args, name):
    return asdict(bound_inequalities(_coupling(name))), True


def _cmd_perturb(args, base_name, eta_name):
    mu, eta = _measure(base_name), _measure(eta_name)
    c = _coupling(args.coupling) if args.coupling else None
    if args.mode == "bound":
        if args.tol is not None:
            raise BadArgument(
                "--tol is not read in --mode bound, which prints no certificate"
            )
        report = perturbed_frame_bound(mu, eta, c)
    else:
        if not args.dual:
            raise ProbFramesError(f"mode '{args.mode}' needs --dual COUPLING")
        dual = _coupling(args.dual)
        if c is None:
            c = solve_w2(eta, mu).plan
        tol = EXACT_TOL if args.tol is None else args.tol
        if args.mode == "matched":
            matched = matched_mixed_dual(mu, dual, eta, c)
            return {"mode": "matched", **_dual_doc(*matched, tol)}, True
        build = perturbed_approx_dual if args.mode == "glue" else variant_certificates
        report = build(mu, dual, eta, c, tol=tol)
    return {"mode": args.mode, **report_to_dict(report)}, report.all_checked_hold


def _cmd_sample_dual(args, name):
    mu_hat, nu_hat, report = discrete_dual_pipeline(
        _measure(name), args.samples, a_n=args.a_n
    )
    return {
        "subsample": measure_to_dict(mu_hat),
        "dual": measure_to_dict(nu_hat),
        **report_to_dict(report),
    }, report.all_checked_hold


# the exactness tolerance of a command's certificates
TOL = ("--tol", dict(type=float, default=EXACT_TOL))

# name: (handler, the input counts it takes, help, the flags it reads besides --output)
COMMANDS = {
    "analyze": (
        _cmd_analyze, (1,), "frame bounds, flags, and redundancy of a measure", ()
    ),
    "w2": (_cmd_w2, (2,), "exact Wasserstein-2 distance and optimal plan", ()),
    "coupling-check": (_cmd_coupling_check, (1,), "validate a coupling document", ()),
    "certify": (
        _cmd_certify, (1, 2), "dual certificate of a coupling (or search one)",
        (TOL, ("--iters", dict(type=int, default=SEARCH_ITERS))),
    ),
    "canonical-dual": (
        _cmd_canonical_dual, (1,), "canonical dual with coupling", (TOL,)
    ),
    "approx-dual": (
        _cmd_approx_dual, (1,), "approximate dual for a mixed operator",
        (TOL, ("--operator", dict(required=True, metavar="MATRIX"))),
    ),
    "neumann": (
        _cmd_neumann, (1,), "Neumann partial-sum corrections of a coupling",
        (TOL, ("--terms", dict(type=int, default=0))),
    ),
    "rescue": (
        _cmd_rescue, (1,), "exact dual from an invertible mixed operator", (TOL,)
    ),
    "pushforward": (
        _cmd_pushforward, (1,), "exact dual from a perturbed dual map",
        (TOL, ("--offsets", dict(metavar="VECTORS"))),
    ),
    "uncertainty": (
        _cmd_uncertainty, (1,), "uncertainty product for a vector",
        (("--vector", dict(required=True, metavar="F")),),
    ),
    "bounds-ineq": (
        _cmd_bounds_ineq, (1,), "guaranteed-bound slacks of a coupling", ()
    ),
    "perturb": (
        _cmd_perturb, (2,), "perturbation reports (bound/glue/variants/matched)",
        (
            # perturb tells a --tol given from none: its bound mode reads none
            ("--tol", dict(type=float, default=None)),
            ("--mode", dict(
                choices=("bound", "glue", "variants", "matched"), default="bound"
            )),
            ("--coupling", dict(metavar="FILE")),
            ("--dual", dict(metavar="FILE")),
        ),
    ),
    "sample-dual": (
        _cmd_sample_dual, (1,), "approximate dual from a subsample",
        (
            ("--samples", dict(type=int, required=True)),
            ("--a-n", dict(type=float, default=None)),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probframes",
        description="Frame analysis of finitely supported probability measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "inputs",
            nargs="*",
            help="measure/coupling JSON files or bundled fixture names",
        )
        p.add_argument("--output", choices=("json", "text"), default="json")
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, counts, _, _ = COMMANDS[args.command]
    try:
        # checked here, not by argparse, so that it is reported as bad input
        tol = getattr(args, "tol", None)
        if tol is not None and not math.isfinite(tol):
            raise BadArgument(f"--tol must be a finite number, got {tol}")
        names = _inputs(args, counts)
        # a value that overflows is refused by a later finiteness check;
        # numpy's warning about it would only add source lines to stderr
        with np.errstate(over="ignore", invalid="ignore"):
            doc, hypotheses_ok = handler(args, *names)
        text = dumps(doc) if args.output == "json" else render_text(doc)
    except (ProbFramesError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # anything else is a bug, not bad input
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    print(text)
    return 0 if hypotheses_ok else 3


if __name__ == "__main__":
    sys.exit(main())
