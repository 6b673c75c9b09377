"""Command-line interface.

Subcommands: solve, verify, analyze, measure, schmidt, example.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import serialize, spectral
from .errors import InputError, TwinObsError
from .linops import Tolerances
from .measurement import distant_measurement_report
from .schmidt import pure_schmidt, simplified_matrix, simultaneous_expansion, compatibility_report
from .spin import SCENARIO_NAMES, SpinScenario, build_scenario
from .states import verify_subspace_geometry
from .twins import is_twin_pair, solve_twin_space

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _tolerances(args) -> Tolerances | None:
    given = {f.name: getattr(args, f.name) for f in fields(Tolerances)
             if getattr(args, f.name, None) is not None}
    if not given:
        return None
    try:
        return Tolerances(**given)
    except ValueError as exc:
        raise InputError(f"tolerance flags: {exc}") from exc


def _load_state(path, args):
    stream = sys.stdin if path == "-" else path
    doc = serialize.load_json(stream, f"state file {path}")
    return serialize.state_from_document(doc, tol_override=_tolerances(args))


def _load_pair(path):
    doc = serialize.load_json(path, f"pair file {path}")
    return serialize.pair_from_document(doc)


def _render(report, fmt: str) -> str:
    if fmt == "json":
        return serialize.dump_json(report)
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(report)
    return "\n".join(lines)


def _twin_space_report(state, space):
    report = {
        "dims": [state.d_plus, state.d_minus],
        "dim_total": space.dim_total,
        "dim_detectable": space.dim_detectable,
        "dim_undetectable_plus": space.dim_undetectable_plus,
        "dim_undetectable_minus": space.dim_undetectable_minus,
        "basis": [serialize.pair_to_document(p) for p in space.basis],
    }
    rank = state.range_basis().shape[1]
    if rank == state.dim:
        report["warning"] = "nonsingular state: trivial twins only"
    return report


def _detectable_spectrum_report(state, pair) -> dict:
    split = spectral.split_detectable(pair, state)
    sigma, mp, mm = spectral.detectable_spectra(split, state.tol.cluster_tol)
    return {
        "detectable_spectrum": list(sigma),
        "multiplicities_plus": [int(x) for x in mp],
        "multiplicities_minus": [int(x) for x in mm],
    }


def cmd_solve(args) -> int:
    state = _load_state(args.state, args)
    space = solve_twin_space(state)
    print(_render(_twin_space_report(state, space), args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    state = _load_state(args.state, args)
    pair = _load_pair(args.pair)
    verdict, residual = is_twin_pair(state, pair)
    report = {
        "twin": bool(verdict),
        "residual": residual,
        "tolerance": state.tol.residual_tol,
        "commutation_residuals": spectral.commutation_check(pair, state),
    }
    if verdict:
        report.update(_detectable_spectrum_report(state, pair))
    print(_render(report, args.format))
    return EXIT_OK if verdict else EXIT_VERIFICATION


def cmd_analyze(args) -> int:
    state = _load_state(args.state, args)
    geometry = verify_subspace_geometry(state)
    space = solve_twin_space(state)
    report = {
        "geometry": {
            "residuals": geometry.residuals,
            "tolerance": geometry.tolerance,
            "passed": geometry.passed,
        },
        "twin_space": _twin_space_report(state, space),
    }
    report["basis_spectra"] = [
        {"basis_index": i, **_detectable_spectrum_report(state, pair)}
        for i, pair in enumerate(space.basis)
    ]
    found = spectral.find_complete_twins(space, state, seed=args.seed)
    if found is None:
        report["complete_twins"] = "not found"
    else:
        pair, mb = found
        M, sparsity = simplified_matrix(state, mb)
        report["complete_twins"] = {
            "pair": serialize.pair_to_document(pair),
            "sigma_prime": list(mb.sigma_prime),
            "simplified_matrix": serialize.matrix_to_json(M),
            "max_forbidden_element": sparsity.max_forbidden,
        }
    print(_render(report, args.format))
    return EXIT_OK if geometry.passed else EXIT_VERIFICATION


def cmd_measure(args) -> int:
    state = _load_state(args.state, args)
    pair = _load_pair(args.pair)
    verdict, residual = is_twin_pair(state, pair)
    if not verdict:
        print(_render({"twin": False, "residual": residual}, args.format))
        return EXIT_VERIFICATION
    rep = distant_measurement_report(state, pair)
    report = {
        "expectation_plus": rep.expectation_plus,
        "expectation_minus": rep.expectation_minus,
        "max_probability_gap": rep.max_probability_gap,
        "max_collapse_gap": rep.max_collapse_gap,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
        "outcomes": [
            {
                "value": o.value,
                "probability_plus": o.probability_plus,
                "probability_minus": o.probability_minus,
                "conditional_minus": serialize.matrix_to_json(o.conditional_minus),
                "conditional_plus": serialize.matrix_to_json(o.conditional_plus),
            }
            for o in rep.outcomes
        ],
    }
    print(_render(report, args.format))
    return EXIT_OK if rep.passed else EXIT_VERIFICATION


def cmd_schmidt(args) -> int:
    state = _load_state(args.state, args)
    space = solve_twin_space(state)
    found = spectral.find_complete_twins(space, state, seed=args.seed)
    if found is None:
        print(_render({"complete_twins": "not found"}, args.format))
        return EXIT_VERIFICATION
    pair, mb = found
    report = {"sigma_prime": list(mb.sigma_prime)}
    rank = state.range_basis().shape[1]
    if rank == 1:
        coeffs, bp, bm = pure_schmidt(state, pair)
        report["schmidt_coefficients"] = list(coeffs)
    else:
        M, sparsity = simplified_matrix(state, mb)
        report["simplified_matrix"] = serialize.matrix_to_json(M)
        report["max_forbidden_element"] = sparsity.max_forbidden
    if args.decomposition:
        doc = serialize.load_json(args.decomposition,
                                  f"decomposition file {args.decomposition}")
        dec = serialize.decomposition_from_document(doc)
        expansion = simultaneous_expansion(dec, mb, state)
        report["expansion"] = {
            "alphas": [serialize.vector_to_json(a) for a in expansion.alphas],
            "subsystem_eigenvalues": [
                [float(x) for x in row] for row in expansion.subsystem_eigenvalues
            ],
        }
        report["compatibility_residuals"] = compatibility_report(dec, mb, state)
    print(_render(report, args.format))
    return EXIT_OK


def cmd_example(args) -> int:
    weights = tuple(args.weights) if args.weights else None
    scenario = SpinScenario(name=args.scenario, weights=weights)
    state = build_scenario(scenario, tol=_tolerances(args) or Tolerances())
    print(serialize.dump_json(serialize.state_to_document(state)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinobs",
        description="Twin observables of bipartite mixed quantum states.",
    )
    for f in fields(Tolerances):
        parser.add_argument("--" + f.name.replace("_", "-"), type=float, dest=f.name)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the twin space of a state")
    p.add_argument("state", nargs="?", default="-")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a candidate twin pair")
    p.add_argument("state")
    p.add_argument("pair")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="geometry, spectra and complete-twin search")
    p.add_argument("state", nargs="?", default="-")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("measure", help="distant-measurement report for a twin pair")
    p.add_argument("state")
    p.add_argument("pair")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("schmidt", help="canonical forms from complete twins")
    p.add_argument("state", nargs="?", default="-")
    p.add_argument("--decomposition")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("example", help="emit a named two-spin scenario state")
    p.add_argument("scenario", choices=SCENARIO_NAMES)
    p.add_argument("--weights", type=float, nargs="+")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TwinObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
