"""Command-line interface.

Subcommands: solve, verify, analyze, measure, schmidt, example.
Exit codes: 0 success, 1 verification failure, 2 input error.  ``main``
loads the state, calls the command's ``cmd_*(state, args)``, which
returns (report, exit code) and prints nothing, and renders the report.

A call loads only the modules its command runs: ``spectral``,
``measurement`` and ``schmidt`` are imported inside the handlers that
use them, so ``solve`` and ``example`` never load them, and ``spin``
only by ``example``, whose scenario argument is added to its parser when
that parser first parses.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .errors import InputError, NotTwinPairError, TwinObsError
from .linops import Tolerances
from .states import verify_subspace_geometry
from .twins import is_twin_pair, solve_twin_space

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _tolerances(args) -> Tolerances | None:
    given = {name: getattr(args, name) for name in Tolerances.FIELDS
             if getattr(args, name, None) is not None}
    return serialize.tolerances_from_json(given) if given else None


def _load_state(path, tol: Tolerances | None):
    doc = serialize.load_json(sys.stdin if path == "-" else path, f"state file {path}")
    return serialize.state_from_document(doc, tol_override=tol)


def _load_pair(path, state):
    pair = serialize.pair_from_document(serialize.load_json(path, f"pair file {path}"), state.tol)
    if (pair.d_plus, pair.d_minus) != (state.d_plus, state.d_minus):
        raise InputError(f"pair file {path}: dims ({pair.d_plus},{pair.d_minus}) do not "
                         f"match state ({state.d_plus},{state.d_minus})")
    return pair


def _load_decomposition(path, state):
    locus = f"decomposition file {path}"
    dec = serialize.decomposition_from_document(serialize.load_json(path, locus))
    for i, v in enumerate(dec.vectors):
        if v.size != state.dim:
            raise InputError(f"{locus}: vectors[{i}] has length {v.size}, "
                             f"not the state dimension {state.dim}")
    return dec


def _render(report, fmt: str) -> str:
    """The report as JSON or as indented text; a str is already rendered."""
    if isinstance(report, str):
        return report
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
    if state.range_basis().shape[1] == state.dim:
        report["warning"] = "nonsingular state: trivial twins only"
    return report


def _detectable_spectrum_report(state, pair) -> dict:
    from .spectral import _pair_spectra

    sp, sm = _pair_spectra(pair, state)
    return {
        "detectable_spectrum": list((sp.values + sm.values) / 2),
        "multiplicities_plus": [int(x) for x in sp.multiplicities],
        "multiplicities_minus": [int(x) for x in sm.multiplicities],
    }


def _complete_twins(state, seed: int):
    """(twin space, find_complete_twins result) of the state."""
    from .spectral import find_complete_twins

    space = solve_twin_space(state)
    return space, find_complete_twins(space, state, seed=seed)


def _simplified_matrix_report(state, mb) -> dict:
    from .schmidt import simplified_matrix

    M, sparsity = simplified_matrix(state, mb)
    return {
        "simplified_matrix": serialize.matrix_to_json(M),
        "max_forbidden_element": sparsity.max_forbidden,
    }


def cmd_solve(state, args):
    return _twin_space_report(state, solve_twin_space(state)), EXIT_OK


def cmd_verify(state, args):
    from .spectral import commutation_check

    pair = _load_pair(args.pair, state)
    verdict, residual = is_twin_pair(state, pair)
    report = {
        "twin": bool(verdict),
        "residual": residual,
        "tolerance": state.tol.residual_tol,
        "commutation_residuals": commutation_check(pair, state),
    }
    if verdict:
        report.update(_detectable_spectrum_report(state, pair))
    return report, EXIT_OK if verdict else EXIT_VERIFICATION


def cmd_analyze(state, args):
    geometry = verify_subspace_geometry(state)
    space, found = _complete_twins(state, args.seed)
    report = {
        "geometry": {
            "residuals": geometry.residuals,
            "tolerance": geometry.tolerance,
            "passed": geometry.passed,
        },
        "twin_space": _twin_space_report(state, space),
        "basis_spectra": [
            {"basis_index": i, **_detectable_spectrum_report(state, pair)}
            for i, pair in enumerate(space.basis)
        ],
    }
    if found is None:
        report["complete_twins"] = "not found"
    else:
        pair, mb = found
        report["complete_twins"] = {
            "pair": serialize.pair_to_document(pair),
            "sigma_prime": list(mb.sigma_prime),
            **_simplified_matrix_report(state, mb),
        }
    return report, EXIT_OK if geometry.passed else EXIT_VERIFICATION


def cmd_measure(state, args):
    from .measurement import distant_measurement_report

    pair = _load_pair(args.pair, state)
    try:
        rep = distant_measurement_report(state, pair)
    except NotTwinPairError as exc:  # print the report's witness, as `verify` does
        return {"twin": False, "residual": exc.residual}, EXIT_VERIFICATION
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
    return report, EXIT_OK if rep.passed else EXIT_VERIFICATION


def cmd_schmidt(state, args):
    from .schmidt import compatibility_report, pure_schmidt, simultaneous_expansion

    dec = _load_decomposition(args.decomposition, state) if args.decomposition else None
    _, found = _complete_twins(state, args.seed)
    if found is None:
        return {"complete_twins": "not found"}, EXIT_VERIFICATION
    pair, mb = found
    report = {"sigma_prime": list(mb.sigma_prime)}
    if state.range_basis().shape[1] == 1:
        report["schmidt_coefficients"] = list(pure_schmidt(state, pair)[0])
    else:
        report.update(_simplified_matrix_report(state, mb))
    if dec is not None:
        expansion = simultaneous_expansion(dec, mb, state)
        report["expansion"] = {
            "alphas": [serialize.vector_to_json(a) for a in expansion.alphas],
            "subsystem_eigenvalues": expansion.subsystem_eigenvalues.tolist(),
        }
        report["compatibility_residuals"] = compatibility_report(dec, mb, state)
    return report, EXIT_OK


def cmd_example(_, args):
    """The scenario state as JSON text, under --format text too, so that it pipes."""
    from .spin import SpinScenario, build_scenario

    try:
        scenario = SpinScenario(name=args.scenario, weights=args.weights)
    except TwinObsError as exc:
        raise InputError(f"--weights: {exc}") from exc
    state = build_scenario(scenario, tol=_tolerances(args) or Tolerances())
    return serialize.dump_json(serialize.state_to_document(state)), EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that runs its ``late`` callback, which adds
    arguments, when it first parses: a subcommand whose arguments need a
    module then loads it only when that subcommand is called."""

    def __init__(self, *args, late=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._late = late

    def parse_known_args(self, args=None, namespace=None):
        late, self._late = self._late, None
        if late is not None:
            late(self)
        return super().parse_known_args(args, namespace)


def _scenario_argument(parser) -> None:
    from .spin import SCENARIO_NAMES

    parser.add_argument("scenario", choices=SCENARIO_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twinobs",
        description="Twin observables of bipartite mixed quantum states.",
    )
    for name in Tolerances.FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), type=float, dest=name)
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

    p = sub.add_parser("example", help="emit a named two-spin scenario state",
                       late=_scenario_argument)
    p.add_argument("--weights", type=float, nargs="+")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _tolerances(args)
        if args.seed < 0:
            raise InputError(f"--seed must be nonnegative, got {args.seed}")
        state = _load_state(args.state, tol) if "state" in args else None
        report, code = args.func(state, args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TwinObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    print(_render(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
