#!/usr/bin/env python3
"""Walk the four bundled two-spin scenarios end to end.

For each scenario: solve the twin space, report its dimensions, search
for a complete twin pair, and when one exists print the simplified
matrix and the distant-measurement summary.
"""

import argparse

import numpy as np

from twinobs import (
    distant_measurement_report,
    find_complete_twins,
    simplified_matrix,
    solve_twin_space,
)
from twinobs.spin import SCENARIO_NAMES, SpinScenario, build_scenario


def run_scenario(name: str, seed: int) -> None:
    state = build_scenario(SpinScenario(name))
    space = solve_twin_space(state)
    print(f"== {name} (dims {state.d_plus}x{state.d_minus}) ==")
    print(f"  twin space: total {space.dim_total}, detectable {space.dim_detectable}, "
          f"undetectable ({space.dim_undetectable_plus}, {space.dim_undetectable_minus})")

    found = find_complete_twins(space, state, seed=seed)
    if found is None:
        print("  complete twins: none found (scalars only or mismatched ranks)")
        print()
        return

    pair, mb = found
    M, sparsity = simplified_matrix(state, mb)
    print(f"  complete twins: characteristic values {np.round(mb.sigma_prime, 6)}")
    print(f"  simplified matrix (max forbidden element {sparsity.max_forbidden:.2e}):")
    for row in M:
        print("   ", "  ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in row))

    rep = distant_measurement_report(state, pair)
    print(f"  distant measurement: expectation {rep.expectation_plus:+.6f} on both sides, "
          f"max probability gap {rep.max_probability_gap:.2e}, "
          f"collapse gap witness {rep.max_collapse_gap:.2e} (a bound when within tolerance)")
    for o in sorted(rep.outcomes, key=lambda o: o.value):
        print(f"    value {o.value:+.4f}: p+ = {o.probability_plus:.6f}, "
              f"p- = {o.probability_minus:.6f}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario", choices=SCENARIO_NAMES, action="append",
                        help="restrict to one or more scenarios (default: all)")
    args = parser.parse_args()
    for name in args.scenario or SCENARIO_NAMES:
        run_scenario(name, args.seed)


if __name__ == "__main__":
    main()
