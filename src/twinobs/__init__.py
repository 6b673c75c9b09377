"""Twin observables of bipartite mixed quantum states.

Given a density matrix rho on H_plus ⊗ H_minus, this package computes
the real vector space of Hermitian pairs (A_plus, A_minus) with
A_plus rho = A_minus rho, analyzes their spectral structure, and uses
complete twins to put rho into its simplest matrix form.

The package is lazy (PEP 562): ``import twinobs`` loads no submodule,
and each name below loads its submodule on first access.
"""

import importlib as _importlib

_SUBMODULES = ("errors", "linops", "measurement", "schmidt", "spectral", "spin", "states", "twins")

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("Tolerances", "DEFAULT_TOL"), "linops"),
    **dict.fromkeys(("BipartiteState", "PureDecomposition", "from_pure", "mix",
                     "restrict_to_relevant", "verify_subspace_geometry"), "states"),
    **dict.fromkeys(("ObservablePair", "TwinSpace", "additive_twins", "is_twin_pair",
                     "scalar_pair", "solve_twin_space", "states_admitting_twins",
                     "twins_restrict_to_range_vectors"), "twins"),
    **dict.fromkeys(("MatchedBases", "SpectralData", "apply_function",
                     "characteristic_projector_twins", "commutation_check",
                     "detectable_spectra", "find_complete_twins", "matched_bases_from_pair",
                     "spectral_data", "split_detectable", "symmetric_polynomial"), "spectral"),
    **dict.fromkeys(("pure_schmidt", "simplified_matrix", "simultaneous_expansion",
                     "compatibility_report"), "schmidt"),
    **dict.fromkeys(("EventPair", "certainty_test", "distant_measurement_report",
                     "event_equivalence", "luders_collapse"), "measurement"),
    **dict.fromkeys(("SCENARIO_NAMES", "SpinScenario", "build_scenario", "coupled_basis"), "spin"),
}

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
