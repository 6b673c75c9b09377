"""The complete-twin search reads the detectable spectra of its draw off
the eigenspace blocks of the reductions, and the solve reads
dim_detectable off the rows of its kernel.

Both are held to the full forms they replace: the spectra to
spectral_data of the whole detectable blocks of the same split (values,
multiplicities, projectors and, for a complete pair, the matched bases,
to 1e-12), and the dimension to the rank of the stacked detectable
blocks of the basis pairs (reference.stacked_detectable_rank).  The
states cover multi-dimensional eigenspaces (the spin scenarios), null
eigenspaces grouped with small range eigenvalues, the noisy and
near-cut states of test_commutant_reduction, a factor of dimension 1
and unequal dims.
"""

import numpy as np
import pytest

from twinobs import SpinScenario, build_scenario, find_complete_twins, is_twin_pair
from twinobs import linops, spectral, states
from twinobs.errors import NotReducibleError
from twinobs.linops import DEFAULT_TOL, max_norm
from twinobs.spectral import _matched_bases, spectral_data
from twinobs.spin import SCENARIO_NAMES
from twinobs.twins import solve_twin_space

import reference
from conftest import random_state
from test_commutant_reduction import (
    block_state,
    embedded_state,
    noisy_state,
    schmidt_state,
    weights_with_gap,
)

TOL = 1e-12


def _near_cut(dims, f):
    """One Schmidt weight f * rank_tol * w_max, at the reductions' cut."""
    def build(rng):
        weights = np.array([0.5, 0.35, 0.2][:min(dims) - 1])
        return schmidt_state(rng, *dims,
                             np.append(weights, f * DEFAULT_TOL.rank_tol * weights.max()))
    return build


def _noisy(kind, eta):
    """A singular state of test_commutant_reduction with full-rank noise eta."""
    bases = {"schmidt": lambda rng: schmidt_state(rng, 3, 3, weights_with_gap(3, 2, 0.0)),
             "block": lambda rng: block_state(rng, 3, 4, 3, 2, 0.0),
             "embedded": lambda rng: embedded_state(rng, 4, 2, 2)}
    return lambda rng: noisy_state(rng, bases[kind](rng), eta)


STATES = {
    **{name: (lambda rng, name=name: build_scenario(SpinScenario(name)))
       for name in SCENARIO_NAMES},
    "schmidt 4x4": lambda rng: schmidt_state(rng, 4, 4, [0.1, 0.2, 0.3, 0.4]),
    "schmidt 2x3": lambda rng: schmidt_state(rng, 2, 3, [0.3, 0.7]),
    "schmidt 4x2": lambda rng: schmidt_state(rng, 4, 2, [0.6, 0.4]),
    # rho_minus has a null eigenvalue grouped with the range eigenvalue 1e-7
    "schmidt 3x4, weight 1e-7": lambda rng: schmidt_state(rng, 3, 4, [0.5, 0.35, 1e-7]),
    # the null eigenvalue of each side grouped with two range eigenvalues
    "schmidt 4x4, weights 1e-7 and 1.5e-7": lambda rng: schmidt_state(
        rng, 4, 4, [0.5, 1e-7, 1.5e-7, 0.0]),
    "schmidt 4x4, three equal weights": lambda rng: schmidt_state(
        rng, 4, 4, weights_with_gap(4, 3, 0.0)),
    "block 3x4": lambda rng: block_state(rng, 3, 4, 3, 2, 1e-3),
    "block 3x3, equal weights": lambda rng: block_state(rng, 3, 3, 3, 3, 0.0),
    "embedded 4 in 2": lambda rng: embedded_state(rng, 4, 2, 3),
    "embedded 5 in 3": lambda rng: embedded_state(rng, 5, 3, 4),
    **{f"noisy {kind} {eta:g}": _noisy(kind, eta)
       for kind in ("schmidt", "block", "embedded") for eta in (1e-15, 1e-11, 1e-9, 1e-6)},
    **{f"near cut {dims} f={f}": _near_cut(dims, f)
       for dims in ((3, 4), (4, 4)) for f in (0.6, 4.0, 20.0, 1e3)},
    **{f"random {dims} rank {rank}": (lambda rng, dims=dims, rank=rank: random_state(
        rng, *dims, rank=rank)) for dims, rank in (((1, 3), 1), ((1, 3), 2), ((3, 1), 2),
                                                   ((1, 1), 1), ((2, 3), 6), ((3, 2), 2))},
}


def build(name):
    return STATES[name](np.random.default_rng(sum(map(ord, name))))


def search_recorded(space, state, monkeypatch):
    """(find_complete_twins result, the splits it made, the SpectralData
    that _block_data returned); a NotReducibleError is returned in place
    of the result."""
    splits, data = [], []
    split, block_data = spectral.split_detectable, spectral._block_data
    monkeypatch.setattr(spectral, "split_detectable",
                        lambda *a: splits.append(split(*a)) or splits[-1])
    monkeypatch.setattr(spectral, "_block_data",
                        lambda *a: data.append(block_data(*a)) or data[-1])
    try:
        found = find_complete_twins(space, state)
    except NotReducibleError as exc:
        found = exc
    finally:
        monkeypatch.undo()
    return found, splits, data


def assert_same_spectra(block, full):
    assert np.array_equal(block.multiplicities, full.multiplicities)
    assert max_norm(block.values - full.values) <= TOL
    assert max(max_norm(P - Q) for P, Q in zip(block.projectors, full.projectors)) <= TOL
    if np.all(full.multiplicities == 1):
        assert max_norm(block.vectors - full.vectors) <= TOL


@pytest.mark.parametrize("name", STATES)
def test_block_spectra_equal_the_full_spectra(name, monkeypatch):
    state = build(name)
    found, splits, data = search_recorded(solve_twin_space(state), state, monkeypatch)
    sub = state.subsystems
    if sub.range_plus.shape[1] != sub.range_minus.shape[1]:
        assert found is None and not splits
        return
    if isinstance(found, NotReducibleError):
        # only the range/null split may reject the state's own twins
        assert not splits and "range/null" in str(found)
        return
    assert len(splits) == 1 and len(data) == 2
    split = splits[0]
    full = spectral_data(split.a_prime_plus), spectral_data(split.a_prime_minus)
    for block, reference_data in zip(data, full):
        assert_same_spectra(block, reference_data)
    if found is not None:
        mb, ref = found[1], _matched_bases(state, *full)
        for field in ("sigma_prime", "basis_plus", "basis_minus"):
            assert max_norm(getattr(mb, field) - getattr(ref, field)) <= TOL


@pytest.mark.parametrize("name", STATES)
def test_dim_detectable_is_the_stacked_block_rank(name):
    state = build(name)
    space = solve_twin_space(state)
    assert space.dim_detectable == reference.stacked_detectable_rank(space, state)


def test_spin_scenarios_search_multi_dimensional_eigenspaces(monkeypatch):
    # every scenario but example1_range10_1m1 has complete twins, and each
    # of those has a range eigenspace of dimension 2 or 3 on both sides
    for name in SCENARIO_NAMES:
        state = build_scenario(SpinScenario(name))
        space = solve_twin_space(state)
        calls = []
        eigh = linops.eigh
        monkeypatch.setattr(linops, "eigh", lambda H: calls.append(len(H)) or eigh(H))
        found = find_complete_twins(space, state)
        monkeypatch.undo()
        assert (found is None) is (name == "example1_range10_1m1")
        if found is not None:
            assert len(calls) == 2 and min(calls) > 1
            assert len(found[1].sigma_prime) == state.subsystems.range_plus.shape[1]


@pytest.mark.parametrize("dims", [(4, 5), (6, 6), (3, 2)])
def test_one_split_and_no_eigh_for_one_dimensional_eigenspaces(dims, monkeypatch):
    rng = np.random.default_rng(sum(dims))
    r = min(dims)
    state = schmidt_state(rng, *dims, np.arange(1, r + 1))
    space = solve_twin_space(state)
    calls = []
    split = spectral.split_detectable
    monkeypatch.setattr(spectral, "split_detectable",
                        lambda *a: calls.append("split") or split(*a))
    monkeypatch.setattr(linops, "eigh", lambda *a: calls.append("eigh"))
    assert find_complete_twins(space, state) is not None
    assert calls == ["split"]


def test_labels_are_computed_once_for_the_solve_and_the_search(monkeypatch):
    # two states interleaved: each groups its eigenvalues once, a side
    rng = np.random.default_rng(3)
    a, b = (schmidt_state(rng, 3, 4, [0.2, 0.3, 0.5]) for _ in range(2))
    gaps = []
    grouping_gap = states._grouping_gap
    monkeypatch.setattr(states, "_grouping_gap", lambda *args: gaps.append(args) or grouping_gap(*args))
    space_a, space_b = solve_twin_space(a), solve_twin_space(b)
    find_complete_twins(space_a, a)
    find_complete_twins(space_b, b)
    solve_twin_space(a)
    assert len(gaps) == 4


def test_search_on_another_states_twin_space_is_not_reducible():
    # a draw from the twin space of a is full rank on b's ranges but not
    # block diagonal over b's eigenspaces; read block by block it would
    # pass as a complete pair that is not a twin pair of b
    rng = np.random.default_rng(29)
    a, b = (schmidt_state(rng, 4, 4, [0.1, 0.2, 0.3, 0.4]) for _ in range(2))
    with pytest.raises(NotReducibleError, match="eigenspaces"):
        find_complete_twins(solve_twin_space(a), b)
    # the same draw is no twin pair of b
    pair = find_complete_twins(solve_twin_space(a), a)[0]
    assert not is_twin_pair(b, pair)[0]
