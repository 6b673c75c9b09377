"""The two linops rules that every rank cut and spectrum grouping of the
package goes through, held to the comparisons they replaced.

``linops.rank_cut`` counts the values above tol * max(largest, floor)
for kernel_basis, range_null_bases, low_rank_cut,
twins._detectable_rank and the edge split of twins._component_kernel;
``linops.group_starts`` marks the first value of
each group for the eigenspace labels of ``state.subsystems`` (its inner
function ``labels``) and spectral._clustered.  Every call the package
makes on the spin scenarios and on random, Schmidt, block, embedded and
noisy near-cut states is recorded with its caller and checked against
that caller's old comparison, a verbatim copy of which is in
reference.py (for the edge split, which came after the rule, the plain
comparison it stands for).  Hostile arrays are checked against the rules
as stated and against the old comparisons where those are defined.
"""

import sys

import numpy as np
import pytest

from twinobs import SpinScenario, build_scenario, find_complete_twins, linops, solve_twin_space
from twinobs.errors import TwinObsError
from twinobs.linops import DEFAULT_TOL, group_starts, rank_cut
from twinobs.spectral import spectral_data
from twinobs.spin import SCENARIO_NAMES

import reference
from conftest import random_state
from test_commutant_reduction import (
    block_state,
    embedded_state,
    noisy_state,
    schmidt_state,
    weights_with_gap,
)


def _states(rng):
    """Builders of the states the package's calls are recorded on, each
    called once the rules are wrapped so that ingestion is recorded too."""
    rt = DEFAULT_TOL.rank_tol
    builders = [lambda name=name: build_scenario(SpinScenario(name)) for name in SCENARIO_NAMES]
    builders += [lambda d=d, r=r: random_state(rng, *d, rank=r)
                 for d, r in [((2, 2), None), ((2, 3), 2), ((3, 3), 1), ((3, 4), 3), ((4, 4), 2)]]
    builders += [lambda dims=dims, gap=gap: schmidt_state(rng, *dims, weights_with_gap(min(dims), 2, gap))
                 for dims in [(3, 3), (4, 4), (2, 3)] for gap in [0.0, 1e-9, 1e-8, 1e-7, 1e-3]]
    # one Schmidt weight a few times the reduced cut, on either side of it
    builders += [lambda f=f: schmidt_state(rng, 3, 4, [0.5, 0.35, f * rt * 0.5])
                 for f in [0.5, 2.0]]
    builders += [lambda gap=gap: block_state(rng, 3, 4, 3, 2, gap) for gap in [0.0, 1e-8, 1e-5]]
    builders += [lambda: embedded_state(rng, 4, 2, 2), lambda: embedded_state(rng, 5, 3, 4)]
    # noise at and around rank_tol puts eigenvalues of rho near its own cut
    builders += [lambda eta=eta: noisy_state(rng, schmidt_state(rng, 3, 3, [0.5, 0.3, 0.2]), eta)
                 for eta in [1e-13, 1e-11, 1e-10, 1e-9]]
    return builders


@pytest.fixture(scope="module")
def calls():
    """[(rule, caller, args, result)] of every rank_cut and group_starts
    call made while the states are built, solved and searched."""
    recorded = []

    def recording(rule):
        def wrapper(*args, **kwargs):
            result = rule(*args, **kwargs)
            caller = sys._getframe(1).f_code.co_name
            recorded.append((rule.__name__, caller, (args, kwargs), result))
            return result
        return wrapper

    mp = pytest.MonkeyPatch()
    mp.setattr(linops, "rank_cut", recording(rank_cut))
    mp.setattr(linops, "group_starts", recording(group_starts))
    try:
        for build in _states(np.random.default_rng(26)):
            state = build()
            space = solve_twin_space(state)
            spectral_data(state.subsystems.rho_plus, state.tol.cluster_tol)
            try:
                find_complete_twins(space, state)
            except TwinObsError:
                pass
    finally:
        mp.undo()
    return recorded


def _old_rule(caller, args, kwargs, result):
    """(new answer, old answer) of one recorded call, both as arrays."""
    values, second = args
    if caller == "kernel_basis":
        return np.array(result), np.array(reference.kernel_basis_rank(values, second))
    if caller in ("range_null_bases", "low_rank_cut"):
        old = (reference.range_null_keep if caller == "range_null_bases"
               else reference.low_rank_keep)(values, second)
        return np.arange(values.size) >= values.size - result, old
    if caller == "_component_kernel":
        return (np.arange(values.size) >= values.size - result,
                reference.strong_edge_keep(values, second))
    if caller == "_detectable_rank":
        assert (second, kwargs) == (1e-8, {"floor": 1.0})
        return np.array(result), np.array(reference.detectable_rank(values))
    if caller == "labels":
        return np.cumsum(result) - 1, reference.eigenspace_labels(values, second)
    if caller == "_clustered":
        return np.flatnonzero(result), reference.cluster_starts(values, second)
    raise AssertionError(f"rule called from an unexpected site: {caller}")


def test_every_site_calls_its_rule(calls):
    sites = {(rule, caller) for rule, caller, _, _ in calls}
    assert sites == {("rank_cut", "kernel_basis"), ("rank_cut", "range_null_bases"),
                     ("rank_cut", "low_rank_cut"), ("rank_cut", "_detectable_rank"),
                     ("rank_cut", "_component_kernel"),
                     ("group_starts", "labels"), ("group_starts", "_clustered")}


def test_every_call_equals_the_old_comparison(calls):
    for _, caller, (args, kwargs), result in calls:
        new, old = _old_rule(caller, args, kwargs, result)
        assert new.dtype == old.dtype and np.array_equal(new, old), (caller, args, new, old)


def test_near_cut_values_reach_the_rules(calls):
    """Some recorded call has a value within 100x of its cut, so the
    comparison above is not decided by wide margins alone."""
    close = [caller for rule, caller, ((values, tol), kwargs), _ in calls
             if rule == "rank_cut" and len(values) and tol > 0
             for cut in [tol * max(values[0], values[-1], kwargs.get("floor", 0.0))]
             if np.any((values > cut / 100) & (values < cut * 100))]
    assert {"kernel_basis", "range_null_bases", "_detectable_rank"} <= set(close)


@pytest.mark.parametrize("tol", [1e-10, 1e-8, 0.3])
def test_range_null_bases_keeps_the_arrays_of_the_old_mask(tol):
    H = random_state(np.random.default_rng(7), 3, 3, rank=4).rho
    vals, V, N = linops.range_null_bases(H, tol)
    _, vecs = linops.eigh(H)
    keep = reference.range_null_keep(vals, tol)
    for new, old in ((V, vecs[:, keep]), (N, vecs[:, ~keep])):
        assert np.array_equal(new, old) and new.strides == old.strides


# (values, tol, floor, count): the values sorted as each caller has them
HOSTILE = [
    (np.array([]), 1e-10, 0.0, 0),
    (np.array([]), 1e-8, 1.0, 0),
    (np.array([3.0]), 1e-10, 0.0, 1),
    (np.array([0.0]), 1e-10, 0.0, 0),
    (np.array([-1.0]), 1e-10, 0.0, 0),
    (np.zeros(4), 1e-10, 0.0, 0),
    (np.array([-3.0, -2.0, -1.0]), 1e-10, 0.0, 0),  # lambda_max < 0: cut at 0
    (np.array([-1e-12, 0.25, 1.0]), 0.25, 0.0, 1),  # 0.25 is at the cut, dropped
    (np.array([1.0, 0.25, 0.0]), 0.25, 0.0, 1),
    (np.array([-1e-300, 0.0, 1e-300, 1.0]), 0.0, 0.0, 2),  # tol 0: every positive value
    (np.array([0.5, 2e-8, 1e-9]), 1e-8, 1.0, 2),  # floor above the largest
    (np.array([0.5, 1e-8, 1e-9]), 1e-8, 1.0, 1),
    (np.array([0.5, 0.1]), 1e-8, 1e9, 0),
]


@pytest.mark.parametrize("values,tol,floor,count", HOSTILE)
def test_rank_cut_of_hostile_arrays(values, tol, floor, count):
    assert rank_cut(values, tol, floor) == count
    assert rank_cut(values[::-1], tol, floor) == count
    assert type(rank_cut(values, tol, floor)) is int
    ascending = np.sort(values)
    if floor == 0.0:
        assert int(reference.range_null_keep(ascending, tol).sum()) == count
        if values.size and ascending[-1] > 0:
            assert int(reference.low_rank_keep(ascending, tol).sum()) == count
        if values.size and ascending[0] >= 0:  # singular values
            assert reference.kernel_basis_rank(ascending[::-1], tol) == count
    elif (tol, floor) == (1e-8, 1.0):
        assert reference.detectable_rank(ascending[::-1]) == count


@pytest.mark.parametrize("values,gap,starts", [
    (np.array([]), 1e-8, []),
    (np.array([2.0]), 1e-8, [True]),
    (np.zeros(3), 0.0, [True, False, False]),
    (np.array([-2.0, -1.5, -1.5, 1.0]), 0.0, [True, True, False, True]),
    (np.array([0.0, 0.5, 1.0, 3.0]), 0.5, [True, False, False, True]),  # gap 0.5 exactly: joined
    (np.array([0.0, 1e-9, 1.0]), 1e-8, [True, False, True]),
    (np.array([0.0, 1.0]), np.inf, [True, False]),
])
def test_group_starts_of_hostile_arrays(values, gap, starts):
    new = group_starts(values, gap)
    assert new.dtype == bool and new.tolist() == starts
    if values.size:
        assert np.array_equal(np.cumsum(new) - 1, reference.eigenspace_labels(values, gap))
        assert np.array_equal(np.flatnonzero(new), reference.cluster_starts(values, gap))


def _detectable_values(state, monkeypatch):
    """(space, the range-row singular values that _detectable_rank cut)
    of the twin solve of state."""
    seen = []

    def recording(values, tol, floor=0.0):
        if sys._getframe(1).f_code.co_name == "_detectable_rank":
            seen.append(np.array(values))
        return rank_cut(values, tol, floor)

    monkeypatch.setattr(linops, "rank_cut", recording)
    space = solve_twin_space(state)
    monkeypatch.undo()
    (values,) = seen
    return space, values


@pytest.mark.parametrize("dims, m, gap, detectable, kept, dropped", [
    # range rows 6.0e-8 and 1.05e-8: both kept, within 10x above the cut
    ((4, 2), 2, 1e-9, 4, 2, 0),
    # a range row 3.1e-9: dropped, within 10x below the cut
    ((3, 4), 3, 1e-8, 3, 0, 1),
])
def test_detectable_count_on_range_rows_near_its_cut(dims, m, gap, detectable, kept, dropped,
                                                     monkeypatch):
    """dim_detectable of Schmidt states whose near-degenerate weights
    leave near-twin noise in the range rows of the kernel, as
    test_schmidt_weight_gaps builds them: the count keeps the values above
    1e-8 and drops those below it.  Cut at 1e-7 the first state counts 2,
    cut at rank_tol the second counts 4.

    The kept values are not twins: on the first state dim_detectable
    + n_plus^2 + n_minus^2 = 8 exceeds dim_total = 6.  The test pins the
    position of the cut, not a correct count."""
    state = schmidt_state(np.random.default_rng(41), *dims, weights_with_gap(min(dims), m, gap))
    space, values = _detectable_values(state, monkeypatch)
    near = values[(values > 1e-9) & (values < 1e-7)]
    assert (np.sum(near > 1e-8), np.sum(near < 1e-8)) == (kept, dropped)
    assert space.dim_detectable == detectable
