"""The closed-form twin solve of nondegenerate reductions.

When every eigenspace of rho_plus and rho_minus is one-dimensional, the
twin system is the weighted incidence matrix of a bipartite graph on
their eigenvectors, and solve_twin_space returns one twin per connected
component of its strong edges (twins._component_kernel), under a
certificate that the SVD path would give the same dimensions.  Held
here to:
- the dense system over all of hermitian_basis for dim_total and the
  twin subspace (within 1e-9), and the SVD path on the solve's own
  system (_block_constraints, kernel_basis, _detectable_rank) for
  dim_detectable, with no kernel_basis call;
- the SVD path, one kernel_basis call, and the dimensions the solver
  gave before the closed form, on states inside the certificate's gray
  band;
- the closed form on every benchmark input of seeds 1-3 whose
  reductions have simple spectra.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from twinobs import BipartiteState, linops, solve_twin_space, twins
from twinobs.linops import DEFAULT_TOL, kernel_basis
from twinobs.twins import subspace_distance

from conftest import random_state
from test_commutant_reduction import dense_constraint_matrix, isometry, noisy_state, schmidt_state
from test_compressed_constraint import product_mixture

SUBSPACE_TOL = 1e-9


def solve_counted(state, monkeypatch):
    """(solve_twin_space(state), its number of kernel_basis calls)."""
    calls = []
    kb = linops.kernel_basis
    monkeypatch.setattr(linops, "kernel_basis", lambda M, tol: calls.append(1) or kb(M, tol))
    space = solve_twin_space(state)
    monkeypatch.undo()
    return space, len(calls)


def layout_of(state):
    sub = state.subsystems
    return twins._layout(tuple(sub.labels_plus.tolist()), tuple(sub.labels_minus.tolist()))


def svd_path_dims(state):
    """(dim_total, dim_detectable) of the SVD path on the system the solve
    builds: _block_constraints, kernel_basis and _detectable_rank."""
    sub = state.subsystems
    Wp = np.hstack([sub.null_plus, sub.range_plus])
    Wm = np.hstack([sub.null_minus, sub.range_minus])
    layout = layout_of(state)
    P = linops.local_compress(state.range_basis(), Wp, Wm)
    K = kernel_basis(twins._block_constraints(state, P, layout), state.tol.rank_tol)
    return K.shape[1], twins._detectable_rank(K, *layout[:2], sub.null_plus.shape[1],
                                              sub.null_minus.shape[1])


def block_plus_product(rng, p):
    """p times a generic state on span{u_0, u_1} ⊗ span{v_0, v_1} plus
    1 - p times |u_2, v_2><u_2, v_2| on C^3 ⊗ C^3: two components, of
    four vertices and of two."""
    U, V = isometry(rng, 3, 3), isometry(rng, 3, 3)
    E = np.kron(U[:, :2], V[:, :2])
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    block = E @ X @ X.conj().T @ E.conj().T
    uv = np.kron(U[:, 2], V[:, 2])
    rho = p * block / np.trace(block).real + (1 - p) * np.outer(uv, uv.conj())
    return BipartiteState(3, 3, rho)


# name -> (builder, dims or None): dims (total, detectable, n_plus^2,
# n_minus^2) where the graph fixes them; a product mixture of distinct
# weights has one component per product state, the rest of each side
# isolated and null
CLOSED = {
    **{f"generic 2x3 rank {r}": (lambda rng, r=r: random_state(rng, 2, 3, rank=r), None)
       for r in range(1, 7)},
    **{f"generic 3x3 rank {r}": (lambda rng, r=r: random_state(rng, 3, 3, rank=r), None)
       for r in (1, 2, 5, 9)},
    "generic 3x2 rank 3": (lambda rng: random_state(rng, 3, 2, rank=3), None),
    "generic full rank 2x3": (lambda rng: random_state(rng, 2, 3), (1, 1, 0, 0)),
    "pure 3x3": (lambda rng: schmidt_state(rng, 3, 3, [0.5, 0.3, 0.2]), (3, 3, 0, 0)),
    "pure 4x4": (lambda rng: schmidt_state(rng, 4, 4, [0.4, 0.3, 0.2, 0.1]), (4, 4, 0, 0)),
    "pure 2x3, one-dimensional null side":
        (lambda rng: schmidt_state(rng, 2, 3, [0.7, 0.3]), (3, 2, 0, 1)),
    "product mixture 3x4": (lambda rng: product_mixture(rng, 3, 4, [1, 2, 3]), (4, 3, 0, 1)),
    "product mixture 4x4 of rank 3":
        (lambda rng: product_mixture(rng, 4, 4, [1, 2, 4]), (5, 3, 1, 1)),
    "block plus product 3x3": (lambda rng: block_plus_product(rng, 0.7), (2, 2, 0, 0)),
    "d_plus = 1 (1x3 rank 2)": (lambda rng: random_state(rng, 1, 3, rank=2), (2, 1, 0, 1)),
    "d_plus = 1 (1x2 rank 2)": (lambda rng: random_state(rng, 1, 2, rank=2), (1, 1, 0, 0)),
    "unequal 2x5 rank 3": (lambda rng: random_state(rng, 2, 5, rank=3), None),
    "unequal 4x2 rank 8": (lambda rng: random_state(rng, 4, 2), (1, 1, 0, 0)),
}


@pytest.mark.parametrize("name", CLOSED)
def test_closed_form_equals_the_dense_kernel(name, monkeypatch):
    build, dims = CLOSED[name]
    state = build(np.random.default_rng(sum(map(ord, name))))
    assert layout_of(state)[3] is None  # every eigenspace one-dimensional
    space, calls = solve_counted(state, monkeypatch)
    assert calls == 0
    got = (space.dim_total, space.dim_detectable, space.dim_undetectable_plus,
           space.dim_undetectable_minus)
    assert all(type(n) is int for n in got)
    if dims is not None:
        assert got == dims
    ref = kernel_basis(dense_constraint_matrix(state), state.tol.rank_tol)
    assert space.dim_total == ref.shape[1]
    assert (space.dim_total, space.dim_detectable) == svd_path_dims(state)
    assert subspace_distance(ref, space.coordinate_matrix()) <= SUBSPACE_TOL


@pytest.mark.parametrize("name", ["pure 4x4", "product mixture 4x4 of rank 3",
                                  "block plus product 3x3", "generic 3x3 rank 2"])
def test_closed_form_basis_is_orthonormal_positive_and_ordered(name, monkeypatch):
    """Each pair is a positive combination of the projectors onto one
    component's eigenvectors, the pairs are orthonormal, and they come in
    the order of their components' first vertices, plus side first."""
    build, _ = CLOSED[name]
    state = build(np.random.default_rng(sum(map(ord, name))))
    space, _ = solve_counted(state, monkeypatch)
    X = space.coordinate_matrix()
    np.testing.assert_allclose(X.T @ X, np.eye(space.dim_total), atol=1e-12)
    sub = state.subsystems
    first = []
    for pair in space.basis:
        weights = []
        for A, W in ((pair.a_plus, np.hstack([sub.null_plus, sub.range_plus])),
                     (pair.a_minus, np.hstack([sub.null_minus, sub.range_minus]))):
            D = W.conj().T @ A @ W
            np.testing.assert_allclose(D, np.diag(np.diag(D).real), atol=1e-12)
            weights.append(np.diag(D).real)
        w = np.concatenate(weights)
        support = w > 1e-12
        assert np.all(w[~support] > -1e-12)
        np.testing.assert_allclose(w[support], 1 / np.sqrt(support.sum()), rtol=1e-12)
        first.append(np.flatnonzero(support)[0])
    assert first == sorted(first)


# States the certificate does not cover, with the dimensions the SVD path
# gives them: a Schmidt amplitude sqrt(mu) at the kernel cut (1e-20) or
# within the angle that the detectable count tolerates (1e-16, 1e-18),
# and noise near the cut of rho, whose coarse grouping takes the SVD path
# by its layout.
GRAY_BAND = {
    "schmidt amplitude at the kernel cut":
        (lambda: schmidt_state(np.random.default_rng(67), 4, 4, [0.5, 0.35, 0.2, 1e-20]),
         (4, 3, 1, 1), True),
    "schmidt amplitude 1e-9": (
        lambda: schmidt_state(np.random.default_rng(67), 4, 4, [0.5, 0.35, 0.2, 1e-18]),
        (4, 3, 1, 1), True),
    "schmidt amplitude 1e-8": (
        lambda: schmidt_state(np.random.default_rng(67), 4, 4, [0.5, 0.35, 0.2, 1e-16]),
        (4, 3, 1, 1), True),
    **{f"noisy schmidt eta={eta}": (
        lambda eta=eta: noisy_state(np.random.default_rng(47), schmidt_state(
            np.random.default_rng(48), 3, 3, [0.5, 0.3, 0.2]), eta), dims, False)
       for eta, dims in [(1e-12, (3, 3, 0, 0)), (1e-11, (3, 3, 0, 0)), (3e-10, (1, 1, 0, 0))]},
}


@pytest.mark.parametrize("name", GRAY_BAND)
def test_gray_band_takes_the_svd_path(name, monkeypatch):
    build, dims, one_dimensional = GRAY_BAND[name]
    state = build()
    assert (layout_of(state)[3] is None) == one_dimensional
    space, calls = solve_counted(state, monkeypatch)
    assert calls == 1
    assert (space.dim_total, space.dim_detectable, space.dim_undetectable_plus,
            space.dim_undetectable_minus) == dims


def test_each_condition_of_the_certificate_can_fail_alone():
    """Synthetic weights of a 12 x 12 system with a unit diagonal, which
    alone is certified:
    - weak edges each half the cut, whose l2 norm puts the component
      directions' bound over it, while their angle stays within a tenth
      of _DETECTABLE_CUT;
    - at rank_tol 1e-3, one strong edge of twice the cut, whose
      component's nonzero singular value may fall under the cut, while
      the weak rows are empty and the angle stays tiny;
    - one strong edge of 1e-3, joining a component of 4 (Mohar bound
      5e-4, far above the cut), and one weak edge of 4e-11 (Weyl bound
      5.7e-11, under half the cut): each alone is certified, but together
      the Wedin angle 5.7e-11 / 5e-4 = 1.1e-7 exceeds _DETECTABLE_CUT / 10."""
    rt = DEFAULT_TOL.rank_tol
    diagonal = np.eye(12)
    K, detectable = twins._component_kernel(diagonal[:, :, None], rt, 0, 0)
    assert K.shape == (24, 12) and detectable == 12
    weak = diagonal + 0.5 * rt * (1 - diagonal)
    assert twins._component_kernel(weak[:, :, None], rt, 0, 0) is None
    near = diagonal.copy()
    near[0, 1] = 2e-3
    assert twins._component_kernel(near[:, :, None], 1e-3, 0, 0) is None
    joined, loose = diagonal.copy(), diagonal.copy()
    joined[0, 1] = 1e-3
    loose[2, 3] = 4e-11
    assert twins._component_kernel(joined[:, :, None], rt, 0, 0)[0].shape == (24, 11)
    assert twins._component_kernel(loose[:, :, None], rt, 0, 0)[0].shape == (24, 12)
    weyl, mohar = np.sqrt(2) * 4e-11, 2 * 1e-3 / 4
    assert weyl < rt * np.sqrt(2) / 2 and mohar > 1e5 * rt * np.sqrt(2 * 12)
    assert weyl / (mohar - weyl) > 100 * twins._DETECTABLE_CUT / 10
    both = joined.copy()
    both[2, 3] = 4e-11
    assert twins._component_kernel(both[:, :, None], rt, 0, 0) is None


def test_component_labels_follow_a_path():
    """A path a0 - c0 - a1 - c1 - a2 that takes several rounds to label,
    and an isolated vertex on each side."""
    adjacent = np.zeros((4, 3), dtype=bool)
    adjacent[[0, 1, 1, 2], [0, 0, 1, 1]] = True
    labels = twins._component_labels(adjacent)
    assert labels.tolist() == [0, 0, 0, 3, 0, 0, 6]


def benchmark_states():
    """(label, state) of the pipeline-lowrank inputs and the generic and
    block solve-highrank inputs of perfbench/workloads.py, seeds 1-3."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    states = []
    for seed in (1, 2, 3):
        states += [(f"seed {seed} {kind} d={d}", BipartiteState(d, d, rho))
                   for (kind, d), rho, *_ in workloads.pipeline_inputs(seed)]
        states += [(f"seed {seed} {kind} d={d} r={r}", BipartiteState(d, d, rho))
                   for (kind, d, r, _), rho, *_ in workloads.solve_inputs(seed)
                   if kind in ("generic", "block")]
    return states


def test_benchmark_inputs_take_the_closed_form(monkeypatch):
    """Every benchmark input of seeds 1-3 whose reductions have simple
    spectra is solved in closed form.  One is not: the block2 d=10
    input of seed 2, whose populations 1.9e-4 apart the grouping gap
    joins."""
    grouped = []
    for label, state in benchmark_states():
        space, calls = solve_counted(state, monkeypatch)
        if layout_of(state)[3] is None:
            assert calls == 0, label
        else:
            grouped.append(label)
    assert grouped == ["seed 2 block2 d=10"]
