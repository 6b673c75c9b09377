"""The block-compressed twin constraint system against the dense system
imposed on every range vector over the same commutant.

solve_twin_space rotates the range basis V of rho to the product
eigenbasis of rho_plus ⊗ rho_minus and replaces each block pair's slice
of it by a factor with the same Gram matrix.  The compressed matrix,
_block_constraints on the P and eigenspace layout that the solve built
(the input of kernel_basis wherever the solve is not in closed form),
is held here to _constraint_matrix(state, V, B_plus, B_minus), B_s the
commutant basis W_s units_s W_s† in the same coordinates:
- equal singular values within 100 eps sigma_max;
- the kernel of the dense system, cut at rank_tol, spans the solved
  twin space within 1e-8 (the dense system is the one the solver used
  before it was compressed);
- at most one row per pair of one-dimensional eigenspaces and
  2 m_b min(m_b, r) rows per pair of dimension m_b > 1, so d_plus d_minus
  rows in all for nondegenerate reductions.
"""

import numpy as np
import pytest

from twinobs import (BipartiteState, SpinScenario, build_scenario, from_pure, linops,
                     solve_twin_space, twins)
from twinobs.linops import DEFAULT_TOL
from twinobs.spin import SCENARIO_NAMES
from twinobs.twins import _constraint_matrix, subspace_distance

from conftest import random_state

SINGULAR_TOL = 100 * np.finfo(float).eps  # relative to sigma_max
SUBSPACE_TOL = 1e-8


def isometry(rng, n, m):
    Z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return np.linalg.qr(Z)[0]


def local_rotation(rng, rho, dp, dm):
    U = np.kron(isometry(rng, dp, dp), isometry(rng, dm, dm))
    return U @ rho @ U.conj().T


def embedded_state(rng, d, k, r):
    """Generic rank-r state on C^k ⊗ C^k carried into C^d ⊗ C^d: null
    blocks of dimension d - k on both sides."""
    E = np.kron(isometry(rng, d, k), isometry(rng, d, k))
    X = rng.standard_normal((k * k, r)) + 1j * rng.standard_normal((k * k, r))
    rho = E @ X @ X.conj().T @ E.conj().T
    return BipartiteState(d, d, rho / np.trace(rho).real)


def two_block_state(rng, dp, dm, m, n, p):
    """p (1/mn) 1 on R ⊗ S plus (1 - p) a random state on R' ⊗ S', R (S)
    the first m (n) basis vectors and R', S' the rest, locally rotated:
    eigenspaces of dimension m and n exactly degenerate, the pair of them
    of dimension mn carried by rho with rank mn."""
    a, c = np.arange(dp)[:, None], np.arange(dm)[None, :]
    inside, rest = ((a < m) & (c < n)).ravel(), np.flatnonzero(((a >= m) & (c >= n)).ravel())
    X = rng.standard_normal((len(rest),) * 2) + 1j * rng.standard_normal((len(rest),) * 2)
    Q = X @ X.conj().T
    rho = np.diag(p * inside / (m * n)).astype(complex)
    rho[np.ix_(rest, rest)] += (1 - p) * Q / np.trace(Q).real
    return BipartiteState(dp, dm, local_rotation(rng, rho, dp, dm))


def product_mixture(rng, dp, dm, weights):
    """sum_a w_a |u_a, v_a><u_a, v_a|: equal weights make eigenspaces of
    the reductions whose pair carries fewer range vectors than its
    dimension and than r."""
    U, V = isometry(rng, dp, len(weights)), isometry(rng, dm, len(weights))
    D = np.einsum("ia,ja->ija", U, V).reshape(dp * dm, -1)
    rho = D @ np.diag(weights) @ D.conj().T
    return BipartiteState(dp, dm, rho / np.trace(rho).real)


def product_state(rng, spectrum_plus, spectrum_minus):
    """sigma_plus ⊗ sigma_minus, locally rotated: full rank, with the
    degeneracies of the two spectra."""
    rho = np.diag(np.kron(spectrum_plus, spectrum_minus)).astype(complex)
    rho /= np.trace(rho).real
    return BipartiteState(len(spectrum_plus), len(spectrum_minus),
                          local_rotation(rng, rho, len(spectrum_plus), len(spectrum_minus)))


def schmidt_weight_at_the_cut(rng, dp, dm, f):
    """Pure state with one Schmidt weight f * rank_tol * w_max."""
    weights = np.array([0.5, 0.35, 0.2][:min(dp, dm) - 1])
    weights = np.append(weights, f * DEFAULT_TOL.rank_tol * weights.max())
    r = min(dp, dm)
    lam = np.sqrt(weights / weights.sum())
    phi = np.einsum("ia,ja,a->ij", isometry(rng, dp, r), isometry(rng, dm, r), lam).ravel()
    return from_pure(phi / np.linalg.norm(phi), dp, dm)


STATES = {
    "generic full rank 3x3": lambda rng: random_state(rng, 3, 3),
    "generic rank 4 3x3": lambda rng: random_state(rng, 3, 3, rank=4),
    "generic rank 2 4x4": lambda rng: random_state(rng, 4, 4, rank=2),
    "embedded d=4 k=2 r=3": lambda rng: embedded_state(rng, 4, 2, 3),
    "embedded d=5 k=3 r=9": lambda rng: embedded_state(rng, 5, 3, 9),
    "embedded d=4 k=1 r=1": lambda rng: embedded_state(rng, 4, 1, 1),
    "two blocks 3x3, 2x2 of rank 4": lambda rng: two_block_state(rng, 3, 3, 2, 2, 0.6),
    "two blocks 4x3, 2x1 of rank 2": lambda rng: two_block_state(rng, 4, 3, 2, 1, 0.3),
    "product mixture 3x4, two equal weights": lambda rng: product_mixture(rng, 3, 4, [1, 1, 2]),
    "product mixture 4x4, three equal weights":
        lambda rng: product_mixture(rng, 4, 4, [1, 1, 1, 2]),
    "product 3x3, doubly degenerate": lambda rng: product_state(rng, [2, 1, 1], [3, 3, 1]),
    "product 2x4, degenerate minus": lambda rng: product_state(rng, [2, 1], [1, 1, 1, 2]),
    "unequal 2x5 rank 3": lambda rng: random_state(rng, 2, 5, rank=3),
    "unequal 4x2 rank 8": lambda rng: random_state(rng, 4, 2),
    "d_plus = 1 (1x3 rank 2)": lambda rng: random_state(rng, 1, 3, rank=2),
    "d_plus = 1 (1x4 rank 1)": lambda rng: random_state(rng, 1, 4, rank=1),
    "schmidt weight below the cut 3x4": lambda rng: schmidt_weight_at_the_cut(rng, 3, 4, 0.2),
    "schmidt weight above the cut 4x3": lambda rng: schmidt_weight_at_the_cut(rng, 4, 3, 4.0),
    **{f"spin {name}": lambda rng, name=name: build_scenario(SpinScenario(name))
       for name in SCENARIO_NAMES},
}


def solve_recorded(state, monkeypatch):
    """solve_twin_space(state) and its compressed system: _block_constraints
    on the P and the layout that the solve built.  A layout of
    one-dimensional eigenspaces whose certificate holds is solved in
    closed form (twins._component_kernel) and makes no kernel_basis call;
    any other solve hands that very matrix to kernel_basis, once."""
    seen = {"local_compress": [], "_layout": [], "kernel_basis": []}

    def recording(module, name):
        fn = getattr(module, name)
        if name == "kernel_basis":
            return lambda M, tol: seen[name].append(np.array(M)) or fn(M, tol)
        return lambda *args: seen[name].append(fn(*args)) or seen[name][-1]

    for module, name in ((linops, "local_compress"), (twins, "_layout"), (linops, "kernel_basis")):
        monkeypatch.setattr(module, name, recording(module, name))
    space = solve_twin_space(state)
    monkeypatch.undo()
    (P,), (layout,) = seen["local_compress"], seen["_layout"]
    M = twins._block_constraints(state, P, layout)
    sub = state.subsystems
    closed = layout[3] is None and twins._component_kernel(
        P, state.tol.rank_tol, sub.null_plus.shape[1], sub.null_minus.shape[1]) is not None
    assert len(seen["kernel_basis"]) == (0 if closed else 1)
    for recorded in seen["kernel_basis"]:
        assert np.array_equal(recorded, M)
    return space, M


def commutant_bases(state):
    """W_s units_s W_s† of both sides: the commutant basis in the
    coordinates of the compressed system."""
    sub = state.subsystems
    out = []
    for labels, null, range_ in zip((sub.labels_plus, sub.labels_minus),
                                    (sub.null_plus, sub.null_minus),
                                    (sub.range_plus, sub.range_minus)):
        W = np.hstack([null, range_])
        out.append(W @ linops.block_hermitian_basis(labels) @ W.conj().T)
    return out


def padded_singular_values(M, n):
    s = np.linalg.svd(M, compute_uv=False)
    return np.concatenate([s, np.zeros(n - len(s))])


def row_bound(state):
    """(bound, m_b) of the compressed row count, m_b the dimensions of
    the eigenspace pairs."""
    r = state.range_basis().shape[1]
    sub = state.subsystems
    sizes = [np.bincount(labels) for labels in (sub.labels_plus, sub.labels_minus)]
    m_b = np.outer(*sizes).ravel()
    return int(np.sum(np.where(m_b == 1, 1, 2 * m_b * np.minimum(m_b, r)))), m_b


# States with an eigenspace pair of dimension 1 < m_b < r: the QR factor
# of that pair has fewer rows than its slice has columns.
COMPRESSED_DEGENERATE = ("two blocks 3x3, 2x2 of rank 4", "product 3x3, doubly degenerate",
                         "product mixture 3x4, two equal weights")


@pytest.mark.parametrize("name", STATES)
def test_same_singular_values_and_kernel_as_the_dense_system(name, monkeypatch):
    state = STATES[name](np.random.default_rng(sum(map(ord, name))))
    space, M = solve_recorded(state, monkeypatch)
    basis_plus, basis_minus = commutant_bases(state)
    dense = _constraint_matrix(state, state.range_basis(), basis_plus, basis_minus)
    assert M.shape[1] == dense.shape[1] == len(basis_plus) + len(basis_minus)

    s, ref = (padded_singular_values(A, M.shape[1]) for A in (M, dense))
    np.testing.assert_allclose(s, ref, rtol=0, atol=SINGULAR_TOL * ref[0])

    K = linops.kernel_basis(dense, state.tol.rank_tol)
    n_plus = len(basis_plus)
    coords = linops.pair_to_coords(np.einsum("gk,gij->kij", K[:n_plus], basis_plus),
                                   np.einsum("gk,gij->kij", K[n_plus:], basis_minus))
    assert space.dim_total == K.shape[1]
    assert subspace_distance(coords, space.coordinate_matrix()) <= SUBSPACE_TOL


@pytest.mark.parametrize("name", STATES)
def test_row_count_within_the_block_bound(name, monkeypatch):
    state = STATES[name](np.random.default_rng(sum(map(ord, name))))
    _, M = solve_recorded(state, monkeypatch)
    bound, m_b = row_bound(state)
    assert M.shape[0] <= bound
    if np.all(m_b == 1):
        assert M.shape[0] == state.d_plus * state.d_minus
    if name in COMPRESSED_DEGENERATE:
        assert np.any((m_b > 1) & (m_b < state.range_basis().shape[1]))


def test_nondegenerate_rows_are_one_per_eigenvector_pair(monkeypatch):
    """Generic full-rank 6 x 6, r = 36: 36 rows where the system on every
    range vector has 2 * 36 * 36 = 2592."""
    state = random_state(np.random.default_rng(11), 6, 6)
    space, M = solve_recorded(state, monkeypatch)
    assert M.shape == (36, 12)
    assert space.dim_total == 1
