"""The twin solve restricted to the commutant of rho_plus and rho_minus
against the dense solve over all of hermitian_basis.

The reference is kernel_basis of _constraint_matrix(state, C, ...) over
hermitian_basis, the full d^2 Hermitian coordinates per side.  Both
answers are held to what the numerics allow:
- equal dimensions wherever no dense singular value lies within 100x of
  the cut rank_tol * sigma_max, since a value near the cut may fall on
  either side of it;
- where the dimensions must agree, a subspace distance of at most 1e-8
  when the smallest kept singular value sigma_min is at least
  1e-6 * sigma_max; below that both kernels are only good to about
  eps * sigma_max / sigma_min (Wedin), and the distance is held to 100
  times that.
"""

import numpy as np
import pytest

from twinobs import BipartiteState, SpinScenario, build_scenario, from_pure, solve_twin_space
from twinobs.linops import DEFAULT_TOL, Tolerances, hermitian_basis, kernel_basis
from twinobs.spin import SCENARIO_NAMES
from twinobs.twins import _constraint_matrix, subspace_distance

from conftest import random_state

GAPS = [0.0, 1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-3]
NEAR_CUT = 100.0        # a dense singular value within this factor of the cut
WELL_KEPT = 1e-6        # smallest kept singular value over sigma_max
SUBSPACE_TOL = 1e-8
WEDIN_FACTOR = 100.0


def isometry(rng, n, m):
    Z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return np.linalg.qr(Z)[0]


def weights_with_gap(r, m, gap):
    """r weights: the first m spaced by gap, the rest well apart."""
    w = np.concatenate([0.2 + gap * np.arange(m), 0.35 + 0.15 * np.arange(r - m)])
    return w / w.sum()


def schmidt_state(rng, dp, dm, weights, tol=DEFAULT_TOL):
    """Pure state with the given Schmidt weights (min(dp, dm) of them)."""
    r = min(dp, dm)
    lam = np.sqrt(np.asarray(weights) / np.sum(weights))
    phi = np.einsum("ia,ja,a->ij", isometry(rng, dp, r), isometry(rng, dm, r), lam).ravel()
    return from_pure(phi / np.linalg.norm(phi), dp, dm, tol)


def block_state(rng, dp, dm, r, m, gap):
    """Mixture of r product states |u_a, v_a> whose first m weights
    differ by about gap: near-degenerate reductions, twin space of
    dimension r plus the null blocks, whatever the gap."""
    U, V = isometry(rng, dp, r), isometry(rng, dm, r)
    D = np.einsum("ia,ja->ija", U, V).reshape(dp * dm, r)
    rho = D @ np.diag(weights_with_gap(r, m, gap)) @ D.conj().T
    return BipartiteState(dp, dm, rho)


def embedded_state(rng, d, k, r):
    """Generic rank-r state on C^k ⊗ C^k carried into C^d ⊗ C^d."""
    E = np.kron(isometry(rng, d, k), isometry(rng, d, k))
    X = rng.standard_normal((k * k, r)) + 1j * rng.standard_normal((k * k, r))
    rho = E @ X @ X.conj().T @ E.conj().T
    return BipartiteState(d, d, rho / np.trace(rho).real)


def noisy_state(rng, base, eta):
    """(1 - eta) base + eta * a random full-rank state."""
    noise = random_state(rng, base.d_plus, base.d_minus).rho
    return BipartiteState(base.d_plus, base.d_minus, (1 - eta) * base.rho + eta * noise, base.tol)


def dense_constraint_matrix(state):
    return _constraint_matrix(state, state.range_basis(), hermitian_basis(state.d_plus),
                              hermitian_basis(state.d_minus))


def compare(state):
    """Hold solve_twin_space to the dense reference; returns the names
    of the checks the singular values allowed."""
    M = dense_constraint_matrix(state)
    ref = kernel_basis(M, state.tol.rank_tol)
    s = np.linalg.svd(M, compute_uv=False)
    cut = state.tol.rank_tol * s[0]
    space = solve_twin_space(state)
    ran = set()
    if not np.any((s > cut / NEAR_CUT) & (s < cut * NEAR_CUT)):
        assert space.dim_total == ref.shape[1] == (
            space.dim_detectable + space.dim_undetectable_plus + space.dim_undetectable_minus)
        ran.add("dims")
        sigma_min = s[s > cut][-1] / s[0]
        tol = (SUBSPACE_TOL if sigma_min >= WELL_KEPT
               else WEDIN_FACTOR * np.finfo(float).eps / sigma_min)
        dist = subspace_distance(ref, space.coordinate_matrix())
        assert dist <= tol, f"subspace distance {dist:.2e} at sigma_min {sigma_min:.1e}"
        ran.add("well kept" if sigma_min >= WELL_KEPT else "wedin")
    return ran


# Schmidt-weight gaps whose singular value, about the gap, is far from
# the default cut.
FAR_FROM_CUT = {0.0, 1e-14, 1e-7, 1e-6, 1e-5, 1e-3}


@pytest.mark.parametrize("gap", GAPS)
@pytest.mark.parametrize("dims,m", [((4, 4), 3), ((4, 4), 2), ((2, 3), 2), ((3, 4), 3),
                                    ((4, 2), 2)])
def test_schmidt_weight_gaps(dims, m, gap):
    weights = weights_with_gap(min(dims), m, gap)
    ran = compare(schmidt_state(np.random.default_rng(41), *dims, weights))
    if gap in FAR_FROM_CUT:
        assert "dims" in ran


@pytest.mark.parametrize("gap", GAPS)
@pytest.mark.parametrize("dims,r,m", [((3, 3), 3, 3), ((2, 3), 2, 2), ((3, 4), 3, 2),
                                      ((4, 2), 2, 2), ((4, 4), 3, 3)])
def test_block_weight_gaps(dims, r, m, gap):
    ran = compare(block_state(np.random.default_rng(43), *dims, r, m, gap))
    assert ran == {"dims", "well kept"}


def test_four_by_four_pure_state_with_a_close_fourth_weight():
    """Three equal Schmidt weights and a fourth 1e-7 away: ten twins.
    Grouped at cluster_tol, the close pair would be split and the
    eigenvectors of the triple, wrong by about eps / 1e-7, would push
    the true twins above the kernel cut."""
    state = schmidt_state(np.random.default_rng(5), 4, 4, [0.2, 0.2, 0.2, 0.2 + 1e-7])
    assert compare(state) == {"dims", "wedin"}
    space = solve_twin_space(state)
    assert (space.dim_total, space.dim_detectable) == (10, 10)


@pytest.mark.parametrize("d,k,r", [(4, 2, 1), (4, 2, 3), (5, 3, 4), (5, 3, 9), (3, 1, 1)])
def test_embedded_states(d, k, r):
    state = embedded_state(np.random.default_rng(d * 100 + k * 10 + r), d, k, r)
    assert compare(state) == {"dims", "well kept"}
    space = solve_twin_space(state)
    assert (space.dim_undetectable_plus, space.dim_undetectable_minus) == ((d - k) ** 2,) * 2


@pytest.mark.parametrize("eta", [1e-15, 1e-13, 1e-11, 1e-9, 1e-6])
@pytest.mark.parametrize("kind", ["schmidt", "block", "embedded"])
def test_noisy_singular_states(kind, eta):
    rng = np.random.default_rng(47)
    base = {"schmidt": lambda: schmidt_state(rng, 3, 3, weights_with_gap(3, 2, 0.0)),
            "block": lambda: block_state(rng, 3, 4, 3, 2, 0.0),
            "embedded": lambda: embedded_state(rng, 4, 2, 2)}[kind]()
    ran = compare(noisy_state(rng, base, eta))
    # noise near rank_tol puts eigenvalues of rho near its own rank cut
    if eta != 1e-11:
        assert ran == {"dims", "well kept"}


@pytest.mark.parametrize("f", [0.2, 0.6, 1.6, 4.0, 20.0])
@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (3, 4), (4, 3), (4, 4)])
def test_schmidt_weight_at_the_reduced_cut(dims, f):
    """One Schmidt weight mu = f * rank_tol * w_max, a kept or dropped
    eigenvalue of rho_plus and rho_minus within a few times their cut:
    the twin space is that of the dense reference.  A twin need not
    commute with the range projectors of the reductions here, so the
    null blocks are not split off in closed form; nor is
    dim_total = detectable + n_plus^2 + n_minus^2 asserted, which fails
    below the cut (f < 1)."""
    weights = np.array([0.5, 0.35, 0.2][:min(dims) - 1])
    weights = np.append(weights, f * DEFAULT_TOL.rank_tol * weights.max())
    state = schmidt_state(np.random.default_rng(67), *dims, weights)
    ref = kernel_basis(dense_constraint_matrix(state), state.tol.rank_tol)
    space = solve_twin_space(state)
    assert space.dim_total == ref.shape[1]
    assert subspace_distance(ref, space.coordinate_matrix()) <= SUBSPACE_TOL


@pytest.mark.parametrize("dims", [(1, 3), (3, 1), (1, 1)])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_factor_of_dimension_one(dims, rank):
    rank = min(rank, dims[0] * dims[1])
    state = random_state(np.random.default_rng(rank), *dims, rank=rank)
    assert compare(state) == {"dims", "well kept"}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_spin_scenarios(name):
    assert compare(build_scenario(SpinScenario(name))) == {"dims", "well kept"}


@pytest.mark.parametrize("gap", [3e-5, 1e-4, 1e-3])
@pytest.mark.parametrize("eta", [1e-13, 1e-12, 1e-11])
def test_noise_cut_away_with_close_reduced_eigenvalues(eta, gap):
    """Noise below the rank cut leaves the twins of the kept range but
    turns the eigenvectors of rho_s by about eta / gap.  Grouped at
    sqrt(rank_tol) alone, gaps like these would be split and a twin lost."""
    rng = np.random.default_rng(59)
    state = noisy_state(rng, schmidt_state(rng, 4, 4, [0.2, 0.2 + gap, 0.35, 0.5]), eta)
    assert "dims" in compare(state)
    assert solve_twin_space(state).dim_total == 4


@pytest.mark.parametrize("gap", [1e-6, 1e-5, 1e-4, 1e-3])
@pytest.mark.parametrize("rank_tol", [1e-12, 1e-13])
def test_small_user_rank_tol_keeps_degenerate_twins(rank_tol, gap):
    """Two equal Schmidt weights and a third one gap away: six twins.
    Below the default rank_tol, rounding alone (eps / gap) outgrows the
    cut before the gap reaches sqrt(rank_tol)."""
    state = schmidt_state(np.random.default_rng(61), 4, 4, [0.2, 0.2, 0.2 + gap, 0.35],
                          Tolerances(rank_tol=rank_tol))
    assert "dims" in compare(state)
    assert solve_twin_space(state).dim_total == 6


@pytest.mark.parametrize("rank_tol", [1e-12, 1e-8, 1e-5])
@pytest.mark.parametrize("gap", [0.0, 1e-9, 1e-7, 1e-3])
def test_user_rank_tol_sets_cut_and_grouping(rank_tol, gap):
    """The kernel cut and the grouping gap both follow tol.rank_tol."""
    state = schmidt_state(np.random.default_rng(53), 4, 4, weights_with_gap(4, 3, gap),
                          Tolerances(rank_tol=rank_tol))
    compare(state)
    # a weight gap far below the cut is a degeneracy, one far above it is not
    space = solve_twin_space(state)
    if gap < rank_tol / NEAR_CUT:
        assert space.dim_total == 10
    elif gap > rank_tol * NEAR_CUT:
        assert space.dim_total == 4
