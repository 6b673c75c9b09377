"""The factor path of the rank cut of rho (pivoted Cholesky, Rayleigh-Ritz
on the pivot columns, a certificate on the residual) against a fresh
eigh cut, its dispatch and fallback; the measurement report kept as
factors at rank k = D/2; the batched spectral_data against its loop; the
trusted constructor of solved pairs."""

import numpy as np
import pytest

from twinobs import (
    BipartiteState,
    ObservablePair,
    SpinScenario,
    build_scenario,
    distant_measurement_report,
    find_complete_twins,
    from_pure,
    solve_twin_space,
)
from twinobs import linops
from twinobs.errors import NonHermitianError
from twinobs.spectral import spectral_data

import reference
from conftest import random_state
from test_product_kernels import (
    isometry,
    on_factor_path,
    record_eigh_shapes,
    ref_distant_measurement,
)

TOL = linops.DEFAULT_TOL.rank_tol
SPIN = ["example1_range10_00", "example1_range10_1m1", "example2_ms0", "example2_ms1"]
EPSILONS = [0.0, 1e-13, 1e-11, 1e-10, 1e-9]


def noisy(rho, eps, seed=7):
    """(1 - eps) rho + eps sigma for a fixed full-rank state sigma."""
    d = int(round(np.sqrt(np.sqrt(rho.size))))
    return (1 - eps) * rho + eps * random_state(np.random.default_rng(seed), d, d).rho


def check_against_eigh(rho, values, V, err):
    """Same rank as the cut of a fresh eigh, and a range projector within
    the Davis-Kahan bound of rounding and the residual err."""
    _, ref_V, _ = linops.range_null_bases(rho, TOL)
    assert V.shape == ref_V.shape
    np.testing.assert_allclose(V.conj().T @ V, np.eye(V.shape[1]), rtol=0, atol=1e-14)
    bound = 2 * (err + len(rho) * np.finfo(float).eps * values[-1]) / values[0]
    assert np.linalg.norm(V @ V.conj().T - ref_V @ ref_V.conj().T, 2) <= bound


class TestAgreementWithEigh:
    @pytest.mark.parametrize("d, rank", [(4, 1), (4, 2), (6, 1), (6, 3), (6, 4), (8, 5),
                                         (8, 8)])
    def test_exact_low_rank(self, d, rank, monkeypatch):
        rho = random_state(np.random.default_rng(10 * d + rank), d, d, rank).rho
        shapes = record_eigh_shapes(monkeypatch)
        # construction takes the cut
        state = BipartiteState(d, d, rho)
        state.range_basis()
        monkeypatch.undo()
        assert (state.dim, state.dim) not in shapes
        assert on_factor_path(state)
        vals = state.spectrum[0]
        assert len(vals) == rank
        check_against_eigh(state.rho, vals, state.range_basis(), state.cut_error)

    @pytest.mark.parametrize("name", SPIN)
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_noisy_spin_scenarios(self, name, eps):
        # D <= 9 sends every spin state to eigh, so the cut is called with
        # a pivot budget of D; it must certify up to eps = 1e-10, and
        # wherever it certifies, agree with eigh
        rho = noisy(build_scenario(SpinScenario(name)).rho, eps)
        cut = linops.low_rank_cut(rho, TOL, len(rho))
        if eps <= 1e-10:
            assert cut is not None
        if cut is not None:
            check_against_eigh(rho, *cut)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_noisy_pure_state_through_the_dispatch(self, eps):
        # whichever path the state takes, its cut is that of eigh
        rng = np.random.default_rng(5)
        phi = np.einsum("ia,ja,a->ij", isometry(rng, 6, 6), isometry(rng, 6, 6),
                        np.linspace(1, 2, 6) / np.linalg.norm(np.linspace(1, 2, 6)))
        state = BipartiteState(6, 6, noisy(np.outer(phi.ravel(), phi.ravel().conj()), eps))
        assert on_factor_path(state) is (eps <= 1e-10)
        if on_factor_path(state):
            check_against_eigh(state.rho, state.spectrum[0], state.range_basis(),
                               state.cut_error)
        else:
            ref_R, _ = reference.range_null_projectors(state.rho, TOL)
            assert np.array_equal(reference.projectors(state).R, ref_R)


def state_with_second_eigenvalue(rel):
    """rho on C^4 ⊗ C^4 with eigenvalues (1 - delta, delta, 0, ...) and
    delta = rel times the cut rank_tol * lambda_max."""
    delta = rel * TOL / (1 + rel * TOL)
    U = isometry(np.random.default_rng(17), 16, 16)
    return BipartiteState(4, 4, (U * np.r_[1 - delta, delta, np.zeros(14)]) @ U.conj().T)


class TestCertificate:
    @pytest.mark.parametrize("rel", [1 + 1e-5, 1 - 1e-5])
    def test_ritz_value_at_the_cut_falls_back_to_eigh(self, rel, monkeypatch):
        rho = state_with_second_eigenvalue(rel).rho
        pivots = []
        pivoted = linops.pivoted_cholesky
        monkeypatch.setattr(linops, "pivoted_cholesky",
                            lambda *args: pivots.append(1) or pivoted(*args))
        shapes = record_eigh_shapes(monkeypatch)
        # construction takes the cut
        state = BipartiteState(4, 4, rho)
        assert pivots and (16, 16) in shapes
        assert not on_factor_path(state)

    def test_ritz_value_clear_of_the_cut_is_certified(self):
        state = state_with_second_eigenvalue(10.0)
        assert on_factor_path(state) and state.range_basis().shape[1] == 2

    @pytest.mark.parametrize("rank", [None, 3])
    def test_rank_above_the_budget_never_pivots(self, rank, monkeypatch):
        # D = 16 allows 2 pivots; tr^2 / ||rho||_F^2 shows a higher rank
        rho = random_state(np.random.default_rng(3), 4, 4, rank).rho

        def forbidden(*args):
            raise AssertionError("pivoted Cholesky of a high-rank rho")

        monkeypatch.setattr(linops, "pivoted_cholesky", forbidden)
        state = BipartiteState(4, 4, rho)
        assert state.range_basis().shape[1] == (rank or 16)
        assert len(state.spectrum[0]) == 16

    @pytest.mark.parametrize("eps", [0.0, 1e-13, 1e-12, 1e-11])
    @pytest.mark.parametrize("d, rank", [(6, 1), (6, 2), (8, 4)])
    def test_residual_within_the_certified_bound(self, d, rank, eps):
        rho = random_state(np.random.default_rng(d + rank), d, d, rank).rho
        state = BipartiteState(d, d, noisy(rho, eps))
        assert on_factor_path(state)
        C = state.factor
        # the spectral norm is at most the Frobenius norm cut_error, up
        # to the rounding of the two norms
        residual = np.linalg.norm(C @ C.conj().T - state.rho, 2)
        assert residual <= state.cut_error * (1 + 1e-12)
        assert state.cut_error <= TOL * state.spectrum[0][-1]


def two_block_state(rng, d=4, r=2):
    """A rank-D/2 state on (R1 ⊗ S1) ⊕ (R2 ⊗ S2), R1 and S1 of dimension
    r, full rank on each block, with the twin pair
    (0.3 P_R1 - 1.1 P_R2, 0.3 P_S1 - 1.1 P_S2)."""
    U, V = isometry(rng, d, d), isometry(rng, d, d)
    rho = np.zeros((d * d, d * d), dtype=complex)
    blocks = [(U[:, :r], V[:, :r]), (U[:, r:], V[:, r:])]
    for w, (Bp, Bm) in zip((0.35, 0.65), blocks):
        E = np.kron(Bp, Bm)
        sigma = random_state(rng, Bp.shape[1], Bm.shape[1]).rho
        rho += w * E @ sigma @ E.conj().T
    pair = ObservablePair(*(0.3 * P1 @ P1.conj().T - 1.1 * P2 @ P2.conj().T
                            for P1, P2 in ((U[:, :r], U[:, r:]), (V[:, :r], V[:, r:]))))
    return BipartiteState(d, d, rho), pair


@pytest.mark.parametrize("seed", [0, 1])
def test_report_at_half_rank_matches_the_dense_reference(seed):
    state, pair = two_block_state(np.random.default_rng(seed))
    assert state.factor.shape == (16, 8)
    rep = distant_measurement_report(state, pair)
    outcomes, exp_plus, exp_minus = ref_distant_measurement(state, pair)
    assert len(rep.outcomes) == len(outcomes) == 2
    for o, ref in zip(rep.outcomes, outcomes):
        got = (o.value, o.probability_plus, o.probability_minus, o.post_state_plus,
               o.post_state_minus, o.conditional_minus, o.conditional_plus)
        for g, e in zip(got, ref):
            np.testing.assert_allclose(g, e, rtol=0, atol=1e-13)
    gap = max(np.max(np.abs(post_p - post_m)) for _, _, _, post_p, post_m, _, _ in outcomes)
    assert rep.max_collapse_gap == pytest.approx(gap, abs=1e-13)
    assert rep.expectation_plus == pytest.approx(exp_plus, abs=1e-13)
    assert rep.passed


def ref_spectral_data(H, cluster_tol):
    """The per-cluster loop spectral_data replaced."""
    vals, vecs = linops.eigh(H)
    cuts = [0, *(np.flatnonzero(np.diff(vals) > cluster_tol) + 1), len(vals)]
    blocks = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    return (np.array([float(np.mean(vals[b])) for b in blocks]),
            np.array([b.stop - b.start for b in blocks]),
            [vecs[:, b] @ vecs[:, b].conj().T for b in blocks])


@pytest.mark.parametrize("spectrum", [
    [0.7], [1.0] * 5, [-1, 0.5, 2, 3], [1, 1, 1 + 1e-10, 2, 3, 3, 3, 3.5],
    [0, 0, 1e-9, 5e-9, 1, 1, 2], list(np.arange(12) / 7),
])
def test_spectral_data_matches_the_cluster_loop(spectrum):
    U = isometry(np.random.default_rng(len(spectrum)), len(spectrum), len(spectrum))
    H = (U * np.asarray(spectrum, dtype=float)) @ U.conj().T
    data = spectral_data(H, 1e-8)
    values, mult, projectors = ref_spectral_data(H, 1e-8)
    np.testing.assert_array_equal(data.multiplicities, mult)
    np.testing.assert_allclose(data.values, values, rtol=0, atol=1e-15)
    assert len(data.projectors) == len(projectors)
    for P, ref in zip(data.projectors, projectors):
        np.testing.assert_allclose(P, ref, rtol=0, atol=1e-15)


class TestTrustedPairs:
    def test_solved_and_searched_pairs_skip_validation(self, monkeypatch):
        rng = np.random.default_rng(9)
        phi = np.einsum("ia,ja,a->ij", isometry(rng, 3, 3), isometry(rng, 3, 3), [0.3, 0.5, 0.8])
        state = from_pure(phi.ravel() / np.linalg.norm(phi), 3, 3)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("validating constructor on a constructed pair")

        monkeypatch.setattr(ObservablePair, "__init__", forbidden)
        space = solve_twin_space(state)
        pair, _ = find_complete_twins(space, state)
        for p in (*space.basis, pair):
            for A in (p.a_plus, p.a_minus):
                assert np.array_equal(A, A.conj().T)

    def test_public_constructor_still_validates(self):
        with pytest.raises(NonHermitianError):
            ObservablePair(np.array([[0, 1], [0, 0]]), np.eye(2))
