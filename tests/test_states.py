import numpy as np
import pytest

from twinobs import (
    BipartiteState,
    PureDecomposition,
    from_pure,
    mix,
    restrict_to_relevant,
    verify_subspace_geometry,
)
from twinobs.errors import NotNormalizedError, NotPositiveError, WeightError
from twinobs.linops import max_norm
from twinobs.spin import SpinScenario, coupled_basis, build_scenario

import reference
from conftest import random_state, traced_peak
from test_commutant_reduction import block_state, embedded_state, schmidt_state
from test_product_kernels import on_factor_path


def test_from_pure_product_state():
    phi = np.array([0, 1, 0, 0], dtype=complex)  # |up down>, index 1
    st = from_pure(phi, 2, 2)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    np.testing.assert_allclose(st.rho, expected)


def test_from_pure_singlet():
    phi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    st = from_pure(phi, 2, 2)
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    np.testing.assert_allclose(st.rho, expected, atol=1e-15)


def test_from_pure_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        from_pure(np.array([1.0, 1.0, 0.0, 0.0]), 2, 2)


def test_state_rejects_nonpositive():
    rho = np.diag([0.75, 0.75, -0.25, -0.25])
    with pytest.raises(NotPositiveError):
        BipartiteState(2, 2, rho)


def test_mix_single_term_matches_from_pure():
    phi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    dec = PureDecomposition(weights=(1.0,), vectors=(phi,))
    np.testing.assert_allclose(mix(dec, 2, 2).rho, from_pure(phi, 2, 2).rho)


def test_mix_triplet_singlet_cross_terms_cancel():
    U, labels = coupled_basis(0.5, 0.5)
    triplet0 = U[:, labels.index((1.0, 0.0))]
    singlet = U[:, labels.index((0.0, 0.0))]
    dec = PureDecomposition(weights=(0.5, 0.5), vectors=(triplet0, singlet))
    st = mix(dec, 2, 2)
    np.testing.assert_allclose(st.rho, np.diag([0, 0.5, 0.5, 0]), atol=1e-12)


def test_mix_uniform_gives_maximally_mixed():
    vecs = tuple(np.eye(4)[:, i] for i in range(4))
    dec = PureDecomposition(weights=(0.25,) * 4, vectors=vecs)
    np.testing.assert_allclose(mix(dec, 2, 2).rho, np.eye(4) / 4)


def test_decomposition_rejects_bad_weights():
    v = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(WeightError):
        PureDecomposition(weights=(0.5, 0.6), vectors=(v, v))
    with pytest.raises(WeightError):
        PureDecomposition(weights=(-0.5, 1.5), vectors=(v, v))


def test_reduce_singlet_gives_maximally_mixed_sides():
    phi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    sub = from_pure(phi, 2, 2).subsystems
    np.testing.assert_allclose(sub.rho_plus, np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(sub.rho_minus, np.eye(2) / 2, atol=1e-12)


def test_projectors_pure_product():
    st = from_pure(np.array([0, 1, 0, 0], dtype=complex), 2, 2)
    p = reference.projectors(st)
    assert np.trace(p.R).real == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(p.R_plus, np.diag([1, 0]), atol=1e-10)
    np.testing.assert_allclose(p.R_minus, np.diag([0, 1]), atol=1e-10)


def test_projectors_example1(example1):
    p = reference.projectors(example1)
    assert np.trace(p.R).real == pytest.approx(2.0, abs=1e-10)
    np.testing.assert_allclose(p.R, np.diag([0, 1, 1, 0]), atol=1e-10)
    np.testing.assert_allclose(p.R_plus, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(p.R_minus, np.eye(2), atol=1e-10)


def test_projectors_nonsingular():
    st = BipartiteState(2, 2, np.eye(4) / 4)
    p = reference.projectors(st)
    assert max_norm(p.N) <= 1e-12
    assert max_norm(p.N_plus) <= 1e-12
    assert max_norm(p.N_minus) <= 1e-12


class TestRankCut:
    """The state keeps one rank cut of rho, (eigenvalues, range basis V,
    cut_error), on the factor path (low rank, D = 36) and on the eigh
    path (rank 4 of D = 9, above the pivot budget D // 8)."""

    STATES = {"factor": (6, 2, True), "eigh": (3, 4, False)}

    @pytest.fixture(params=sorted(STATES))
    def state(self, request):
        d, rank, factor_path = self.STATES[request.param]
        state = random_state(np.random.default_rng(d + rank), d, d, rank)
        assert on_factor_path(state) == factor_path
        return state

    def test_spectrum_is_eigenvalues_and_range_basis(self, state):
        spectrum = state.spectrum
        assert isinstance(spectrum, tuple) and len(spectrum) == 2
        vals, V = spectrum
        assert V is state.range_basis()
        assert np.all(np.diff(vals) >= 0)
        dense = np.linalg.eigvalsh(state.rho)
        k = int(np.sum(dense > state.tol.rank_tol * dense[-1]))
        assert V.shape == (state.dim, k)
        kept = vals[len(vals) - k:]
        np.testing.assert_allclose(kept, dense[-k:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(k), rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.rho @ V, V * kept, rtol=0, atol=1e-12)

    def test_cut_is_read_only(self, state):
        vals, V = state.spectrum
        for a in (vals, V, state.factor):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_cut_error_bounds_the_residual_of_the_factor(self, state):
        vals, V = state.spectrum
        C = state.factor
        np.testing.assert_array_equal(C, V * np.sqrt(vals[len(vals) - V.shape[1]:]))
        # up to D * eps * lambda_max of rounding in C C† and the norms
        residual = np.linalg.norm(C @ C.conj().T - state.rho, 2)
        rounding = state.dim * np.finfo(float).eps * vals[-1]
        assert residual <= state.cut_error * (1 + 1e-12) + rounding
        assert state.cut_error <= state.tol.rank_tol * vals[-1]
        if not on_factor_path(state):
            dropped = vals[:len(vals) - V.shape[1]]
            assert state.cut_error == np.max(np.abs(dropped))


class TestSubspaceGeometry:
    def test_pure_product_exact(self):
        st = from_pure(np.array([0, 1, 0, 0], dtype=complex), 2, 2)
        report = verify_subspace_geometry(st)
        assert report.max_residual <= 1e-12

    def test_random_rank2_3x3(self):
        st = random_state(np.random.default_rng(42), 3, 3, rank=2)
        assert verify_subspace_geometry(st).passed

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_random_states_all_ranks(self, dims):
        dp, dm = dims
        rng = np.random.default_rng(2024)
        for trial in range(34):
            rank = int(rng.integers(1, dp * dm + 1))
            st = random_state(rng, dp, dm, rank=rank)
            report = verify_subspace_geometry(st)
            assert report.passed, (dims, rank, report.residuals)

    def test_null_vectors_annihilate_rho(self, example2_ms1):
        # any product of a rho_plus null vector with anything is in null(rho)
        st = example2_ms1
        sub = st.subsystems
        vals, vecs = np.linalg.eigh(sub.rho_plus)
        rng = np.random.default_rng(3)
        for i in np.flatnonzero(vals <= 1e-10):
            for _ in range(5):
                psi = rng.standard_normal(st.d_minus) + 1j * rng.standard_normal(st.d_minus)
                psi /= np.linalg.norm(psi)
                v = np.kron(vecs[:, i], psi)
                assert abs(v.conj() @ st.rho @ v) <= 1e-10


def geometry_states():
    """Random, pure, Schmidt, block and embedded states with d_plus and
    d_minus from 1 to 12, on both rank-cut paths."""
    rng = np.random.default_rng(1901)
    states = []
    for dp, dm in [(1, 1), (1, 7), (5, 1), (2, 3), (3, 3), (4, 6), (7, 5), (12, 1), (9, 12),
                   (12, 12)]:
        D, r = dp * dm, min(dp, dm)
        phi = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        ranks = sorted({1, 2, max(1, D // 10), D})
        states += [random_state(rng, dp, dm, rank=rank) for rank in ranks]
        states += [from_pure(phi / np.linalg.norm(phi), dp, dm),
                   schmidt_state(rng, dp, dm, rng.uniform(0.1, 1.0, r)),
                   block_state(rng, dp, dm, r, min(2, r), 1e-3)]
    states += [embedded_state(rng, d, k, r) for d, k, r in [(4, 2, 3), (8, 3, 2), (12, 2, 4),
                                                            (12, 5, 25)]]
    return states


GEOMETRY_STATES = geometry_states()


class TestSubspaceGeometryOracle:
    def test_cases_cover_both_rank_cut_paths(self):
        paths = {on_factor_path(st) for st in GEOMETRY_STATES}
        assert paths == {True, False}

    @pytest.mark.parametrize("index", range(len(GEOMETRY_STATES)))
    def test_residuals_match_dense_kronecker_form(self, index):
        st = GEOMETRY_STATES[index]
        report, dense = verify_subspace_geometry(st), reference.dense_subspace_geometry(st)
        assert list(report.residuals) == list(dense.residuals)
        for key, value in dense.residuals.items():
            assert abs(report.residuals[key] - value) <= 1e-14, (key, report.residuals[key], value)
        assert report.passed == dense.passed

    def test_inclusions_of_range_and_null_projectors_are_one_quantity(self):
        report = verify_subspace_geometry(GEOMETRY_STATES[-1])
        r = report.residuals
        assert r["R_eq_Rp1_R"] == r["Np1_N_eq_Np1"] and r["R_eq_1Rm_R"] == r["1Nm_N_eq_1Nm"]

    def test_forms_no_kronecker_operator(self):
        """At D = 144 a state of rank well below D is checked in at most
        3 D x D complex arrays; the dense form took about 9."""
        d = 12
        rng = np.random.default_rng(7)
        for st in (schmidt_state(rng, d, d, rng.uniform(0.1, 1.0, d)),
                   embedded_state(rng, d, 5, 25), random_state(rng, d, d, rank=40)):
            st.subsystems
            peak = traced_peak(lambda: verify_subspace_geometry(st))
            assert peak <= 3 * 16 * (d * d) ** 2


class TestRestrictToRelevant:
    def test_nonsingular_identity_embedding(self):
        st = BipartiteState(2, 2, np.eye(4) / 4)
        r = restrict_to_relevant(st)
        assert r.rho_prime.shape == (4, 4)
        np.testing.assert_allclose(r.embed(r.rho_prime), st.rho, atol=1e-12)

    def test_example2_ms1_compresses_to_4x4(self, example2_ms1):
        r = restrict_to_relevant(example2_ms1)
        assert r.rho_prime.shape == (4, 4)
        assert np.trace(r.rho_prime).real == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(r.embed(r.rho_prime), example2_ms1.rho, atol=1e-10)

    def test_schmidt_rank_one_is_scalar(self):
        st = from_pure(np.array([0, 1, 0, 0], dtype=complex), 2, 2)
        r = restrict_to_relevant(st)
        assert r.rho_prime.shape == (1, 1)
        assert r.rho_prime[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_round_trip_random(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            st = random_state(rng, 2, 3, rank=int(rng.integers(1, 7)))
            r = restrict_to_relevant(st)
            assert np.trace(r.rho_prime).real == pytest.approx(1.0, abs=1e-10)
            assert max_norm(r.embed(r.rho_prime) - st.rho) <= 1e-10
