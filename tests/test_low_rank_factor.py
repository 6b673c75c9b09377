"""The low-rank factor C of rho (C C† is the rank cut of rho) and the
measurement report, simplified matrix and relevant restriction computed
from it, checked against the dense references of test_product_kernels.

A state with a dropped tail of weight eps (eigenvalues below the rank
cut) has outputs that are those of C C†, not of rho; each field then
differs from the dense one by at most D * eps / prob."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from twinobs import (
    BipartiteState,
    SpinScenario,
    build_scenario,
    distant_measurement_report,
    find_complete_twins,
    from_pure,
    simplified_matrix,
    solve_twin_space,
)
from twinobs import ObservablePair, linops
from twinobs.errors import DimensionMismatchError
from twinobs.measurement import _check_projector
from twinobs.spectral import _pair_spectra
from twinobs.spin import SCENARIO_NAMES
from twinobs.states import restrict_to_relevant

import reference
from conftest import random_state
from test_product_kernels import (
    diagonal_support_state,
    isometry,
    ref_distant_measurement,
    ref_simplified_matrix,
)

ROUNDING = 1e-13
REPORT_TOL = 1e-9  # the report's own verdict tolerance
EPSILONS = [0.0, 1e-13, 1e-11, 1e-10]


def noisy_spin_state(name, eps):
    """(1 - eps) rho + eps sigma for a spin scenario rho and a fixed
    full-rank sigma: the rank cut drops a tail of weight about eps."""
    rho = build_scenario(SpinScenario(name)).rho
    sigma = random_state(np.random.default_rng(7), 3, 3).rho
    return BipartiteState(3, 3, (1 - eps) * rho + eps * sigma)


def dropped(state):
    vals, range_basis = state.spectrum
    return vals[:len(vals) - range_basis.shape[1]]


def complete(state):
    found = find_complete_twins(solve_twin_space(state), state)
    assert found is not None
    return found


def ref_passed(outcomes, exp_plus, exp_minus):
    """The report's verdict recomputed from the dense outcomes."""
    gaps = [abs(p - m) for _, p, m, *_ in outcomes]
    gaps += [np.max(np.abs(post_p - post_m)) for _, _, _, post_p, post_m, _, _ in outcomes]
    return max(gaps + [abs(exp_plus - exp_minus)]) <= REPORT_TOL


def check_report(state, pair, eps):
    """Every field of the report within D * eps / prob (plus rounding) of
    the dense reference, the same outcomes and the same verdict."""
    rep = distant_measurement_report(state, pair)
    outcomes, exp_plus, exp_minus = ref_distant_measurement(state, pair)
    assert len(rep.outcomes) == len(outcomes)
    for o, ref in zip(rep.outcomes, outcomes):
        tol = state.dim * eps / min(o.probability_plus, o.probability_minus) + ROUNDING
        got = (o.value, o.probability_plus, o.probability_minus, o.post_state_plus,
               o.post_state_minus, o.conditional_minus, o.conditional_plus)
        for g, e in zip(got, ref):
            assert np.shape(g) == np.shape(e)
            np.testing.assert_allclose(g, e, rtol=0, atol=tol)
    tol = state.dim * eps + ROUNDING
    assert rep.expectation_plus == pytest.approx(exp_plus, abs=tol)
    assert rep.expectation_minus == pytest.approx(exp_minus, abs=tol)
    assert rep.passed == ref_passed(outcomes, exp_plus, exp_minus)
    return rep


def check_simplified(state, mb, eps):
    M, report = simplified_matrix(state, mb)
    M_ref, forbidden_ref = ref_simplified_matrix(state, mb)
    tol = state.dim * eps + ROUNDING
    np.testing.assert_allclose(M, M_ref, rtol=0, atol=tol)
    assert abs(report.max_forbidden - forbidden_ref) <= tol
    assert report.passed == (forbidden_ref <= state.tol.residual_tol)


class TestFactor:
    def test_read_only_and_cached(self):
        state = diagonal_support_state(np.random.default_rng(1), 3, 4, 3, 2)
        C = state.factor
        assert C is state.factor
        assert not C.flags.writeable
        with pytest.raises(ValueError):
            C[0, 0] = 1.0

    def test_built_without_a_decomposition(self, monkeypatch):
        state = diagonal_support_state(np.random.default_rng(2), 3, 3, 3, 2)
        state.spectrum

        def forbidden(*args, **kwargs):
            raise AssertionError("decomposition while building the factor")

        for module, name in ((linops, "eigh"), (np.linalg, "eigh"),
                             (np.linalg, "eigvalsh"), (np.linalg, "cholesky")):
            monkeypatch.setattr(module, name, forbidden)
        assert state.factor.shape == (9, 2)

    @pytest.mark.parametrize("name", ["example2_ms0", "example2_ms1"])
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_cut_error_is_the_dropped_tail(self, name, eps):
        state = noisy_spin_state(name, eps)
        C = state.factor
        tail = np.max(np.abs(dropped(state)))
        assert tail <= state.tol.rank_tol * state.spectrum[0][-1]
        assert np.linalg.norm(C @ C.conj().T - state.rho, 2) <= tail + ROUNDING

    @pytest.mark.parametrize("dims", [(2, 3), (3, 4)])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_exact_low_rank_factor(self, dims, rank):
        state = diagonal_support_state(np.random.default_rng(sum(dims) + rank), *dims, 2, rank)
        C = state.factor
        assert C.shape == (state.dim, rank)
        np.testing.assert_allclose(C @ C.conj().T, state.rho, rtol=0, atol=ROUNDING)


class TestAgainstDense:
    @pytest.mark.parametrize("name", ["example2_ms0", "example2_ms1"])
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_noisy_spin_states(self, name, eps):
        state = noisy_spin_state(name, eps)
        assert np.max(np.abs(dropped(state)), initial=0.0) <= max(eps, ROUNDING)
        pair, mb = complete(state)
        assert check_report(state, pair, eps).passed
        check_simplified(state, mb, eps)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 4)])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_one_and_two(self, dims, rank):
        rng = np.random.default_rng(10 * sum(dims) + rank)
        state = diagonal_support_state(rng, *dims, min(dims), rank)
        pair, mb = complete(state)
        rep = check_report(state, pair, 0.0)
        assert rep.passed and len(rep.outcomes) >= 1
        check_simplified(state, mb, 0.0)

    def test_outcome_below_the_probability_floor_is_skipped(self):
        # Schmidt weights (0.5, 0.5 - w, w): w is above the rank cut of
        # rho_s (rank_tol * 0.5) but its outcome has probability w < rank_tol
        w = 7e-11
        rng = np.random.default_rng(5)
        U, V = isometry(rng, 3, 3), isometry(rng, 3, 3)
        state = from_pure(np.einsum("ia,ja,a->ij", U, V, np.sqrt([0.5, 0.5 - w, w])).ravel(),
                          3, 3)
        pair, mb = complete(state)
        assert len(mb.sigma_prime) == 3
        rep = check_report(state, pair, 0.0)
        assert rep.passed and len(rep.outcomes) == 2

    @pytest.mark.parametrize("dims", [(2, 3), (3, 4)])
    def test_relevant_restriction(self, dims):
        state = diagonal_support_state(np.random.default_rng(sum(dims)), *dims, 2, 2)
        restriction = restrict_to_relevant(state)
        B = np.kron(restriction.basis_plus, restriction.basis_minus)
        np.testing.assert_allclose(restriction.rho_prime, B.conj().T @ state.rho @ B,
                                   rtol=0, atol=ROUNDING)
        np.testing.assert_allclose(restriction.embed(restriction.rho_prime), state.rho,
                                   rtol=0, atol=ROUNDING)


def test_no_kron_from_construction_through_the_report(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Kronecker product in the pipeline")

    monkeypatch.setattr(np, "kron", forbidden)
    rng = np.random.default_rng(8)
    lam = np.array([1.0, 2.0, 3.0, 4.0]) / np.sqrt(30.0)
    state = from_pure(np.einsum("ia,ja,a->ij", isometry(rng, 4, 4), isometry(rng, 5, 4),
                                lam).ravel(), 4, 5)
    pair, mb = complete(state)
    simplified_matrix(state, mb)
    restrict_to_relevant(state)
    assert distant_measurement_report(state, pair).passed


def pipeline_states():
    """The pipeline-lowrank inputs of perfbench/workloads.py, seeds 1-3."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [BipartiteState(d, d, rho) for seed in (1, 2, 3)
            for (_, d), rho, *_ in workloads.pipeline_inputs(seed)]


def user_pairs():
    """(state, pair) of example2_ms0 with (S_z, -S_z), whose detectable
    spectrum is nondegenerate, and with (S_z^2, S_z^2), whose value 1 is
    twofold."""
    state = build_scenario(SpinScenario("example2_ms0"))
    Sz = np.diag([1.0, 0.0, -1.0])
    return [(state, ObservablePair(Sz, -Sz)), (state, ObservablePair(Sz @ Sz, Sz @ Sz))]


def spectra_cases():
    """(state, SpectralData plus, SpectralData minus) from _pair_spectra on
    the twin-space basis pairs and on user pairs, and from the search's
    _block_data on the complete twins, over the four spin scenarios and
    the pipeline inputs."""
    states = [build_scenario(SpinScenario(name)) for name in SCENARIO_NAMES] + pipeline_states()
    cases = []
    for state in states:
        space = solve_twin_space(state)
        cases += [(state, *_pair_spectra(pair, state)) for pair in space.basis]
        found = find_complete_twins(space, state)
        if found is not None:  # the search leaves its _block_data spectra with the state
            cases.append((state, *_pair_spectra(found[0], state)))
    return cases + [(state, *_pair_spectra(pair, state)) for state, pair in user_pairs()]


class TestRangeProjectors:
    """The report applies the range-coordinate projectors of the detectable
    spectra without checking them: they are V V† of orthonormal
    eigenvectors, so they are Hermitian idempotents that sum to the
    identity on the range."""

    def test_range_projectors_are_a_resolution_of_the_identity(self):
        cases = spectra_cases()
        assert len(cases) > 100
        for state, *sides in cases:
            for data in sides:
                P = np.array(data.projectors)
                r = len(data.vectors)
                assert P.shape == (len(data.values), r, r)
                assert linops.max_norm(P - np.swapaxes(P, 1, 2).conj()) <= 1e-12
                assert linops.max_norm(P @ P - P) <= 1e-12
                assert linops.max_norm(P.sum(axis=0) - np.eye(r)) <= 1e-12

    def test_report_matches_the_lifted_projector_formula(self):
        states = [build_scenario(SpinScenario(name)) for name in SCENARIO_NAMES
                  if name != "example1_range10_1m1"] + pipeline_states()
        cases = [(state, complete(state)[0]) for state in states] + user_pairs()
        for state, pair in cases:
            rep = distant_measurement_report(state, pair)
            values, prob_plus, prob_minus, Y_plus, Y_minus = \
                reference.lifted_projector_outcomes(state, *_pair_spectra(pair, state))
            assert [o.value for o in rep.outcomes] == values.tolist()
            for o, pp, pm, yp, ym in zip(rep.outcomes, prob_plus, prob_minus, Y_plus, Y_minus):
                assert abs(o.probability_plus - pp) <= 1e-13
                assert abs(o.probability_minus - pm) <= 1e-13
                assert linops.max_norm(o.factor_plus - yp) <= 1e-13
                assert linops.max_norm(o.factor_minus - ym) <= 1e-13


class TestProjectorCheck:
    def test_single_projector_check_rejects_a_stack(self):
        """A stack given as one event is a dimension error."""
        with pytest.raises(DimensionMismatchError):
            _check_projector(np.zeros((2, 3, 3)))
