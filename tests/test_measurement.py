import numpy as np
from numpy import kron
import pytest
import scipy.linalg

from twinobs import (
    BipartiteState,
    EventPair,
    ObservablePair,
    certainty_test,
    Tolerances,
    distant_measurement_report,
    event_equivalence,
    from_pure,
    luders_collapse,
    solve_twin_space,
)
from twinobs import measurement
from twinobs.errors import DimensionMismatchError, NotProjectorError
from twinobs.linops import max_norm

import reference
from conftest import random_hermitian, random_state, traced_peak

SZ_HALF = np.diag([0.5, -0.5]).astype(complex)
SZ_ONE = np.diag([1.0, 0.0, -1.0]).astype(complex)


class TestLudersCollapse:
    def test_identity_projector(self, example1):
        p, post = luders_collapse(example1.rho, np.eye(4))
        assert p == pytest.approx(1.0)
        np.testing.assert_allclose(post, example1.rho)

    def test_example1_up_block(self, example1):
        P = kron(np.diag([1.0, 0.0]), np.eye(2))
        p, post = luders_collapse(example1.rho, P)
        assert p == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(post, expected, atol=1e-12)

    def test_orthogonal_projector_gives_none(self, example1):
        P = np.diag([1.0, 0, 0, 0])  # |up up> is outside the range
        p, post = luders_collapse(example1.rho, P)
        assert p <= 1e-12 and post is None

    def test_rejects_non_projector(self, example1):
        with pytest.raises(NotProjectorError):
            luders_collapse(example1.rho, 0.5 * np.eye(4))

    def test_post_state_is_valid(self):
        rng = np.random.default_rng(1)
        st = random_state(rng, 2, 2)
        P = kron(np.diag([1.0, 0.0]), np.eye(2))
        p, post = luders_collapse(st.rho, P)
        assert 0 < p <= 1
        assert np.trace(post).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(post)) >= -1e-12


@pytest.mark.parametrize("call, error", [
    (lambda st: luders_collapse(np.full((4, 4), np.nan), np.eye(4)), ValueError),
    (lambda st: luders_collapse(st.rho, np.eye(2)), DimensionMismatchError),
    (lambda st: luders_collapse(np.ones((4, 2)), np.eye(4)), DimensionMismatchError),
    (lambda st: certainty_test(st, np.eye(2)), DimensionMismatchError),
    (lambda st: event_equivalence(st, EventPair(np.eye(2), np.eye(2))), DimensionMismatchError),
    (lambda st: EventPair(np.eye(4), np.eye(2)), DimensionMismatchError),
], ids=["luders-nan-rho", "luders-small-P", "luders-non-square-rho", "certainty-small-A",
        "equivalence-small-events", "events-of-two-sizes"])
def test_malformed_operators_are_rejected(example1, call, error):
    with pytest.raises(error):
        call(example1)


class TestEventEquivalence:
    def test_commuting_is_computed_from_the_events(self, example1):
        # E = |up down><up down| and G = |up><up| ⊗ |+><+|: ||[E, G]|| = 0.5
        E = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        G = kron(np.diag([1.0, 0.0]), np.full((2, 2), 0.5))
        with pytest.raises(TypeError):
            EventPair(E, G, commuting=True)
        events = EventPair(E, G)
        assert events.commuting is False
        rep = event_equivalence(example1, events)
        assert rep.implication_values is None
        assert rep.coherent

    def test_equal_events(self, example1):
        P = kron(np.diag([1.0, 0.0]), np.eye(2))
        rep = event_equivalence(example1, EventPair(P, P))
        assert rep.collapse_residual == 0.0
        assert rep.algebraic_residual == 0.0
        assert rep.implication_values == (1.0, 1.0)
        assert rep.coherent

    def test_example1_twin_events_pass(self, example1):
        E = kron(np.diag([1.0, 0.0]), np.eye(2))
        F = kron(np.eye(2), np.diag([0.0, 1.0]))
        rep = event_equivalence(example1, EventPair(E, F))
        assert rep.collapse_verdict and rep.algebraic_verdict
        assert rep.implication_verdict
        assert rep.coherent

    def test_example1_mismatched_events_fail_coherently(self, example1):
        E = kron(np.diag([1.0, 0.0]), np.eye(2))
        F = kron(np.eye(2), np.diag([1.0, 0.0]))
        rep = event_equivalence(example1, EventPair(E, F))
        assert not rep.collapse_verdict and not rep.algebraic_verdict
        assert rep.implication_verdict is False
        assert rep.coherent

    def test_zero_probability_marks_criterion2_inapplicable(self, example1):
        E = np.diag([1.0, 0, 0, 0])
        F = np.diag([0, 0, 0, 1.0])
        rep = event_equivalence(example1, EventPair(E, F))
        assert rep.implication_values is None

    def test_criteria_coherence_random(self):
        # opposite-subsystem projectors always commute
        rng = np.random.default_rng(12)
        count_pass = 0
        for _ in range(200):
            dp, dm = 2, 2
            st = random_state(rng, dp, dm, rank=int(rng.integers(1, 5)))
            if rng.uniform() < 0.3:
                # planted equivalent pair from the range projectors
                p = reference.projectors(st)
                E = kron(p.R_plus, np.eye(dm))
                F = kron(np.eye(dp), p.R_minus)
            else:
                vp = scipy.linalg.eigh(random_hermitian(rng, dp))[1][:, :1]
                vm = scipy.linalg.eigh(random_hermitian(rng, dm))[1][:, :1]
                E = kron(vp @ vp.conj().T, np.eye(dm))
                F = kron(np.eye(dp), vm @ vm.conj().T)
            rep = event_equivalence(st, EventPair(E, F))
            assert rep.collapse_verdict == rep.algebraic_verdict
            assert rep.coherent
            count_pass += rep.algebraic_verdict
        assert count_pass > 0  # planted cases did fire


class TestCertaintyTest:
    def test_example1_total_sz_sharp_at_zero(self, example1):
        Sz = kron(SZ_HALF, np.eye(2)) + kron(np.eye(2), SZ_HALF)
        assert certainty_test(example1, Sz) == pytest.approx(0.0, abs=1e-10)

    def test_example2_ms1_sharp_at_one(self, example2_ms1):
        Sz = kron(SZ_ONE, np.eye(3)) + kron(np.eye(3), SZ_ONE)
        assert certainty_test(example2_ms1, Sz) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_no_sharp_value(self):
        st = BipartiteState(2, 2, np.eye(4) / 4)
        Sz = kron(SZ_HALF, np.eye(2)) + kron(np.eye(2), SZ_HALF)
        assert certainty_test(st, Sz) is None

    def test_biconditional_constructed_cases(self):
        # rho inside one characteristic subspace -> that value is sharp;
        # rho straddling two -> no sharp value
        rng = np.random.default_rng(2)
        for _ in range(25):
            A = random_hermitian(rng, 4)
            vals, vecs = np.linalg.eigh(A)
            idx = int(rng.integers(0, 4))
            v = vecs[:, idx]
            st = BipartiteState(2, 2, np.outer(v, v.conj()))
            a = certainty_test(st, A)
            assert a is not None
            assert a == pytest.approx(vals[idx], abs=1e-8)

            jdx = (idx + 1) % 4
            w = (vecs[:, idx] + vecs[:, jdx]) / np.sqrt(2)
            st2 = BipartiteState(2, 2, np.outer(w, w.conj()))
            assert certainty_test(st2, A) is None


class TestDistantMeasurement:
    def test_example1_outcomes(self, example1):
        rep = distant_measurement_report(example1, ObservablePair(SZ_HALF, -SZ_HALF))
        assert rep.passed
        values = sorted(o.value for o in rep.outcomes)
        np.testing.assert_allclose(values, [-0.5, 0.5], atol=1e-10)
        for o in rep.outcomes:
            assert o.probability_plus == pytest.approx(0.5, abs=1e-10)
            # collapse is onto |up down> or |down up>
            assert np.trace(o.post_state_plus @ o.post_state_plus).real == pytest.approx(
                1.0, abs=1e-9
            )
        assert sum(o.probability_plus for o in rep.outcomes) == pytest.approx(1.0, abs=1e-9)

    def test_scalar_pair_single_outcome(self, example1):
        from twinobs import scalar_pair

        rep = distant_measurement_report(example1, scalar_pair(2, 2))
        assert rep.passed
        assert len(rep.outcomes) == 1
        o = rep.outcomes[0]
        assert o.probability_plus == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(o.post_state_plus, example1.rho, atol=1e-10)

    def test_example2_ms1(self, example2_ms1):
        pair = ObservablePair(SZ_ONE - 0.5 * np.eye(3), -SZ_ONE + 0.5 * np.eye(3))
        rep = distant_measurement_report(example2_ms1, pair)
        assert rep.passed
        np.testing.assert_allclose(
            sorted(o.value for o in rep.outcomes), [-0.5, 0.5], atol=1e-10
        )
        assert abs(rep.expectation_plus - rep.expectation_minus) <= 1e-10

    def test_rejects_non_twin(self, example1):
        with pytest.raises(ValueError):
            distant_measurement_report(example1, ObservablePair(SZ_HALF, SZ_HALF))

    def test_non_twin_error_gives_the_residual_on_the_factor(self, example1):
        pair = ObservablePair(SZ_HALF, SZ_HALF)
        C = example1.factor
        residual = max_norm(reference.difference_operator(pair) @ C @ C.conj().T)
        with pytest.raises(ValueError, match=f"not a twin pair .*residual {residual:.3e}"):
            distant_measurement_report(example1, pair)

    def test_non_twin_error_carries_the_witness(self, example1):
        from twinobs import is_twin_pair
        from twinobs.errors import NotTwinPairError

        pair = ObservablePair(SZ_HALF, SZ_HALF)
        with pytest.raises(NotTwinPairError) as info:
            distant_measurement_report(example1, pair)
        assert info.value.residual == is_twin_pair(example1, pair)[1]

    def test_tolerance_is_the_named_constant(self, example1):
        rep = distant_measurement_report(example1, ObservablePair(SZ_HALF, -SZ_HALF))
        assert rep.tolerance == measurement._COLLAPSE_TOL == 1e-9

    def test_rejects_mismatched_dims(self, example1):
        with pytest.raises(DimensionMismatchError):
            distant_measurement_report(example1, ObservablePair(SZ_ONE, SZ_HALF))

    def test_accepts_a_pair_the_row_norm_bound_cannot_decide(self):
        """The guard forms Z C† when max ||Z_i|| max ||C_j|| exceeds
        residual_tol, and accepts the pair when the exact max-norm of
        Z C† is within it: here the scalar pair of a rank-2 state nudged
        by 1e-7 on the plus side."""
        rho = random_state(np.random.default_rng(53), 2, 2, rank=2).rho
        pair = ObservablePair(np.eye(2) + 1e-7 * random_hermitian(np.random.default_rng(153), 2),
                              np.eye(2))
        C = BipartiteState(2, 2, rho).factor
        Z = reference.difference_operator(pair) @ C
        exact = max_norm(Z @ C.conj().T)
        bound = np.linalg.norm(Z, axis=1).max() * np.linalg.norm(C, axis=1).max()
        assert exact < 0.9 * bound
        # cluster_tol above the nudge, so the spectra of the sides match
        between = BipartiteState(2, 2, rho, Tolerances(residual_tol=(exact + bound) / 2,
                                                       cluster_tol=1e-5))
        assert distant_measurement_report(between, pair).outcomes
        below = BipartiteState(2, 2, rho, Tolerances(residual_tol=exact * 0.99,
                                                     cluster_tol=1e-5))
        with pytest.raises(ValueError, match="not a twin pair"):
            distant_measurement_report(below, pair)

    def test_forms_no_d_by_d_array_per_outcome(self):
        """At D = 144 the report allocates one D x D complex buffer and its
        float moduli for the collapse gap, and no D x D product for the
        twin test: the pair is checked on the factor."""
        d = 12
        rng = np.random.default_rng(41)
        U, W = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                for _ in range(2))
        lam = np.arange(1, d + 1.0) / np.linalg.norm(np.arange(1, d + 1.0))
        st = from_pure(((U * lam) @ W.T).ravel(), d, d)
        x = np.repeat([0.0, 1.0], d // 2)
        pair = ObservablePair((U * x) @ U.conj().T, (W * x) @ W.conj().T)
        st.factor
        peak = traced_peak(lambda: distant_measurement_report(st, pair))
        assert peak <= 2 * 16 * (d * d) ** 2

    def test_decides_the_collapse_gap_without_a_d_by_d_array(self):
        """A pure d = 12 twin pair with 12 distinct values: every outcome's
        collapse gap is decided by the row-norm bound, so the report peaks
        below one D x D complex array at D = 144 (forming the gap per
        outcome takes a complex and a float D x D buffer, 1.5 of them)."""
        d = 12
        rng = np.random.default_rng(42)
        U, W = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                for _ in range(2))
        lam = np.arange(1, d + 1.0) / np.linalg.norm(np.arange(1, d + 1.0))
        st = from_pure(((U * lam) @ W.T).ravel(), d, d)
        x = np.arange(d, dtype=float)
        pair = ObservablePair((U * x) @ U.conj().T, (W * x) @ W.conj().T)
        rep = distant_measurement_report(st, pair)
        assert len(rep.outcomes) == d and rep.passed
        peak = traced_peak(lambda: distant_measurement_report(st, pair))
        assert peak <= 16 * (d * d) ** 2

    def test_keeps_one_copy_of_the_outcome_factors(self):
        """The pure d = 12 case with 12 distinct values: the outcome factors
        are normalised in place, so the unnormalised stacks are not held
        beside them and the report peaks below 0.7 of a D x D complex array
        (0.78 when both were kept)."""
        d = 12
        rng = np.random.default_rng(42)
        U, W = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                for _ in range(2))
        lam = np.arange(1, d + 1.0) / np.linalg.norm(np.arange(1, d + 1.0))
        st = from_pure(((U * lam) @ W.T).ravel(), d, d)
        x = np.arange(d, dtype=float)
        pair = ObservablePair((U * x) @ U.conj().T, (W * x) @ W.conj().T)
        assert len(distant_measurement_report(st, pair).outcomes) == d
        peak = traced_peak(lambda: distant_measurement_report(st, pair))
        assert peak <= 0.7 * 16 * (d * d) ** 2

    def test_holds_across_solved_spaces(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            st = random_state(rng, 2, 3, rank=int(rng.integers(1, 4)))
            for pair in solve_twin_space(st).basis:
                rep = distant_measurement_report(st, pair)
                assert rep.passed

    def test_conditional_states(self, example1):
        rep = distant_measurement_report(example1, ObservablePair(SZ_HALF, -SZ_HALF))
        for o in rep.outcomes:
            # conditional opposite-subsystem states are valid density matrices
            for cond in (o.conditional_minus, o.conditional_plus):
                assert np.trace(cond).real == pytest.approx(1.0, abs=1e-9)
                assert np.min(np.linalg.eigvalsh((cond + cond.conj().T) / 2)) >= -1e-9


# 1e-13 to 1e-6 by half-decades, around the report's tolerance 1e-9
EPSILONS = 10.0 ** np.arange(-13, -5.75, 0.5)
# (n outcomes, D, k) of stacked collapse factors
STACKS = [(1, 4, 1), (2, 9, 4), (4, 36, 2), (6, 64, 3), (12, 144, 1), (3, 144, 4)]
# rounding between two ways of forming Y+ Y+† - Y- Y-† of unit-norm factors
ROUNDING = 1e-15


def unit_stack(rng, n, D, k):
    """n random complex D x k matrices of unit Frobenius norm, stacked."""
    G = rng.standard_normal((n, D, k)) + 1j * rng.standard_normal((n, D, k))
    return G / np.linalg.norm(G, axis=(1, 2))[:, None, None]


def dense_gaps(Y_plus, Y_minus):
    """max|Y+ Y+† - Y- Y-†| of each outcome, from the two D x D products."""
    H = np.swapaxes(Y_plus, 1, 2).conj()
    G = np.swapaxes(Y_minus, 1, 2).conj()
    return np.abs(Y_plus @ H - Y_minus @ G).max(axis=(1, 2))


def row_bounds(Y_plus, Y_minus):
    """max_j ||(Y+ + Y-)_j|| max_j ||(Y+ - Y-)_j|| of each outcome."""
    return (np.linalg.norm(Y_plus + Y_minus, axis=2).max(axis=1)
            * np.linalg.norm(Y_plus - Y_minus, axis=2).max(axis=1))


class TestCollapseGapWitness:
    """measurement._max_collapse_gap against the dense max-norm: the
    witness is at least the dense value, decides as it does against the
    tolerance, and is the dense value for every outcome whose bound fails."""

    TOL = measurement._COLLAPSE_TOL

    def check(self, Y_plus, Y_minus):
        witness = measurement._max_collapse_gap(Y_plus, Y_minus)
        dense = dense_gaps(Y_plus, Y_minus)
        bounds = row_bounds(Y_plus, Y_minus)
        assert witness >= dense.max() - ROUNDING
        assert (witness <= self.TOL) == (dense.max() <= self.TOL)
        assert witness == pytest.approx(np.where(bounds <= self.TOL, bounds, dense).max(),
                                        rel=0, abs=ROUNDING)
        for i in np.flatnonzero(bounds > self.TOL):
            alone = measurement._max_collapse_gap(Y_plus[i:i + 1], Y_minus[i:i + 1])
            assert alone == pytest.approx(dense[i], rel=0, abs=ROUNDING)
        return bounds <= self.TOL, dense <= self.TOL

    @pytest.mark.parametrize("n, D, k", STACKS)
    def test_each_epsilon(self, n, D, k):
        rng = np.random.default_rng([n, D, k])
        decided, passed = [], []
        for eps in EPSILONS:
            Y_plus = unit_stack(rng, n, D, k)
            by_bound, by_dense = self.check(Y_plus, Y_plus + eps * unit_stack(rng, n, D, k))
            decided.append(by_bound.all())
            passed.append(by_dense.all())
        # the sweep runs from gaps the bound decides to gaps above the tolerance
        assert decided[0] and not passed[-1]

    @pytest.mark.parametrize("n, D, k", [s for s in STACKS if s[0] > 1])
    def test_mixed_stack(self, n, D, k):
        """One epsilon per outcome, the first two at the ends of the sweep."""
        rng = np.random.default_rng([n, D, k, 1])
        eps = rng.choice(EPSILONS, size=n)
        eps[:2] = EPSILONS[0], EPSILONS[-1]
        Y_plus = unit_stack(rng, n, D, k)
        by_bound, by_dense = self.check(
            Y_plus, Y_plus + eps[:, None, None] * unit_stack(rng, n, D, k))
        assert by_bound[0] and not by_dense[1]

    @pytest.mark.parametrize("n, D, k", STACKS)
    def test_gap_the_bound_cannot_decide(self, n, D, k):
        """An epsilon between the one where the bound reaches the tolerance
        and the one where the dense gap does: the witness is the dense gap,
        within the tolerance."""
        rng = np.random.default_rng([n, D, k, 2])
        Y_plus, G = unit_stack(rng, n, D, k), unit_stack(rng, n, D, k)
        scale = 1e-8
        per_eps = np.sqrt(row_bounds(Y_plus, Y_plus + scale * G).max()
                          * dense_gaps(Y_plus, Y_plus + scale * G).max()) / scale
        Y_minus = Y_plus + (self.TOL / per_eps) * G
        assert row_bounds(Y_plus, Y_minus).max() > self.TOL >= dense_gaps(Y_plus, Y_minus).max()
        by_bound, by_dense = self.check(Y_plus, Y_minus)
        assert not by_bound.all() and by_dense.all()

    def test_no_outcomes(self):
        empty = np.zeros((0, 4, 1), dtype=complex)
        assert measurement._max_collapse_gap(empty, empty) == 0.0


class TestThermalNoGo:
    @pytest.mark.parametrize("temperature", [0.5, 1.0, 4.0])
    def test_gibbs_state_has_trivial_twins(self, temperature):
        H = kron(SZ_HALF, np.eye(2)) + kron(np.eye(2), SZ_HALF)
        rho = scipy.linalg.expm(-H / temperature)
        rho /= np.trace(rho).real
        st = BipartiteState(2, 2, rho)
        assert solve_twin_space(st).dim_total == 1
