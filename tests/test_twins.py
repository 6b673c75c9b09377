import numpy as np
from numpy import kron
import pytest

from twinobs import (
    BipartiteState,
    ObservablePair,
    additive_twins,
    commutation_check,
    find_complete_twins,
    from_pure,
    is_twin_pair,
    scalar_pair,
    solve_twin_space,
    split_detectable,
    states_admitting_twins,
    twins_restrict_to_range_vectors,
)
from twinobs.errors import DimensionMismatchError
from twinobs.linops import hermitian_basis, max_norm, pair_to_coords
from twinobs.measurement import certainty_test
from twinobs.spin import SCENARIO_NAMES, SpinScenario, build_scenario, coupled_basis, spin_z
from twinobs.twins import _constraint_matrix, subspace_distance

import reference
from conftest import oracle_twin_coords, random_hermitian, random_state, traced_peak

SZ_HALF = np.diag([0.5, -0.5]).astype(complex)
SZ_ONE = np.diag([1.0, 0.0, -1.0]).astype(complex)


def analytic_span(pairs):
    """Orthonormalized coordinate matrix of a list of (a_plus, a_minus)."""
    M = np.column_stack([pair_to_coords(ap, am) for ap, am in pairs])
    q, _ = np.linalg.qr(M)
    return q


class TestIsTwinPair:
    def test_scalar_pair_exact(self, example1):
        ok, residual = is_twin_pair(example1, scalar_pair(2, 2))
        assert ok and residual == 0.0

    def test_sz_minus_sz_is_twin(self, example1):
        ok, residual = is_twin_pair(example1, ObservablePair(SZ_HALF, -SZ_HALF))
        assert ok and residual <= 1e-12

    def test_sz_plus_sz_is_not(self, example1):
        ok, residual = is_twin_pair(example1, ObservablePair(SZ_HALF, SZ_HALF))
        assert not ok
        assert residual == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self, example1):
        with pytest.raises(DimensionMismatchError):
            is_twin_pair(example1, ObservablePair(np.eye(3), np.eye(2)))

    def test_stack_operand_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ObservablePair(np.zeros((2, 3, 3)), np.eye(3))


@pytest.mark.parametrize("check", [states_admitting_twins, split_detectable, commutation_check])
def test_pair_with_swapped_dims_is_rejected(check):
    # a 3 x 2 pair on a 2 x 3 state: both act on a space of dimension 6
    state = from_pure(np.eye(6)[0], 2, 3)
    with pytest.raises(DimensionMismatchError):
        check(ObservablePair(np.eye(3), np.eye(2)), state)


@pytest.mark.parametrize("dims", [(3, 2), (2, 2), (3, 3)])
def test_additive_observable_with_wrong_dims_is_rejected(dims):
    # observables whose dims are not the 2 x 3 state's: swapped, or one side off
    state = from_pure(np.eye(6)[0], 2, 3)
    with pytest.raises(DimensionMismatchError):
        additive_twins(state, np.eye(dims[0]), np.eye(dims[1]))


@pytest.mark.parametrize("space_of, state_of", [("example1", "example2_ms0"),
                                                 ("example2_ms0", "example1")])
@pytest.mark.parametrize("check", [find_complete_twins,
                                   lambda space, state: twins_restrict_to_range_vectors(state, space)],
                         ids=["search", "consequences"])
def test_twin_space_of_other_dims_is_rejected(space_of, state_of, check, request):
    # the 2 x 2 space of example1_range10_00 on the 3 x 3 example2_ms0 and
    # back: each raised a bare numpy error, in a matmul or a reshape
    space = solve_twin_space(request.getfixturevalue(space_of))
    with pytest.raises(DimensionMismatchError, match="twin space dims"):
        check(space, request.getfixturevalue(state_of))


class TestSolveTwinSpace:
    def test_example1_dimension_and_span(self, example1):
        space = solve_twin_space(example1)
        assert space.dim_total == 2
        expected = analytic_span([
            (np.eye(2), np.eye(2)),
            (SZ_HALF, -SZ_HALF),
        ])
        assert subspace_distance(space.coordinate_matrix(), expected) <= 1e-8

    def test_nonsingular_only_scalars(self):
        st = BipartiteState(2, 2, np.eye(4) / 4)
        space = solve_twin_space(st)
        assert space.dim_total == 1
        pair = space.basis[0]
        # proportional to the scalar pair
        off = pair.a_plus - np.trace(pair.a_plus) / 2 * np.eye(2)
        assert np.max(np.abs(off)) <= 1e-10

    def test_example2_ms1_dimension_and_containment(self, example2_ms1):
        space = solve_twin_space(example2_ms1)
        assert space.dim_total == 4
        coords = space.coordinate_matrix()
        P = coords @ coords.T
        listed = [
            (np.eye(3), np.eye(3)),
            (SZ_ONE - 0.5 * np.eye(3), -SZ_ONE + 0.5 * np.eye(3)),
            (SZ_ONE @ SZ_ONE - SZ_ONE, SZ_ONE @ SZ_ONE - SZ_ONE),
        ]
        for ap, am in listed:
            x = pair_to_coords(ap, am)
            x /= np.linalg.norm(x)
            assert np.linalg.norm(P @ x - x) <= 1e-8

    def test_scalar_pair_always_contained(self):
        rng = np.random.default_rng(17)
        for dims in [(2, 2), (2, 3), (3, 3)]:
            st = random_state(rng, *dims, rank=int(rng.integers(1, dims[0] * dims[1])))
            space = solve_twin_space(st)
            coords = space.coordinate_matrix()
            x = scalar_pair(*dims).coords()
            x /= np.linalg.norm(x)
            assert np.linalg.norm(coords @ (coords.T @ x) - x) <= 1e-8

    def test_range_projector_pair_is_twin(self):
        rng = np.random.default_rng(23)
        for dims in [(2, 2), (2, 3), (3, 3)]:
            for _ in range(5):
                st = random_state(rng, *dims, rank=int(rng.integers(1, dims[0] * dims[1])))
                p = reference.projectors(st)
                ok, residual = is_twin_pair(st, ObservablePair(p.R_plus, p.R_minus))
                assert ok, residual

    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(31)
        for dims in [(2, 2), (2, 3), (3, 3)]:
            for _ in range(5):
                st = random_state(rng, *dims, rank=int(rng.integers(1, dims[0] * dims[1] + 1)))
                space = solve_twin_space(st)
                assert space.dim_total == (
                    space.dim_detectable
                    + space.dim_undetectable_plus
                    + space.dim_undetectable_minus
                )

    def test_singularity_not_sufficient(self, example1_insufficient):
        space = solve_twin_space(example1_insufficient)
        assert space.dim_detectable == 1

    def test_every_basis_pair_satisfies_residual(self, example2_ms1):
        space = solve_twin_space(example2_ms1)
        for pair in space.basis:
            ok, residual = is_twin_pair(example2_ms1, pair)
            assert ok, residual

    def test_basis_orthonormal(self, example2_ms1):
        coords = solve_twin_space(example2_ms1).coordinate_matrix()
        gram = coords.T @ coords
        np.testing.assert_allclose(gram, np.eye(coords.shape[1]), atol=1e-10)

    @pytest.mark.parametrize("dims, rank", [((2, 2), 1), ((2, 3), 1), ((3, 2), 2), ((2, 4), 3)])
    def test_coordinate_matrix_stacks_pair_coords(self, dims, rank):
        st = random_state(np.random.default_rng(sum(dims) + rank), *dims, rank=rank)
        space = solve_twin_space(st)
        coords = space.coordinate_matrix()
        ref = np.column_stack([pair_to_coords(p.a_plus, p.a_minus) for p in space.basis])
        assert coords.shape == (dims[0] ** 2 + dims[1] ** 2, space.dim_total)
        np.testing.assert_allclose(coords, ref, rtol=0, atol=1e-14)

    def test_scaling_closure(self, example1):
        rng = np.random.default_rng(5)
        space = solve_twin_space(example1)
        for pair in space.basis:
            alpha = float(rng.uniform(-3, 3))
            ok, _ = is_twin_pair(example1, pair.scaled(alpha))
            assert ok


def kron_loop_constraint_matrix(state, C):
    """One column per basis element: (G ⊗ 1) C, then -(1 ⊗ G) C."""
    dp, dm = state.d_plus, state.d_minus
    images = [kron(G, np.eye(dm)) @ C for G in hermitian_basis(dp)]
    images += [-kron(np.eye(dp), G) @ C for G in hermitian_basis(dm)]
    return np.column_stack(
        [np.concatenate([img.real.ravel(), img.imag.ravel()]) for img in images]
    )


class TestConstraintMatrix:
    @pytest.mark.parametrize("dims", [(1, 3), (2, 3), (3, 2), (4, 4)])
    @pytest.mark.parametrize("full_rank", [False, True])
    def test_matches_kron_loop(self, dims, full_rank):
        dp, dm = dims
        st = random_state(np.random.default_rng(dp * 10 + dm), dp, dm,
                          rank=dp * dm if full_rank else 1)
        C = st.range_basis()
        got = _constraint_matrix(st, C, hermitian_basis(dp), hermitian_basis(dm))
        ref = kron_loop_constraint_matrix(st, C)
        assert got.shape == ref.shape == (2 * dp * dm * C.shape[1], dp * dp + dm * dm)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)


class TestSubspaceDistance:
    def test_tiny_rotation_is_resolved(self):
        Q = np.linalg.qr(np.random.default_rng(4).standard_normal((8, 3)))[0]
        e = np.linalg.qr(np.column_stack([Q, np.eye(8)[:, :1]]))[0][:, 3]
        theta = 1e-10
        rotated = Q.copy()
        rotated[:, 0] = np.cos(theta) * Q[:, 0] + np.sin(theta) * e
        dist = subspace_distance(Q, rotated)
        assert dist == pytest.approx(np.sin(theta), rel=1e-3)

    def test_unequal_dimensions(self):
        I = np.eye(4)
        assert subspace_distance(I[:, :2], I[:, :3]) == 1.0


class TestOracleEquivalence:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_matches_brute_force(self, dims):
        rng = np.random.default_rng(hash(dims) % 2**32)
        dp, dm = dims
        for _ in range(5):
            rank = int(rng.integers(1, dp * dm + 1))
            st = random_state(rng, dp, dm, rank=rank)
            space = solve_twin_space(st)
            oracle = oracle_twin_coords(st)
            assert space.dim_total == oracle.shape[1]
            assert subspace_distance(space.coordinate_matrix(), oracle) <= 1e-8

    def test_example2_ms1_brute_force(self, example2_ms1):
        oracle = oracle_twin_coords(example2_ms1)
        assert oracle.shape[1] == 4


class TestAdditiveTwins:
    def test_example1_sz(self, example1):
        pair = additive_twins(example1, SZ_HALF, SZ_HALF)
        assert pair is not None
        np.testing.assert_allclose(pair.a_plus, SZ_HALF, atol=1e-10)
        np.testing.assert_allclose(pair.a_minus, -SZ_HALF, atol=1e-10)

    def test_example2_ms1_sz(self, example2_ms1):
        pair = additive_twins(example2_ms1, SZ_ONE, SZ_ONE)
        assert pair is not None
        np.testing.assert_allclose(pair.a_plus, SZ_ONE - 0.5 * np.eye(3), atol=1e-10)
        np.testing.assert_allclose(pair.a_minus, -SZ_ONE + 0.5 * np.eye(3), atol=1e-10)

    def test_maximally_mixed_has_no_sharp_value(self):
        st = BipartiteState(2, 2, np.eye(4) / 4)
        assert additive_twins(st, SZ_HALF, SZ_HALF) is None

    @staticmethod
    def cases():
        """(state, B_plus, B_minus): S_z, S_z^2 and (1, S_z) on each spin
        scenario, random Hermitian pairs, and additive observables made
        from solved twins, (A_plus, c - A_minus), on random low-rank states."""
        cases = []
        for name in SCENARIO_NAMES:
            st = build_scenario(SpinScenario(name))
            zp, zm = spin_z((st.d_plus - 1) / 2), spin_z((st.d_minus - 1) / 2)
            cases += [(st, zp, zm), (st, zp @ zp, zm @ zm), (st, np.eye(st.d_plus), zm)]
        rng = np.random.default_rng(1903)
        for dp, dm, rank in [(2, 2, 1), (2, 3, 2), (3, 3, 1), (3, 4, 3), (4, 4, 2)]:
            st = random_state(rng, dp, dm, rank=rank)
            cases += [(st, random_hermitian(rng, dp), random_hermitian(rng, dm))
                      for _ in range(3)]
            for pair in solve_twin_space(st).basis:
                c = rng.uniform(-1.0, 1.0)
                cases.append((st, pair.a_plus, c * np.eye(dm) - pair.a_minus))
        return cases

    def test_matches_certainty_test_on_the_dense_operator(self):
        """The sharp value of B = B_plus ⊗ 1 + 1 ⊗ B_minus by certainty_test
        on the D x D operator, the route additive_twins once took, gives the
        same verdict wherever the dense residual max|B rho - Tr(B rho) rho|
        lies outside [tol/2, 2 tol], and the same pair."""
        checked, verdicts = 0, set()
        for st, b_plus, b_minus in self.cases():
            B = kron(b_plus, np.eye(st.d_minus)) + kron(np.eye(st.d_plus), b_minus)
            dense = max_norm(B @ st.rho - np.trace(B @ st.rho).real * st.rho)
            tol = st.tol.residual_tol
            if tol / 2 <= dense <= 2 * tol:
                continue
            b, pair = certainty_test(st, B), additive_twins(st, b_plus, b_minus)
            assert (pair is None) == (b is None), dense
            if pair is not None:
                np.testing.assert_allclose(pair.a_plus, b_plus - b / 2 * np.eye(st.d_plus),
                                           atol=1e-12)
                np.testing.assert_allclose(pair.a_minus, b / 2 * np.eye(st.d_minus) - b_minus,
                                           atol=1e-12)
            checked += 1
            verdicts.add(pair is not None)
        assert checked >= 30 and verdicts == {True, False}


class TestRangeConsequences:
    def test_example1_report(self, example1):
        space = solve_twin_space(example1)
        report = twins_restrict_to_range_vectors(example1, space)
        assert report.passed

    def test_pure_state_has_more_twins(self, example1):
        # twins of rho are contained in the twins of |1,0> alone, strictly
        U, labels = coupled_basis(0.5, 0.5)
        triplet0 = U[:, labels.index((1.0, 0.0))]
        pure = from_pure(triplet0, 2, 2)
        space_rho = solve_twin_space(example1)
        space_pure = solve_twin_space(pure)
        assert space_pure.dim_total > space_rho.dim_total
        coords = space_pure.coordinate_matrix()
        P = coords @ coords.T
        for pair in space_rho.basis:
            x = pair.coords()
            assert np.linalg.norm(P @ x - x) <= 1e-8

    def test_same_range_same_twins(self):
        # two different-weight mixtures on the Example-1 range
        from twinobs.spin import SpinScenario, build_scenario
        a = build_scenario(SpinScenario("example1_range10_00", weights=(0.5, 0.5)))
        b = build_scenario(SpinScenario("example1_range10_00", weights=(0.9, 0.1)))
        sa = solve_twin_space(a)
        sb = solve_twin_space(b)
        assert sa.dim_total == sb.dim_total
        assert subspace_distance(sa.coordinate_matrix(), sb.coordinate_matrix()) <= 1e-8

    def test_rank_one_trivial(self):
        st = from_pure(np.array([0, 1, 0, 0], dtype=complex), 2, 2)
        report = twins_restrict_to_range_vectors(st, solve_twin_space(st))
        assert report.passed

    @pytest.mark.parametrize("name", ["example1_range10_00", "example1_range10_1m1",
                                      "example2_ms0", "example2_ms1"])
    def test_c1_equals_the_per_vector_residuals(self, name):
        from twinobs.spin import SpinScenario, build_scenario
        st = build_scenario(SpinScenario(name))
        space = solve_twin_space(st)
        ref = max(is_twin_pair(from_pure(v, st.d_plus, st.d_minus, st.tol), pair)[1]
                  for v in st.range_basis().T for pair in space.basis)
        report = twins_restrict_to_range_vectors(st, space)
        assert report.c1_max_residual == pytest.approx(ref, rel=0, abs=1e-15)
        assert report.passed


class TestStatesAdmittingTwins:
    def test_example1_admits_sz_pair(self, example1):
        assert states_admitting_twins(ObservablePair(SZ_HALF, -SZ_HALF), example1)

    def test_m1_state_does_not(self):
        # |1, M=1> = |up up>, S_z value 1 not 0
        st = from_pure(np.array([1, 0, 0, 0], dtype=complex), 2, 2)
        assert not states_admitting_twins(ObservablePair(SZ_HALF, -SZ_HALF), st)

    def test_scalar_pair_admitted_everywhere(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            st = random_state(rng, 2, 3, rank=int(rng.integers(1, 7)))
            assert states_admitting_twins(scalar_pair(2, 3), st)

    def test_agrees_with_is_twin_pair(self):
        rng = np.random.default_rng(78)
        for _ in range(10):
            st = random_state(rng, 2, 2, rank=int(rng.integers(1, 5)))
            space = solve_twin_space(st)
            for pair in space.basis:
                assert states_admitting_twins(pair, st)

    @pytest.mark.parametrize("eps, admitted", [(3e-8, False), (1e-8, True)])
    def test_column_norm_condition_decides_in_the_thin_band(self, eps, admitted):
        # uniform product vector on 4x4: every amplitude is 1/4, so for the
        # pair (eps E_00, 0) the column norm of D v is eps/2 while every
        # entry of D R is eps/16; at 3e-8 only the column norm exceeds tol
        st = from_pure(np.full(16, 0.25, dtype=complex), 4, 4)
        E00 = np.zeros((4, 4), dtype=complex)
        E00[0, 0] = eps
        pair = ObservablePair(E00, np.zeros((4, 4)))
        assert states_admitting_twins(pair, st) is admitted
        # is_twin_pair reads the max-norm of D rho only, and admits both
        assert is_twin_pair(st, pair)[0]


def dense_admits(pair, state) -> bool:
    """The C4 test with Z V† formed: every column norm of Z and the
    max-norm of Z V† within residual_tol, Z the image of the range basis V."""
    V = state.range_basis()
    Z = reference.difference_operator(pair) @ V
    tol = state.tol.residual_tol
    return bool(np.max(np.abs(Z @ V.conj().T)) <= tol
                and np.all(np.linalg.norm(Z, axis=0) <= tol))


class TestStatesAdmittingTwinsMatchesTheDenseTest:
    """The max-norm of Z V† is decided by its row-norm bound first, and
    Z V† is formed only when the bound fails: the verdict stays that of
    the dense formula."""

    def test_on_twins(self):
        rng = np.random.default_rng(79)
        for _ in range(6):
            st = random_state(rng, 2, 3, rank=int(rng.integers(1, 4)))
            for pair in solve_twin_space(st).basis:
                assert states_admitting_twins(pair, st) is dense_admits(pair, st) is True

    def test_on_non_twins(self):
        rng = np.random.default_rng(80)
        verdicts = set()
        for _ in range(6):
            st = random_state(rng, 2, 3, rank=int(rng.integers(1, 4)))
            for scale in (1.0, 1e-7, 1e-9):
                pair = ObservablePair(np.eye(2) + scale * random_hermitian(rng, 2), np.eye(3))
                verdicts.add(states_admitting_twins(pair, st))
                assert states_admitting_twins(pair, st) is dense_admits(pair, st)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("eps", [1e-9, 1e-8, 2e-8, 3e-8, 1e-7, 2e-7])
    def test_on_the_band_of_an_eps_e00_pair(self, eps):
        st = from_pure(np.full(16, 0.25, dtype=complex), 4, 4)
        E00 = np.zeros((4, 4), dtype=complex)
        E00[0, 0] = eps
        pair = ObservablePair(E00, np.zeros((4, 4)))
        assert states_admitting_twins(pair, st) is dense_admits(pair, st)


def block_state(rng):
    """0.6 and 0.4 times random states on the blocks (a < 2, c < 2) and
    (a >= 2, c >= 2) of 4 x 4, a and c the basis indices of the sides."""
    a, c = np.divmod(np.arange(16), 4)
    rho = np.zeros((16, 16), dtype=complex)
    for block, w in (((a < 2) & (c < 2), 0.6), ((a >= 2) & (c >= 2), 0.4)):
        idx = np.flatnonzero(block)
        rho[np.ix_(idx, idx)] = w * random_state(rng, 2, 2).rho
    return BipartiteState(4, 4, rho)


class TestIsTwinPairOnTheFactor:
    """is_twin_pair tests the twin relation on the factor C of rho, not on
    the D x D rho."""

    def test_verdict_is_that_of_the_dense_residual_on_rho(self):
        rng = np.random.default_rng(81)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        states = [random_state(rng, 2, 3), random_state(rng, 3, 3, rank=2),
                  from_pure(v / np.linalg.norm(v), 3, 4),
                  from_pure(np.full(16, 0.25, dtype=complex), 4, 4), block_state(rng)]
        checked, verdicts = 0, set()
        for st in states:
            dp, dm = st.d_plus, st.d_minus
            pairs = list(solve_twin_space(st).basis)
            pairs += [ObservablePair(np.eye(dp) + scale * random_hermitian(rng, dp), np.eye(dm))
                      for scale in (1.0, 1e-7, 1e-8, 1e-9, 1e-10)]
            for eps in (1e-9, 3e-8, 1e-6):
                E00 = np.zeros((dp, dp), dtype=complex)
                E00[0, 0] = eps
                pairs.append(ObservablePair(E00, np.zeros((dm, dm))))
            tol = st.tol.residual_tol
            for pair in pairs:
                dense = np.max(np.abs(reference.difference_operator(pair) @ st.rho))
                if tol / 2 <= dense <= 2 * tol:
                    continue
                verdict = is_twin_pair(st, pair)[0]
                assert verdict == (dense <= tol)
                checked += 1
                verdicts.add(bool(verdict))
        assert checked >= 60 and verdicts == {True, False}

    def test_a_pure_twin_pair_forms_no_dxd_array(self):
        d = 12
        st = from_pure(np.eye(d, dtype=complex).ravel() / np.sqrt(d), d, d)
        A = random_hermitian(np.random.default_rng(82), d)
        pair = ObservablePair(A, A.T)  # (A ⊗ 1) Φ = (1 ⊗ A^T) Φ for the maximally entangled Φ
        assert is_twin_pair(st, pair)[0]
        peak = traced_peak(lambda: is_twin_pair(st, pair))
        assert peak < 0.1 * 16 * (d * d) ** 2
