import numpy as np
from numpy import kron
import pytest

from twinobs import (
    BipartiteState,
    ObservablePair,
    PureDecomposition,
    apply_function,
    characteristic_projector_twins,
    commutation_check,
    detectable_spectra,
    find_complete_twins,
    from_pure,
    is_twin_pair,
    mix,
    scalar_pair,
    solve_twin_space,
    spectral_data,
    split_detectable,
    symmetric_polynomial,
)
from twinobs.errors import (
    DimensionMismatchError,
    NotReducibleError,
    NotSymmetricError,
    SpectraMismatchError,
)
from twinobs.linops import max_norm
from twinobs.states import restrict_to_relevant

import reference
from conftest import random_state

SZ_HALF = np.diag([0.5, -0.5]).astype(complex)
SZ_ONE = np.diag([1.0, 0.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
EX2_PAIR = ObservablePair(SZ_ONE - 0.5 * np.eye(3), -SZ_ONE + 0.5 * np.eye(3))


def test_spectral_data_partition():
    data = spectral_data(np.diag([1.0, 1.0, 2.0, -1.0]))
    np.testing.assert_allclose(data.values, [-1, 1, 2])
    assert list(data.multiplicities) == [1, 2, 1]
    total = sum(data.projectors)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-9)
    for P in data.projectors:
        assert max_norm(P @ P - P) <= 1e-9


class TestCommutationCheck:
    def test_example1_all_zero(self, example1):
        res = commutation_check(ObservablePair(SZ_HALF, -SZ_HALF), example1)
        assert max(res.values()) <= 1e-12

    def test_example2_ms1_diagonal(self, example2_ms1):
        res = commutation_check(EX2_PAIR, example2_ms1)
        assert max(res.values()) <= 1e-12

    def test_necessary_not_sufficient(self, example1):
        # (sigma_x, sigma_x) commutes with rho_pm = I/2 but is not a twin
        res = commutation_check(ObservablePair(SX, SX), example1)
        assert max(res.values()) <= 1e-12
        ok, _ = is_twin_pair(example1, ObservablePair(SX, SX))
        assert not ok


class TestSplitDetectable:
    def test_example2_ms1_detectable_parts(self, example2_ms1):
        split = split_detectable(EX2_PAIR, example2_ms1)
        # detectable parts are +-1/2 diag(1,-1) after aligning to the
        # eigenbasis of A' (descending)
        vp = np.sort(np.linalg.eigvalsh(split.a_prime_plus))[::-1]
        vm = np.sort(np.linalg.eigvalsh(split.a_prime_minus))[::-1]
        np.testing.assert_allclose(vp, [0.5, -0.5], atol=1e-10)
        np.testing.assert_allclose(vm, [0.5, -0.5], atol=1e-10)
        # undetectable blocks are 1-dimensional (m = -1 on both sides)
        assert split.a_dprime_plus.shape == (1, 1)
        assert split.a_dprime_minus.shape == (1, 1)
        # detectable pair is a twin of rho', undetectable pair annihilates rho
        det = split.detectable_lifted()
        ok, _ = is_twin_pair(example2_ms1, det)
        assert ok
        undet = split.undetectable_lifted()
        assert max_norm(kron(undet.a_plus, np.eye(3)) @ example2_ms1.rho) <= 1e-10
        assert max_norm(kron(np.eye(3), undet.a_minus) @ example2_ms1.rho) <= 1e-10

    def test_reassembly(self, example2_ms1):
        split = split_detectable(EX2_PAIR, example2_ms1)
        ap, am = split.reassemble()
        np.testing.assert_allclose(ap, EX2_PAIR.a_plus, atol=1e-10)
        np.testing.assert_allclose(am, EX2_PAIR.a_minus, atol=1e-10)

    def test_nonsingular_state_all_detectable(self):
        st = BipartiteState(2, 2, np.eye(4) / 4)
        split = split_detectable(ObservablePair(SZ_HALF, SZ_HALF), st)
        assert split.a_dprime_plus.shape == (0, 0)
        np.testing.assert_allclose(split.a_prime_plus, SZ_HALF, atol=1e-12)

    def test_purely_undetectable_pair(self, example2_ms1):
        pair = ObservablePair(SZ_ONE @ SZ_ONE - SZ_ONE, SZ_ONE @ SZ_ONE - SZ_ONE)
        split = split_detectable(pair, example2_ms1)
        assert max_norm(split.a_prime_plus) <= 1e-10
        assert max_norm(split.a_prime_minus) <= 1e-10

    def test_not_reducible(self, example2_ms1):
        # sigma_x-like coupling between range (m=1,0) and null (m=-1)
        bad = np.zeros((3, 3), dtype=complex)
        bad[0, 2] = bad[2, 0] = 1.0
        with pytest.raises(NotReducibleError):
            split_detectable(ObservablePair(bad, np.eye(3)), example2_ms1)


class TestDetectableSpectra:
    def test_example2_ms1(self, example2_ms1):
        split = split_detectable(EX2_PAIR, example2_ms1)
        sigma, mp, mm = detectable_spectra(split)
        np.testing.assert_allclose(sigma, [-0.5, 0.5], atol=1e-10)
        assert list(mp) == [1, 1] and list(mm) == [1, 1]

    def test_scalar_pair_multiplicities(self, example2_ms1):
        split = split_detectable(scalar_pair(3, 3), example2_ms1)
        sigma, mp, mm = detectable_spectra(split)
        np.testing.assert_allclose(sigma, [1.0], atol=1e-12)
        assert list(mp) == [2] and list(mm) == [2]

    def test_multiplicities_can_differ(self):
        # 2x3 mixture of products |0,0>, |0,1>, |1,2>: r_plus=2, r_minus=3
        vecs = []
        for i, j in [(0, 0), (0, 1), (1, 2)]:
            v = np.zeros(6, dtype=complex)
            v[i * 3 + j] = 1.0
            vecs.append(v)
        st = mix(PureDecomposition(weights=(1 / 3,) * 3, vectors=tuple(vecs)), 2, 3)
        split = split_detectable(scalar_pair(2, 3), st)
        sigma, mp, mm = detectable_spectra(split)
        np.testing.assert_allclose(sigma, [1.0], atol=1e-12)
        assert list(mp) == [2] and list(mm) == [3]

    def test_mismatch_raises(self, example2_ms1):
        split = split_detectable(EX2_PAIR, example2_ms1)
        # corrupt one side
        bad = split.__class__(
            a_prime_plus=split.a_prime_plus + np.eye(2),
            a_prime_minus=split.a_prime_minus,
            a_dprime_plus=split.a_dprime_plus,
            a_dprime_minus=split.a_dprime_minus,
            range_basis_plus=split.range_basis_plus,
            range_basis_minus=split.range_basis_minus,
            null_basis_plus=split.null_basis_plus,
            null_basis_minus=split.null_basis_minus,
        )
        with pytest.raises(SpectraMismatchError):
            detectable_spectra(bad)


class TestCharacteristicProjectors:
    def test_example1_sz_pair(self, example1):
        split = split_detectable(ObservablePair(SZ_HALF, -SZ_HALF), example1)
        entries = characteristic_projector_twins(split, example1)
        assert len(entries) == 2
        by_value = {round(a, 6): (Pp, Pm, r) for a, Pp, Pm, r in entries}
        Pp, Pm, residual = by_value[0.5]
        np.testing.assert_allclose(Pp, np.diag([1, 0]), atol=1e-10)
        np.testing.assert_allclose(Pm, np.diag([0, 1]), atol=1e-10)
        assert residual <= 1e-10

    def test_scalar_pair_gives_range_projectors(self, example2_ms1):
        split = split_detectable(scalar_pair(3, 3), example2_ms1)
        entries = characteristic_projector_twins(split, example2_ms1)
        assert len(entries) == 1
        _, Pp, Pm, residual = entries[0]
        np.testing.assert_allclose(Pp, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(Pm, np.eye(2), atol=1e-10)
        assert residual <= 1e-10

    def test_example2_ms0_squared_pair(self, example2_ms0):
        pair = ObservablePair(SZ_ONE @ SZ_ONE, SZ_ONE @ SZ_ONE)
        split = split_detectable(pair, example2_ms0)
        entries = characteristic_projector_twins(split, example2_ms0)
        by_value = {round(a, 6): (Pp, Pm, r) for a, Pp, Pm, r in entries}
        Pp, Pm, residual = by_value[1.0]
        assert residual <= 1e-10
        # projector onto m = +-1 (2-dimensional on each side)
        assert np.trace(Pp).real == pytest.approx(2.0, abs=1e-9)
        assert np.trace(Pm).real == pytest.approx(2.0, abs=1e-9)

    def test_reconstruction_and_probabilities(self, example2_ms1):
        split = split_detectable(EX2_PAIR, example2_ms1)
        entries = characteristic_projector_twins(split, example2_ms1)
        recon_p = sum(a * Pp for a, Pp, _, _ in entries)
        np.testing.assert_allclose(recon_p, split.a_prime_plus, atol=1e-9)
        rho_prime = restrict_to_relevant(example2_ms1).rho_prime
        data = spectral_data(EX2_PAIR.a_plus)
        rp = split.range_basis_plus.shape[1]
        for a, Pp, _, _ in entries:
            p_prime = np.trace(kron(Pp, np.eye(2)) @ rho_prime).real
            P_full = kron(reference.projector_at(data, a, 1e-8), np.eye(3))
            p_full = np.trace(P_full @ example2_ms1.rho).real
            assert abs(p_prime - p_full) <= 1e-10

    def test_split_of_swapped_dims_is_rejected(self):
        # the split of a 3 x 2 state on a 2 x 3 state: both act on a space of dimension 6
        split = split_detectable(ObservablePair(np.eye(3), np.eye(2)), from_pure(np.eye(6)[0], 3, 2))
        with pytest.raises(DimensionMismatchError):
            characteristic_projector_twins(split, from_pure(np.eye(6)[0], 2, 3))


class TestApplyFunction:
    def test_identity_function(self, example1):
        pair = ObservablePair(SZ_HALF, -SZ_HALF)
        out = apply_function(pair, lambda a: a)
        np.testing.assert_allclose(out.a_plus, pair.a_plus, atol=1e-10)
        np.testing.assert_allclose(out.a_minus, pair.a_minus, atol=1e-10)

    def test_square_on_example2_ms0(self, example2_ms0):
        pair = ObservablePair(SZ_ONE, -SZ_ONE)
        ok, _ = is_twin_pair(example2_ms0, pair)
        assert ok
        out = apply_function(pair, lambda a: a * a)
        np.testing.assert_allclose(out.a_plus, SZ_ONE @ SZ_ONE, atol=1e-10)
        np.testing.assert_allclose(out.a_minus, SZ_ONE @ SZ_ONE, atol=1e-10)
        ok, _ = is_twin_pair(example2_ms0, out)
        assert ok

    def test_indicator_gives_characteristic_projector(self, example1):
        pair = ObservablePair(SZ_HALF, -SZ_HALF)
        out = apply_function(pair, lambda a: 1.0 if abs(a - 0.5) < 1e-8 else 0.0)
        np.testing.assert_allclose(out.a_plus, np.diag([1, 0]), atol=1e-10)
        np.testing.assert_allclose(out.a_minus, np.diag([0, 1]), atol=1e-10)

    def test_random_polynomials_stay_twins(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            st = random_state(rng, 2, 3, rank=int(rng.integers(1, 4)))
            space = solve_twin_space(st)
            for pair in space.basis[:3]:
                c = rng.uniform(-1, 1, size=5)
                f = lambda a: sum(ck * a**k for k, ck in enumerate(c))
                out = apply_function(pair, f)
                ok, residual = is_twin_pair(st, out)
                assert ok, residual


class TestSymmetricPolynomial:
    def test_sum(self, example1):
        A = scalar_pair(2, 2)
        B = ObservablePair(SZ_HALF, -SZ_HALF)
        out = symmetric_polynomial([A, B], {(1, 0): 1.0, (0, 1): 1.0}, example1)
        np.testing.assert_allclose(out.a_plus, np.eye(2) + SZ_HALF, atol=1e-12)
        ok, _ = is_twin_pair(example1, out)
        assert ok

    def test_product(self, example1):
        A = scalar_pair(2, 2)
        B = ObservablePair(SZ_HALF, -SZ_HALF)
        out = symmetric_polynomial([A, B], {(1, 1): 1.0}, example1)
        np.testing.assert_allclose(out.a_plus, SZ_HALF, atol=1e-12)
        np.testing.assert_allclose(out.a_minus, -SZ_HALF, atol=1e-12)

    def test_square_matches_apply_function(self, example2_ms0):
        pair = ObservablePair(SZ_ONE, -SZ_ONE)
        out = symmetric_polynomial([pair], {(2,): 1.0}, example2_ms0)
        expected = apply_function(pair, lambda a: a * a)
        np.testing.assert_allclose(out.a_plus, expected.a_plus, atol=1e-10)
        np.testing.assert_allclose(out.a_minus, expected.a_minus, atol=1e-10)

    def test_rejects_asymmetric(self, example1):
        A = scalar_pair(2, 2)
        B = ObservablePair(SZ_HALF, -SZ_HALF)
        with pytest.raises(NotSymmetricError):
            symmetric_polynomial([A, B], {(2, 1): 1.0}, example1)

    @pytest.mark.parametrize("dims", [(3, 2), (2, 2)])
    def test_pair_with_wrong_dims_is_rejected(self, dims):
        # a 3 x 2 or 2 x 2 pair on a 2 x 3 state, after a pair that fits
        state = from_pure(np.eye(6)[0], 2, 3)
        pairs = [scalar_pair(2, 3), ObservablePair(np.eye(dims[0]), np.eye(dims[1]))]
        with pytest.raises(DimensionMismatchError):
            symmetric_polynomial(pairs, {(1, 0): 1.0, (0, 1): 1.0}, state)

    @pytest.mark.parametrize("exponent", [-1, 1.5])
    def test_exponent_that_is_not_a_nonnegative_integer_is_rejected(self, example1, exponent):
        # a negative power gave the identity pair, a fractional one a bare TypeError
        pair = ObservablePair(SZ_HALF, -SZ_HALF)
        with pytest.raises(ValueError, match="nonnegative integer"):
            symmetric_polynomial([pair], {(exponent,): 1.0}, example1)

    def test_anticommutator_identity(self):
        # (A+B+ + B+A+) rho = (B-A- + A-B-) rho for twin pairs A, B
        rng = np.random.default_rng(55)
        for _ in range(5):
            st = random_state(rng, 2, 3, rank=int(rng.integers(1, 4)))
            space = solve_twin_space(st)
            if len(space.basis) < 2:
                continue
            A, B = space.basis[0], space.basis[1]
            lhs = kron(A.a_plus @ B.a_plus + B.a_plus @ A.a_plus, np.eye(3)) @ st.rho
            rhs = kron(np.eye(2), B.a_minus @ A.a_minus + A.a_minus @ B.a_minus) @ st.rho
            assert max_norm(lhs - rhs) <= 1e-8


class TestFindCompleteTwins:
    def test_example1(self, example1):
        space = solve_twin_space(example1)
        found = find_complete_twins(space, example1, seed=0)
        assert found is not None
        pair, mb = found
        # detectable twin with nondegenerate spectrum; must be of the
        # alpha*1 + beta*s_z form, so eigenvectors are the s_z basis
        for B in (mb.basis_plus, mb.basis_minus):
            # columns are computational (s_z) basis vectors
            assert np.allclose(np.sort(np.abs(B).ravel()), [0, 0, 1, 1], atol=1e-9)
        # matched by value: |up>+ pairs with |down>- and vice versa
        up_col_p = int(np.argmax(np.abs(mb.basis_plus[0])))
        up_col_m = int(np.argmax(np.abs(mb.basis_minus[0])))
        assert up_col_p != up_col_m

    def test_example2_ms0_nondegenerate_three_values(self, example2_ms0):
        space = solve_twin_space(example2_ms0)
        found = find_complete_twins(space, example2_ms0, seed=0)
        assert found is not None
        _, mb = found
        assert len(mb.sigma_prime) == 3
        assert np.min(np.diff(np.sort(mb.sigma_prime))) > 1e-8

    def test_absent_for_scalar_only_state(self, example1_insufficient):
        space = solve_twin_space(example1_insufficient)
        assert find_complete_twins(space, example1_insufficient, seed=0) is None

    @pytest.mark.parametrize("name, complete", [("example1", True),
                                                ("example1_insufficient", False),
                                                ("example2_ms0", True),
                                                ("example2_ms1", True)])
    def test_spin_verdict_does_not_depend_on_the_seed(self, name, complete, request):
        state = request.getfixturevalue(name)
        space = solve_twin_space(state)
        assert {find_complete_twins(space, state, seed=s) is not None
                for s in range(10)} == {complete}

    @pytest.mark.parametrize("dims", [(2, 2), (2, 5), (3, 3), (4, 3), (5, 5)])
    def test_random_pure_states_are_found_under_every_seed(self, dims):
        state = random_state(np.random.default_rng(sum(dims)), *dims, rank=1)
        space = solve_twin_space(state)
        for seed in range(10):
            _, mb = find_complete_twins(space, state, seed=seed)
            assert len(mb.sigma_prime) == min(dims)

    def test_full_rank_state_is_none_under_every_seed(self):
        state = random_state(np.random.default_rng(14), 3, 3)
        space = solve_twin_space(state)
        assert all(find_complete_twins(space, state, seed=s) is None for s in range(10))

    def test_search_makes_no_eigvalsh_call(self, example2_ms1, example1_insufficient,
                                           monkeypatch):
        spaces = [(solve_twin_space(st), st) for st in (example2_ms1, example1_insufficient)]

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called during a search")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        assert [find_complete_twins(space, st) is None for space, st in spaces] == [False, True]

    def test_eigenvector_relation(self, example2_ms1):
        space = solve_twin_space(example2_ms1)
        pair, mb = find_complete_twins(space, example2_ms1, seed=0)
        for k, a in enumerate(mb.sigma_prime):
            res_p = pair.a_plus @ mb.basis_plus[:, k] - a * mb.basis_plus[:, k]
            res_m = pair.a_minus @ mb.basis_minus[:, k] - a * mb.basis_minus[:, k]
            assert np.linalg.norm(res_p) <= 1e-9
            assert np.linalg.norm(res_m) <= 1e-9

    def test_support_property(self, example2_ms1):
        # rho |m+>|m-> = 0 whenever the matched characteristic values differ
        space = solve_twin_space(example2_ms1)
        _, mb = find_complete_twins(space, example2_ms1, seed=0)
        r = len(mb.sigma_prime)
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                v = np.kron(mb.basis_plus[:, i], mb.basis_minus[:, j])
                assert np.linalg.norm(example2_ms1.rho @ v) <= 1e-8
