import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinobs import linops
from twinobs.errors import DimensionMismatchError, NonHermitianError, NotPositiveError
from twinobs.twins import _constraint_matrix, subspace_distance

import reference
from conftest import random_hermitian, random_state, traced_peak
from test_compressed_constraint import isometry

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestEigh:
    def test_identity(self):
        vals, vecs = linops.eigh(np.eye(2))
        np.testing.assert_allclose(vals, [1, 1])
        np.testing.assert_allclose(vecs, np.eye(2))

    def test_diagonal(self):
        vals, _ = linops.eigh(np.diag([-1.0, 3.0]))
        np.testing.assert_allclose(vals, [-1, 3])

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1
        vals, vecs = linops.eigh(PAULI_X)
        np.testing.assert_allclose(vals, [-1, 1], atol=1e-12)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(np.abs(vecs), [[s, s], [s, s]], atol=1e-12)
        # phase convention: first nonzero component real positive
        assert vecs[0, 0].real > 0 and vecs[0, 1].real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            linops.eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    @given(st.integers(0, 10**6), st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed, d):
        H = random_hermitian(np.random.default_rng(seed), d)
        vals, vecs = linops.eigh(H)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        assert linops.max_norm(recon - H) <= 1e-10 * d * max(1.0, linops.max_norm(H))
        assert linops.max_norm(vecs.conj().T @ vecs - np.eye(d)) <= 1e-10


# D = 144, the largest composite dimension of the benchmark's pipeline
# classes; a D x D complex array is 16 D^2 bytes
D_BIG = 144
DD_BYTES = 16 * D_BIG ** 2


class TestHermitize:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_equal_to_the_symmetrized_sum(self, order):
        rng = np.random.default_rng(31)
        M = random_hermitian(rng, 7) + 1e-10 * rng.standard_normal((7, 7))
        M = np.asarray(M, order=order)
        ref = (M + np.conj(M.T, order="C")) / 2
        assert linops.hermitize(M).tobytes() == ref.tobytes()

    def test_real_input_is_made_complex(self):
        H = linops.hermitize([[1.0, 2.0], [2.0, 3.0]])
        assert H.dtype == complex and H.flags.c_contiguous

    def test_input_is_not_written(self):
        M = random_hermitian(np.random.default_rng(32), 5)
        M.flags.writeable = False
        assert linops.hermitize(M) is not M

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_non_finite_entry_raises_value_error(self, value, where):
        M = np.eye(3, dtype=complex)
        M[where] = value
        with pytest.raises(ValueError, match="NaN or Inf"):
            linops.hermitize(M)

    def test_symmetric_infinities_raise_value_error(self):
        M = np.eye(3, dtype=complex)
        M[0, 1] = M[1, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            linops.hermitize(M)

    def test_finite_overflow_of_the_deviation_is_non_hermitian(self):
        M = np.eye(2, dtype=complex)
        M[0, 1], M[1, 0] = 1e308, -1e308
        with pytest.raises(NonHermitianError, match="inf"):
            linops.hermitize(M)

    def test_non_square_checks_finiteness_first(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            linops.hermitize(np.full((2, 3), np.nan))
        with pytest.raises(DimensionMismatchError, match="square"):
            linops.hermitize(np.ones((2, 3)))
        with pytest.raises(DimensionMismatchError, match="ndim"):
            linops.hermitize(np.ones(4))

    def test_empty_matrix(self):
        assert linops.hermitize(np.zeros((0, 0))).shape == (0, 0)

    def test_allocates_the_result_and_one_modulus_array(self):
        M = random_hermitian(np.random.default_rng(33), D_BIG)
        # result (16 D^2) and the moduli of M - M† (8 D^2)
        assert traced_peak(lambda: linops.hermitize(M)) <= 1.75 * DD_BYTES


class TestProductMaxNormWithin:
    def test_bound_decides_within_tolerance(self):
        Z = np.array([[1e-9, 0.0], [0.0, 2e-9]])
        F = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert linops.product_max_norm_within(Z, F, 1e-8) == (True, 2e-9)

    def test_exact_max_norm_when_the_bound_fails(self):
        # rows of Z orthogonal to rows of F: Z F† = 0, the bound is 1
        Z = np.array([[1.0, 0.0], [0.0, 0.0]])
        F = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert linops.product_max_norm_within(Z, F, 1e-8) == (True, 0.0)
        Z[1, 1] = 0.5
        assert linops.product_max_norm_within(Z, F, 1e-8) == (False, 0.5)

    def test_verdict_is_that_of_the_dense_max_norm(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            Z = rng.standard_normal((6, k)) + 1j * rng.standard_normal((6, k))
            F = rng.standard_normal((6, k)) + 1j * rng.standard_normal((6, k))
            dense = linops.max_norm(Z @ F.conj().T)
            tol = dense * rng.uniform(0.5, 1.5)
            ok, witness = linops.product_max_norm_within(Z, F, tol)
            assert ok is (dense <= tol)
            if not ok:
                assert witness == dense

    def test_empty_rows(self):
        assert linops.product_max_norm_within(np.zeros((0, 2)), np.zeros((0, 2)), 0.0)[0]


def test_low_rank_cut_forms_one_d_by_d_array():
    rng = np.random.default_rng(35)
    v = rng.standard_normal((D_BIG, 2)) + 1j * rng.standard_normal((D_BIG, 2))
    rho = linops.hermitize(v @ v.conj().T / np.linalg.norm(v) ** 2)
    assert linops.low_rank_cut(rho, 1e-10, D_BIG // 8) is not None
    # the residual rho - C C† in place of the product C C†
    assert traced_peak(lambda: linops.low_rank_cut(rho, 1e-10, D_BIG // 8)) <= 1.5 * DD_BYTES


class TestKernelBasis:
    def test_zero_matrix(self):
        K = linops.kernel_basis(np.zeros((2, 2)))
        assert K.shape == (2, 2)

    def test_identity_has_empty_kernel(self):
        assert linops.kernel_basis(np.eye(3)).shape == (3, 0)

    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    def test_zero_row_has_the_whole_space_as_kernel(self, tol):
        # s_max = 0: no singular value is above tol * s_max, whatever tol
        K = linops.kernel_basis(np.zeros((1, 4)), tol)
        assert K.shape == (4, 4)
        np.testing.assert_allclose(K.conj().T @ K, np.eye(4), rtol=0, atol=1e-15)

    def test_rank_one(self):
        K = linops.kernel_basis(np.ones((2, 2)))
        assert K.shape == (2, 1)
        expected = np.array([1, -1]) / np.sqrt(2)
        overlap = abs(np.vdot(expected, K[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_kernel_vectors_annihilated_and_complete(self, seed):
        rng = np.random.default_rng(seed)
        m, n, r = 5, 6, rng.integers(0, 4)
        M = (rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
             + 1j * rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
        K = linops.kernel_basis(M, tol=1e-10)
        smax = np.linalg.svd(M, compute_uv=False)[0] if M.size else 0.0
        for k in range(K.shape[1]):
            assert np.linalg.norm(M @ K[:, k]) <= 1e-9 * max(smax, 1.0)
        # row space basis + kernel basis forms a complete orthonormal set
        row_basis = np.linalg.svd(M)[2][: n - K.shape[1]].conj().T
        full = np.column_stack([row_basis, K])
        assert linops.max_norm(full.conj().T @ full - np.eye(n)) <= 1e-9

    def test_wide_real_matrix_keeps_all_null_directions(self):
        M = np.random.default_rng(3).standard_normal((2, 5))
        K = linops.kernel_basis(M)
        assert K.shape == (5, 3) and not np.iscomplexobj(K)
        assert linops.max_norm(M @ K) <= 1e-12

    def test_tall_real_constraint_system_matches_full_complex_svd(self):
        # the 2592 x 72 twin constraint system of a generic full-rank 6x6 state
        st = random_state(np.random.default_rng(36), 6, 6, rank=36)
        M = _constraint_matrix(st, st.range_basis(), linops.hermitian_basis(6),
                               linops.hermitian_basis(6))
        assert M.shape == (2 * 36 * 36, 72) and not np.iscomplexobj(M)
        K = linops.kernel_basis(M, tol=1e-10)
        assert not np.iscomplexobj(K)
        _, s, vh = np.linalg.svd(M.astype(complex), full_matrices=True)
        ref = vh[int(np.sum(s > 1e-10 * s[0])):].conj().T
        assert K.shape == ref.shape == (72, 1)
        # the reference kernel of a real matrix is real up to a phase
        ref = ref * (abs(ref[0, 0]) / ref[0, 0])
        assert linops.max_norm(ref.imag) <= 1e-10
        assert subspace_distance(K, ref.real) <= 1e-10


class TestLocalCompress:
    def test_identity(self):
        X = np.arange(24.0).reshape(6, 4) * (1 - 2j)
        out = linops.local_compress(X, np.eye(2), np.eye(3))
        np.testing.assert_array_equal(out, X.reshape(2, 3, 4))

    # (d_plus, d_minus, r_plus, r_minus, k): d_plus = 1, r_plus != r_minus, one column
    @pytest.mark.parametrize("shape", [(1, 3, 1, 2, 4), (4, 3, 3, 1, 2), (3, 5, 2, 4, 1)])
    def test_index_convention(self, shape):
        # row a * r_minus + c of the flattened result is <a,c| X
        dp, dm, rp, rm, k = shape
        rng = np.random.default_rng(sum(shape))
        Bp, Bm = isometry(rng, dp, rp), isometry(rng, dm, rm)
        X = rng.standard_normal((dp * dm, k)) + 1j * rng.standard_normal((dp * dm, k))
        out = linops.local_compress(X, Bp, Bm)
        assert out.shape == (rp, rm, k)
        np.testing.assert_allclose(out.reshape(rp * rm, k), np.kron(Bp, Bm).conj().T @ X,
                                   rtol=0, atol=1e-13)


class TestPartialTrace:
    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_partial_trace_adjointness(self, seed):
        rng = np.random.default_rng(seed)
        A = random_hermitian(rng, 2)
        M = random_hermitian(rng, 6)
        lhs = np.trace(np.kron(A, np.eye(3)) @ M)
        rhs = np.trace(A @ linops.partial_trace(M, 2, 3, "-"))
        assert abs(lhs - rhs) <= 1e-10

    def test_kron_then_trace_out(self):
        rng = np.random.default_rng(5)
        A = random_hermitian(rng, 2)
        B = random_hermitian(rng, 3)
        out = linops.partial_trace(np.kron(A, B), 2, 3, "-")
        np.testing.assert_allclose(out, A * np.trace(B), atol=1e-12)

    def test_product_state(self):
        # |up down>, composite index 0*2 + 1 = 1
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        np.testing.assert_allclose(
            linops.partial_trace(rho, 2, 2, "-"), np.diag([1.0, 0.0])
        )

    def test_singlet(self):
        phi = np.array([0, 1, -1, 0]) / np.sqrt(2)
        rho = np.outer(phi, phi)
        for side in "+-":
            np.testing.assert_allclose(
                linops.partial_trace(rho, 2, 2, side), np.eye(2) / 2, atol=1e-12
            )

    def test_example1_mixture(self):
        rho = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        np.testing.assert_allclose(
            linops.partial_trace(rho, 2, 2, "-"), np.eye(2) / 2
        )

    def test_trace_preserved(self):
        rng = np.random.default_rng(0)
        M = random_hermitian(rng, 6)
        out = linops.partial_trace(M, 2, 3, "+")
        assert abs(np.trace(out) - np.trace(M)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linops.partial_trace(np.eye(5), 2, 2, "-")


class TestRangeNullProjectors:
    def test_identity(self):
        R, N = reference.range_null_projectors(np.eye(3))
        np.testing.assert_allclose(R, np.eye(3))
        np.testing.assert_allclose(N, np.zeros((3, 3)))

    def test_exact_zeros(self):
        R, N = reference.range_null_projectors(np.diag([0.5, 0.5, 0.0, 0.0]))
        np.testing.assert_allclose(R, np.diag([1, 1, 0, 0]), atol=1e-12)

    def test_rank_one(self):
        v = np.array([1, 1]) / np.sqrt(2)
        P = np.outer(v, v)
        R, N = reference.range_null_projectors(P)
        np.testing.assert_allclose(R, P, atol=1e-12)
        w = np.array([1, -1]) / np.sqrt(2)
        np.testing.assert_allclose(N, np.outer(w, w), atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveError):
            reference.range_null_projectors(np.diag([1.0, -0.5]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_projector_identities_and_compression(self, seed):
        rng = np.random.default_rng(seed)
        d, r = 5, int(rng.integers(1, 5))
        V = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        H = V @ V.conj().T
        R, N = reference.range_null_projectors(H)
        assert linops.max_norm(R + N - np.eye(d)) <= 1e-10
        assert linops.max_norm(R @ R - R) <= 1e-10
        assert linops.max_norm(N @ N - N) <= 1e-10
        assert linops.max_norm(R @ N) <= 1e-10
        assert linops.max_norm(H - R @ H @ R) <= 1e-10 * linops.max_norm(H)


class TestRangeNullBases:
    @pytest.mark.parametrize("H", [np.zeros((3, 3)), -np.eye(1)], ids=["zero", "minus_one"])
    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    def test_nonpositive_operator_has_empty_range(self, H, tol):
        # lambda_max <= 0: the cut keeps no eigenvalue, whatever tol
        vals, B, N = linops.range_null_bases(H, tol)
        np.testing.assert_array_equal(vals, np.linalg.eigvalsh(H))
        assert B.shape == (len(H), 0) and N.shape == (len(H), len(H))


class TestHermitianBasis:
    def test_d1(self):
        basis = linops.hermitian_basis(1)
        assert len(basis) == 1
        np.testing.assert_allclose(basis[0], [[1.0]])

    def test_stacked_order(self):
        s = 1 / np.sqrt(2)
        basis = linops.hermitian_basis(3)
        assert basis.shape == (9, 3, 3)
        expected = [((0, 0), 1), ((1, 1), 1), ((2, 2), 1),
                    ((0, 1), s), ((0, 1), -1j * s), ((0, 2), s), ((0, 2), -1j * s),
                    ((1, 2), s), ((1, 2), -1j * s)]
        for G, ((i, j), v) in zip(basis, expected):
            E = np.zeros((3, 3), dtype=complex)
            E[i, j] = v
            E[j, i] = np.conj(v)
            np.testing.assert_array_equal(G, E)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_count_and_orthonormality(self, d):
        basis = linops.hermitian_basis(d)
        assert len(basis) == d * d
        for i, A in enumerate(basis):
            assert linops.max_norm(A - A.conj().T) <= 1e-15
            for j, B in enumerate(basis):
                ip = np.trace(A.conj().T @ B).real
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_spans_hermitian_space(self):
        rng = np.random.default_rng(7)
        H = random_hermitian(rng, 3)
        basis = linops.hermitian_basis(3)
        recon = sum(np.trace(G.conj().T @ H).real * G for G in basis)
        np.testing.assert_allclose(recon, H, atol=1e-12)

    def test_coords_round_trip(self):
        rng = np.random.default_rng(11)
        ap = random_hermitian(rng, 2)
        am = random_hermitian(rng, 3)
        x = linops.pair_to_coords(ap, am)
        bp, bm = reference.coords_to_pair(x, 2, 3)
        np.testing.assert_allclose(bp, ap, atol=1e-12)
        np.testing.assert_allclose(bm, am, atol=1e-12)

    def test_stacked_coords_round_trip(self):
        rng = np.random.default_rng(12)
        pairs = [(random_hermitian(rng, 2), random_hermitian(rng, 3)) for _ in range(4)]
        X = np.column_stack([linops.pair_to_coords(ap, am) for ap, am in pairs])
        bp, bm = reference.coords_to_pair(X, 2, 3)
        assert bp.shape == (4, 2, 2) and bm.shape == (4, 3, 3)
        np.testing.assert_allclose(bp, [ap for ap, _ in pairs], atol=1e-12)
        np.testing.assert_allclose(bm, [am for _, am in pairs], atol=1e-12)


def _stores_only_records() -> list:
    """The records whose only constructor is Record.__init__."""
    from twinobs import measurement, schmidt, spectral, states, twins
    return [measurement.CriteriaReport, measurement.MeasurementOutcome,
            measurement.DistantMeasurementReport, schmidt.SparsityReport,
            schmidt.GeneralizedSchmidtExpansion, spectral.SpectralData,
            spectral.DetectableSplit, spectral.MatchedBases, states.SubsystemPair,
            states.GeometryReport, states.RelevantRestriction,
            twins.TwinSpace, twins.ConsequenceReport]


class TestRecordConstructor:
    @pytest.mark.parametrize("cls", _stores_only_records(), ids=lambda c: c.__name__)
    def test_positional_keyword_and_mixed_fill_the_fields_in_order(self, cls):
        assert "__init__" not in vars(cls)
        values = [object() for _ in cls.FIELDS]
        expected = dict(zip(cls.FIELDS, values))
        half = len(values) // 2
        # names given in reverse: the dict still follows FIELDS
        by_name = dict(reversed(expected.items()))
        rest = dict(reversed(list(expected.items())[half:]))
        records = [cls(*values), cls(**by_name), cls(*values[:half], **rest)]
        for record in records:
            assert vars(record) == expected
            assert list(vars(record)) == list(cls.FIELDS)

    @pytest.mark.parametrize("cls", _stores_only_records(), ids=lambda c: c.__name__)
    @pytest.mark.parametrize("case", ["too many", "too few", "unknown name",
                                      "missing name", "name twice"])
    def test_bad_arguments_raise_type_error_naming_the_class(self, cls, case):
        values = list(range(len(cls.FIELDS)))
        by_name = dict(zip(cls.FIELDS, values))
        first = cls.FIELDS[0]
        args, kwargs = {
            "too many": (values + [0], {}),
            "too few": (values[:-1], {}),
            "unknown name": ([], {**by_name, "no_such_field": 0}),
            "missing name": ([], {k: v for k, v in by_name.items() if k != first}),
            "name twice": (values, {first: 0}),
        }[case]
        with pytest.raises(TypeError, match=rf"^{cls.__name__} takes the fields \("):
            cls(*args, **kwargs)

    def test_type_error_lists_the_fields_and_what_was_given(self):
        from twinobs.schmidt import SparsityReport
        with pytest.raises(TypeError, match=re.escape(
                "SparsityReport takes the fields ('max_forbidden', 'tolerance'), "
                "got 1 by position and ['max_forbidden'] by name")):
            SparsityReport(0.0, max_forbidden=1.0)

    def test_fields_are_read_only(self):
        from twinobs.schmidt import SparsityReport
        report = SparsityReport(0.0, 1e-8)
        with pytest.raises(AttributeError, match="SparsityReport is read-only"):
            report.tolerance = 1.0

    def test_value_records_keep_equality_hash_and_repr(self):
        from twinobs.measurement import CriteriaReport
        from twinobs.spin import SpinScenario
        tol = linops.Tolerances(rank_tol=1e-6)
        assert tol == linops.Tolerances(1e-6, 1e-8, 1e-8, 1e-8) != linops.DEFAULT_TOL
        assert hash(tol) == hash(linops.Tolerances(1e-6))
        assert repr(tol) == ("Tolerances(rank_tol=1e-06, residual_tol=1e-08, "
                             "cluster_tol=1e-08, herm_tol=1e-08)")
        spin = SpinScenario("example1_range10_00", [0.25, 0.75])
        assert spin == SpinScenario(weights=(0.25, 0.75), name="example1_range10_00")
        assert hash(spin) == hash(SpinScenario("example1_range10_00", (0.25, 0.75)))
        assert repr(spin) == "SpinScenario(name='example1_range10_00', weights=(0.25, 0.75))"
        report = CriteriaReport(0.0, 1.0, None, 1e-8)
        same = CriteriaReport(tolerance=1e-8, implication_values=None,
                              algebraic_residual=1.0, collapse_residual=0.0)
        assert report == same and hash(report) == hash(same)
        assert report != CriteriaReport(0.0, 1.0, (1.0, 1.0), 1e-8)
        assert repr(same) == ("CriteriaReport(collapse_residual=0.0, algebraic_residual=1.0, "
                              "implication_values=None, tolerance=1e-08)")
