"""The product-structured kernels against the dense or looped code they
replaced, and the per-state cache of spectral geometry.

Each reference below is the earlier implementation, written out here so
that a drift of the fast path shows up as a mismatch."""

import math
import random

import numpy as np
import pytest

from twinobs import (
    BipartiteState,
    ObservablePair,
    characteristic_projector_twins,
    distant_measurement_report,
    find_complete_twins,
    from_pure,
    luders_collapse,
    matched_bases_from_pair,
    pure_schmidt,
    simplified_matrix,
    solve_twin_space,
    states_admitting_twins,
)
from twinobs import linops, spectral
from twinobs.errors import NotPositiveError, NotPureError, SparsityViolationError
from twinobs.linops import Tolerances
from twinobs.schmidt import _pure_vector
from twinobs.spectral import (
    MatchedBases,
    detectable_spectra,
    spectral_data,
    split_detectable,
)
from twinobs.states import restrict_to_relevant

import reference


def isometry(rng, n, m):
    Z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return np.linalg.qr(Z)[0]


def diagonal_support_state(rng, d_plus, d_minus, r, rank):
    """A rank-`rank` state on span{|u_a, v_a>, a < r} with random
    isometries u, v: complete twins exist and r_plus = r_minus = r."""
    U, V = isometry(rng, d_plus, r), isometry(rng, d_minus, r)
    D = np.einsum("ia,ja->ija", U, V).reshape(d_plus * d_minus, r)
    X = rng.standard_normal((r, rank)) + 1j * rng.standard_normal((r, rank))
    rho = D @ (X @ X.conj().T) @ D.conj().T
    return BipartiteState(d_plus, d_minus, rho / np.trace(rho).real)


def pure_schmidt_state(rng, d_plus, d_minus):
    """Pure state with distinct Schmidt coefficients."""
    r = min(d_plus, d_minus)
    lam = np.arange(1, r + 1) + 0.4 * rng.uniform(size=r)
    lam /= np.linalg.norm(lam)
    U, V = isometry(rng, d_plus, r), isometry(rng, d_minus, r)
    return from_pure(np.einsum("ia,ja,a->ij", U, V, lam).ravel(), d_plus, d_minus)


def complete(state):
    found = find_complete_twins(solve_twin_space(state), state)
    assert found is not None
    return found


# ------------------------------------------------------------ references

def ref_fix_phases(V):
    V = V.copy()
    for k in range(V.shape[1]):
        col = V[:, k]
        nz = np.flatnonzero(np.abs(col) >= 1e-6 * np.abs(col).max())
        if np.abs(col).max() > 0:
            pivot = col[nz[0]]
            V[:, k] = col * (np.conj(pivot) / abs(pivot))
    return V


def ref_cut(H, tol):
    vals, vecs = linops.eigh(H)
    lam_max = max(vals[-1], 0.0) if vals.size else 0.0
    cut = tol * lam_max if lam_max > 0 else tol
    return vals, vecs, cut


def ref_simplified_matrix(state, mb):
    r = len(mb.sigma_prime)
    vecs = [[np.kron(mb.basis_plus[:, a], mb.basis_minus[:, b]) for b in range(r)]
            for a in range(r)]
    max_forbidden = 0.0
    M = np.zeros((r, r), dtype=complex)
    for a in range(r):
        for c in range(r):
            lhs = vecs[a][c].conj() @ state.rho
            for b in range(r):
                for d in range(r):
                    val = lhs @ vecs[b][d]
                    if a == c and b == d:
                        M[a, b] = val
                    else:
                        max_forbidden = max(max_forbidden, abs(val))
    return M, max_forbidden


def ref_distant_measurement(state, pair):
    """Dense composite-space outcomes: (value, prob+, prob-, post+, post-,
    cond-, cond+) per detectable value, and the two expectations."""
    dp, dm = state.d_plus, state.d_minus
    Ip, Im = np.eye(dp), np.eye(dm)
    ctol = state.tol.cluster_tol
    sigma, _, _ = detectable_spectra(split_detectable(pair, state), ctol)
    data_plus = spectral_data(pair.a_plus, ctol)
    data_minus = spectral_data(pair.a_minus, ctol)
    outcomes = []
    for a in sigma:
        Pp = np.kron(reference.projector_at(data_plus, a, ctol), Im)
        Pm = np.kron(Ip, reference.projector_at(data_minus, a, ctol))
        prob_p, post_p = luders_collapse(state.rho, Pp, state.tol.rank_tol)
        prob_m, post_m = luders_collapse(state.rho, Pm, state.tol.rank_tol)
        if post_p is None or post_m is None:
            continue
        cond_minus = linops.partial_trace(state.rho @ Pp, dp, dm, "+") / prob_p
        cond_plus = linops.partial_trace(state.rho @ Pm, dp, dm, "-") / prob_m
        outcomes.append((float(a), prob_p, prob_m, post_p, post_m, cond_minus, cond_plus))
    exp_plus = np.trace(np.kron(pair.a_plus, Im) @ state.rho).real
    exp_minus = np.trace(np.kron(Ip, pair.a_minus) @ state.rho).real
    return outcomes, exp_plus, exp_minus


def ref_pure_schmidt(state, pair):
    vals, vecs = linops.eigh(state.rho)
    phi = vecs[:, -1]
    mb = matched_bases_from_pair(pair, state)
    vals_m, vecs_m = linops.eigh(state.subsystems.rho_minus)
    cut = state.tol.rank_tol * max(vals_m[-1], 0.0)
    inv_sqrt = np.zeros((state.d_minus, state.d_minus), dtype=complex)
    for i in range(len(vals_m)):
        if vals_m[i] > cut:
            inv_sqrt += vals_m[i] ** -0.5 * np.outer(vecs_m[:, i], vecs_m[:, i].conj())
    r = len(mb.sigma_prime)
    basis_minus = np.zeros_like(mb.basis_minus)
    coeffs = np.zeros(r)
    for a in range(r):
        w = inv_sqrt @ (phi.reshape(state.d_plus, state.d_minus).T @ mb.basis_plus[:, a].conj())
        basis_minus[:, a] = w / np.linalg.norm(w)
        c = np.kron(mb.basis_plus[:, a], basis_minus[:, a]).conj() @ phi
        coeffs[a] = max(float(c.real), 0.0)
    return coeffs, mb.basis_plus, basis_minus


def ref_find_complete_twins(space, state, seed=0):
    """The one seeded draw with Python loops: Box-Muller normals from the
    same random bytes, the Gaussian pair entry by entry, its projection
    as a Python sum of traces tr(B G), and a second split of the lifted
    candidate."""
    dp, dm = state.d_plus, state.d_minus
    n = dp * dp + dm * dm
    data = random.Random(seed).randbytes(16 * n)
    u = [((int.from_bytes(data[8 * i:8 * i + 8], "little") >> 11) + 1) * 2.0 ** -53
         for i in range(2 * n)]
    radius = [math.sqrt(-2 * math.log(u[i])) for i in range(n)]
    z = [complex(r * math.cos(2 * math.pi * t), r * math.sin(2 * math.pi * t))
         for r, t in zip(radius, u[n:])]

    def gaussian(z, d):
        """(X + X†)/2 for X = z[:d*d] read row-major."""
        G = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                G[i, j] = (z[i * d + j] + z[j * d + i].conjugate()) / 2
        return G

    g_plus, g_minus = gaussian(z[:dp * dp], dp), gaussian(z[dp * dp:], dm)
    c = [np.trace(p.a_plus @ g_plus).real + np.trace(p.a_minus @ g_minus).real
         for p in space.basis]
    ap = sum(ci * p.a_plus for ci, p in zip(c, space.basis))
    am = sum(ci * p.a_minus for ci, p in zip(c, space.basis))
    candidate = split_detectable(ObservablePair(ap, am), state).detectable_lifted()
    split = split_detectable(candidate, state)
    vals_p = np.linalg.eigvalsh(split.a_prime_plus)
    vals_m = np.linalg.eigvalsh(split.a_prime_minus)
    if len(vals_p) > 1 and np.min(np.diff(vals_p)) <= state.tol.cluster_tol:
        return None
    if len(vals_m) > 1 and np.min(np.diff(vals_m)) <= state.tol.cluster_tol:
        return None
    return candidate


def ref_characteristic_projector_twins(split, state):
    """Projectors as the Lagrange product over the common spectrum."""
    sigma, _, _ = detectable_spectra(split, state.tol.cluster_tol)
    rho_prime = restrict_to_relevant(state).rho_prime
    rp = split.a_prime_plus.shape[0]
    rm = split.a_prime_minus.shape[0]
    out = []
    for a in sigma:
        Pp = np.eye(rp, dtype=complex)
        Pm = np.eye(rm, dtype=complex)
        for b in sigma:
            if b != a:
                Pp = Pp @ (split.a_prime_plus - b * np.eye(rp)) / (a - b)
                Pm = Pm @ (split.a_prime_minus - b * np.eye(rm)) / (a - b)
        residual = np.max(np.abs(np.kron(Pp, np.eye(rm)) @ rho_prime
                                 - np.kron(np.eye(rp), Pm) @ rho_prime))
        out.append((float(a), Pp, Pm, residual))
    return out


def ref_states_admitting_twins(pair, state):
    """Dense D R test, then a loop over the eigenvectors kept by the cut."""
    D = reference.difference_operator(pair)
    R, _ = reference.range_null_projectors(state.rho, state.tol.rank_tol)
    if np.max(np.abs(D @ R)) > state.tol.residual_tol:
        return False
    vals, vecs = linops.eigh(state.rho)
    cut = state.tol.rank_tol * max(vals[-1], 0.0)
    for i in range(len(vals)):
        if vals[i] > cut and np.linalg.norm(D @ vecs[:, i]) > state.tol.residual_tol:
            return False
    return True


# ---------------------------------------------------------------- states

def kernel_states():
    rng = np.random.default_rng(2024)
    return [
        ("pure 3x3", pure_schmidt_state(rng, 3, 3)),
        ("pure 2x3", pure_schmidt_state(rng, 2, 3)),
        ("pure 4x3", pure_schmidt_state(rng, 4, 3)),
        ("rank-2 3x3", diagonal_support_state(rng, 3, 3, 3, 2)),
        ("rank-2 3x4", diagonal_support_state(rng, 3, 4, 3, 2)),
        ("rank-3 4x4 on r=3", diagonal_support_state(rng, 4, 4, 3, 3)),
    ]


SPIN = ["example1", "example2_ms0", "example2_ms1"]


class TestFixPhases:
    def test_bitwise_equal_to_column_loop(self):
        rng = np.random.default_rng(11)
        for trial in range(400):
            n, m = int(rng.integers(1, 13)), int(rng.integers(0, 13))
            V = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            V[rng.random((n, m)) < 0.3] = 0
            if m and trial % 3 == 0:
                V[:, rng.integers(m)] = 0
            if m and trial % 5 == 0:
                V[:, rng.integers(m)] = 1e-13 * (1 + 1j)
            if trial % 4 == 0:
                H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                V = np.linalg.eigh(H + H.conj().T)[1]
            expected = ref_fix_phases(V)
            got = linops._fix_phases(V)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("D", [25, 36, 64])
    def test_bitwise_equal_on_eigenvector_matrices_of_the_eigh_sizes(self, D):
        """Every column nonzero, as eigh gives them: the result is also the
        C-ordered copy the column loop makes."""
        rng = np.random.default_rng(D)
        for trial in range(6):
            H = rng.standard_normal((D, D))
            if trial % 2:
                H = H + 1j * rng.standard_normal((D, D))
            V = np.linalg.eigh(H + H.conj().T)[1].astype(complex)
            assert np.all(np.abs(V).max(axis=0) > 0)
            expected = ref_fix_phases(V)
            got = linops._fix_phases(V)
            assert got.flags.c_contiguous and got is not V
            assert got.tobytes() == expected.tobytes()

    def test_zero_columns_untouched(self):
        V = np.array([[0, 1j], [0, 0]], dtype=complex)
        got = linops._fix_phases(V)
        assert got.tobytes() == np.array([[0, 1], [0, 0]], dtype=complex).tobytes()

    def test_exact_two_way_modulus_tie_takes_the_first(self):
        """Two entries of modulus exactly 5 tie for the pivot; the first is
        taken also when rounding makes the second the larger."""
        out = []
        for scale in (1.0, 1 + 2.0 ** -52, 1 - 2.0 ** -53):
            V = np.array([[3 + 4j], [(4 - 3j) * scale], [1.0]])
            got = linops._fix_phases(V)
            np.testing.assert_allclose(got[0, 0], 5.0, rtol=0, atol=1e-14)
            out.append(got[:, 0])
        for col in out[1:]:
            np.testing.assert_allclose(col, out[0], rtol=0, atol=1e-14)

    def test_rounding_sized_leading_entries_do_not_move_the_pivot(self):
        """An eigenvector whose leading entry is zero up to a coupling of
        order 1e-12 keeps its phase when that entry crosses 1e-12: the
        pivot is an entry of the size of the largest one."""
        cols = []
        for coupling in (5e-13, 2e-12):
            H = np.diag([1.0, 2.0, 3.0]).astype(complex)
            H[0, 1] = coupling * np.exp(2j)
            H[1, 0] = np.conj(H[0, 1])
            cols.append(linops.eigh(H)[1][:, 1])
        assert max(abs(cols[0][0]), abs(cols[1][0])) < 1e-11
        np.testing.assert_allclose(cols[0], cols[1], rtol=0, atol=1e-11)


class TestRankCut:
    @pytest.mark.parametrize("case", range(6))
    def test_bases_and_projectors_identical_to_separate_cuts(self, case):
        rng = np.random.default_rng(case)
        d = 5
        r = [0, 1, 2, 5, 3, 4][case]
        V = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        H = V @ V.conj().T
        vals, vecs, cut = ref_cut(H, 1e-10)
        got_vals, B, N = linops.range_null_bases(H, 1e-10)
        assert np.array_equal(got_vals, vals)
        assert np.array_equal(B, vecs[:, vals > cut])
        assert np.array_equal(N, vecs[:, vals <= cut])
        assert np.array_equal(linops.range_basis(H), B)
        assert np.array_equal(reference.null_basis(H), N)
        R, Nproj = reference.range_null_projectors(H)
        assert np.array_equal(R, B @ B.conj().T)
        assert np.array_equal(Nproj, np.eye(d) - R)

    def test_projectors_reject_below_the_old_floor(self):
        # floor is tol * max(lambda_max, 1): -2e-10 fails, -5e-11 passes
        with pytest.raises(NotPositiveError):
            reference.range_null_projectors(np.diag([0.5, -2e-10]))
        reference.range_null_projectors(np.diag([0.5, -5e-11]))


class TestLocalProducts:
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 4), (1, 3)])
    def test_match_dense_kronecker_products(self, dims):
        dp, dm = dims
        D = dp * dm
        rng = np.random.default_rng(dp * 10 + dm)
        Z = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        Ap = rng.standard_normal((dp, dp)) + 1j * rng.standard_normal((dp, dp))
        Am = rng.standard_normal((dm, dm)) + 1j * rng.standard_normal((dm, dm))
        Ip, Im = np.eye(dp), np.eye(dm)
        cases = [
            (linops.apply_local(Ap, Z, dp, dm, "+"), np.kron(Ap, Im) @ Z),
            (linops.apply_local(Am, Z, dp, dm, "-"), np.kron(Ip, Am) @ Z),
            (linops.apply_local(Am, Z[:, :2], dp, dm, "-"), np.kron(Ip, Am) @ Z[:, :2]),
        ]
        for got, expected in cases:
            np.testing.assert_allclose(got, expected, atol=1e-13)


class TestNoKroneckerVerdict:
    def test_analyze_additive_twins_and_compatibility_form_no_kronecker_product(
            self, example2_ms0, tmp_path, monkeypatch, capsys):
        """Geometry, additive twins and the compatibility report decide on
        the range basis, the factor or the d x d reductions."""
        from twinobs import additive_twins, cli, compatibility_report, serialize
        from twinobs.spin import SpinScenario, scenario_decomposition, spin_z

        path = tmp_path / "state.json"
        path.write_text(serialize.dump_json(serialize.state_to_document(example2_ms0)))
        dec = scenario_decomposition(SpinScenario("example2_ms0"))[0]
        mb = find_complete_twins(solve_twin_space(example2_ms0), example2_ms0)[1]
        calls = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda A, B: calls.append("numpy") or kron(A, B))
        assert cli.main(["analyze", str(path)]) == 0
        assert additive_twins(example2_ms0, spin_z(1), spin_z(1)) is not None
        assert max(compatibility_report(dec, mb, example2_ms0).values()) <= 1e-9
        capsys.readouterr()
        assert calls == []


class TestSimplifiedMatrixKernel:
    @pytest.mark.parametrize("name", SPIN)
    def test_spin_states_match_loop(self, name, request):
        state = request.getfixturevalue(name)
        _, mb = complete(state)
        M, report = simplified_matrix(state, mb)
        M_ref, forbidden_ref = ref_simplified_matrix(state, mb)
        np.testing.assert_allclose(M, M_ref, rtol=0, atol=1e-14)
        assert abs(report.max_forbidden - forbidden_ref) <= 1e-14

    @pytest.mark.parametrize("index", range(6))
    def test_pure_and_low_rank_states_match_loop(self, index):
        _, state = kernel_states()[index]
        _, mb = complete(state)
        M, report = simplified_matrix(state, mb)
        M_ref, forbidden_ref = ref_simplified_matrix(state, mb)
        np.testing.assert_allclose(M, M_ref, rtol=0, atol=1e-14)
        assert abs(report.max_forbidden - forbidden_ref) <= 1e-14

    @pytest.mark.parametrize("index", [0, 3, 4])
    def test_rotated_basis_forbidden_norm_and_violation(self, index):
        _, state = kernel_states()[index]
        _, mb = complete(state)
        rng = np.random.default_rng(index)
        r = len(mb.sigma_prime)
        rotated = MatchedBases(
            sigma_prime=mb.sigma_prime,
            basis_plus=mb.basis_plus,
            basis_minus=mb.basis_minus @ isometry(rng, r, r),
        )
        M_ref, forbidden_ref = ref_simplified_matrix(state, rotated)
        assert forbidden_ref > state.tol.residual_tol
        with pytest.raises(SparsityViolationError):
            simplified_matrix(state, rotated)
        lenient = BipartiteState(state.d_plus, state.d_minus, state.rho,
                                 Tolerances(residual_tol=10.0))
        M, report = simplified_matrix(lenient, rotated)
        np.testing.assert_allclose(M, M_ref, rtol=0, atol=1e-14)
        assert abs(report.max_forbidden - forbidden_ref) <= 1e-14


    def test_every_forbidden_position_is_covered(self):
        # a product vector |a>|c> with a != c puts its whole weight on a
        # forbidden diagonal element; mixing in |0>|0> adds the forbidden
        # pair <0,0|rho|a,c>, <a,c|rho|0,0>
        rng = np.random.default_rng(9)
        r, t = 3, 0.01
        mb = MatchedBases(sigma_prime=np.arange(r, dtype=float),
                          basis_plus=isometry(rng, 3, r), basis_minus=isometry(rng, 4, r))
        lenient = Tolerances(residual_tol=10.0)
        for a in range(r):
            for c in range(r):
                if a == c:
                    continue
                ac = np.kron(mb.basis_plus[:, a], mb.basis_minus[:, c])
                oo = np.kron(mb.basis_plus[:, 0], mb.basis_minus[:, 0])
                for phi, expected in ((ac, 1.0), (np.sqrt(1 - t) * oo + np.sqrt(t) * ac,
                                                  np.sqrt(t * (1 - t)))):
                    state = from_pure(phi, 3, 4, lenient)
                    _, report = simplified_matrix(state, mb)
                    assert report.max_forbidden == pytest.approx(expected, abs=1e-14)
                    with pytest.raises(SparsityViolationError):
                        simplified_matrix(from_pure(phi, 3, 4), mb)


class TestDistantMeasurementKernel:
    def check_against_dense(self, state, pair):
        rep = distant_measurement_report(state, pair)
        outcomes, exp_plus, exp_minus = ref_distant_measurement(state, pair)
        assert len(rep.outcomes) == len(outcomes)
        for o, ref in zip(rep.outcomes, outcomes):
            got = (o.value, o.probability_plus, o.probability_minus, o.post_state_plus,
                   o.post_state_minus, o.conditional_minus, o.conditional_plus)
            for g, e in zip(got, ref):
                assert np.shape(g) == np.shape(e)
                np.testing.assert_allclose(g, e, rtol=0, atol=1e-13)
        assert rep.expectation_plus == pytest.approx(exp_plus, abs=1e-13)
        assert rep.expectation_minus == pytest.approx(exp_minus, abs=1e-13)
        return rep

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 4)])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_unequal_dimensions_match_dense_collapse(self, dims, rank):
        dp, dm = dims
        rng = np.random.default_rng(dp * 100 + dm * 10 + rank)
        r = min(dims)
        state = diagonal_support_state(rng, dp, dm, r, rank)
        pair, _ = complete(state)
        rep = self.check_against_dense(state, pair)
        assert rep.passed
        assert len(rep.outcomes) >= 1

    def test_undetectable_block_and_degenerate_projector(self):
        # the minus side carries an extra eigenvalue on the null space of
        # rho_minus, and the plus side a rank-2 characteristic projector
        rng = np.random.default_rng(5)
        U, V = isometry(rng, 3, 3), isometry(rng, 4, 4)
        D = np.einsum("ia,ja->ija", U[:, :2], V[:, :2]).reshape(12, 2)
        rho = D @ np.diag([0.3, 0.7]) @ D.conj().T
        state = BipartiteState(3, 4, rho)
        a_plus = U @ np.diag([1.0, -1.0, 1.0]) @ U.conj().T
        a_minus = V @ np.diag([1.0, -1.0, 7.0, 7.0]) @ V.conj().T
        rep = self.check_against_dense(state, ObservablePair(a_plus, a_minus))
        assert rep.passed
        assert sorted(round(o.value) for o in rep.outcomes) == [-1, 1]

    @pytest.mark.parametrize("name", SPIN)
    def test_spin_states_match_dense_collapse(self, name, request):
        state = request.getfixturevalue(name)
        pair, _ = complete(state)
        assert self.check_against_dense(state, pair).passed


class TestPureSchmidtKernel:
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_matches_looped_form(self, index):
        _, state = kernel_states()[index]
        pair, _ = complete(state)
        coeffs, bp, bm = pure_schmidt(state, pair)
        ref_coeffs, ref_bp, ref_bm = ref_pure_schmidt(state, pair)
        np.testing.assert_allclose(coeffs, ref_coeffs, rtol=0, atol=1e-13)
        np.testing.assert_allclose(bp, ref_bp, rtol=0, atol=1e-13)
        np.testing.assert_allclose(bm, ref_bm, rtol=0, atol=1e-12)


class TestCompleteTwinSearch:
    @pytest.mark.parametrize("index", range(6))
    def test_same_pair_as_two_split_search(self, index):
        _, state = kernel_states()[index]
        space = solve_twin_space(state)
        pair, _ = find_complete_twins(space, state)
        ref = ref_find_complete_twins(space, state)
        np.testing.assert_allclose(pair.a_plus, ref.a_plus, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair.a_minus, ref.a_minus, rtol=0, atol=1e-12)


class TestCharacteristicProjectorKernel:
    @pytest.mark.parametrize("index", range(6))
    def test_cluster_projectors_match_lagrange_product(self, index):
        _, state = kernel_states()[index]
        pair, _ = complete(state)
        self.check(split_detectable(pair, state), state)

    @pytest.mark.parametrize("name", SPIN)
    def test_spin_states(self, name, request):
        state = request.getfixturevalue(name)
        pair, _ = complete(state)
        self.check(split_detectable(pair, state), state)

    def check(self, split, state):
        got = characteristic_projector_twins(split, state)
        ref = ref_characteristic_projector_twins(split, state)
        assert len(got) == len(ref) >= 1
        for (a, Pp, Pm, res), (ra, rPp, rPm, rres) in zip(got, ref):
            assert a == ra
            np.testing.assert_allclose(Pp, rPp, rtol=0, atol=1e-10)
            np.testing.assert_allclose(Pm, rPm, rtol=0, atol=1e-10)
            assert res <= 1e-10 and rres <= 1e-10


class TestStatesAdmittingKernel:
    @pytest.mark.parametrize("index", range(6))
    def test_verdicts_match_eigenvector_loop(self, index):
        _, state = kernel_states()[index]
        rng = np.random.default_rng(40 + index)
        dp, dm = state.d_plus, state.d_minus
        for pair in solve_twin_space(state).basis[:4]:
            for eps in (0.0, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7):
                Hp = rng.standard_normal((dp, dp)) + 1j * rng.standard_normal((dp, dp))
                Hm = rng.standard_normal((dm, dm)) + 1j * rng.standard_normal((dm, dm))
                noisy = ObservablePair(pair.a_plus + eps * (Hp + Hp.conj().T),
                                       pair.a_minus + eps * (Hm + Hm.conj().T))
                assert states_admitting_twins(noisy, state) is \
                    ref_states_admitting_twins(noisy, state)

    def test_thin_band_of_the_uniform_product_state(self):
        state = from_pure(np.full(16, 0.25, dtype=complex), 4, 4)
        for eps in np.geomspace(1e-9, 1e-6, 31):
            E00 = np.zeros((4, 4), dtype=complex)
            E00[0, 0] = eps
            pair = ObservablePair(E00, np.zeros((4, 4)))
            assert states_admitting_twins(pair, state) is \
                ref_states_admitting_twins(pair, state)


def record_eigh_shapes(monkeypatch):
    """Shapes of the operators passed to linops.eigh and np.linalg.eigh."""
    shapes = []
    for module in (linops, np.linalg):
        eigh = module.eigh
        monkeypatch.setattr(module, "eigh", lambda H, *args, _eigh=eigh, **kwargs:
                            shapes.append(np.shape(H)) or _eigh(H, *args, **kwargs))
    return shapes


def on_factor_path(state) -> bool:
    """The rank cut of rho came from its pivoted Cholesky factor: the
    spectrum then holds only the kept Ritz values."""
    return len(state.spectrum[0]) < state.dim


def factor_path_bound(state) -> float:
    """Distance (spectral norm) the factor-path range projector may have
    from the one of a fresh eigh of rho, by Davis-Kahan: twice the
    residual bound cut_error plus D * eps * lambda_max of rounding in
    either decomposition, over the smallest kept eigenvalue."""
    vals = state.spectrum[0]
    kept = vals[len(vals) - state.range_basis().shape[1]:]
    return 2 * (state.cut_error + state.dim * np.finfo(float).eps * kept[-1]) / kept[0]


class TestStateGeometryFromCache:
    # kernel_states 0 and 2 (pure, D = 9 and 12) take the factor path,
    # the others (D // 8 below their rank) one eigh of rho
    @pytest.mark.parametrize("index", range(6))
    def test_projectors_bitwise_equal_to_fresh_cuts(self, index, monkeypatch):
        _, built = kernel_states()[index]
        shapes = record_eigh_shapes(monkeypatch)
        # construction takes the cut of rho
        state = BipartiteState(built.d_plus, built.d_minus, built.rho)
        p = reference.projectors(state)
        monkeypatch.undo()
        sub = state.subsystems
        tol = state.tol.rank_tol
        ref_R, ref_N = reference.range_null_projectors(state.rho, tol)
        assert on_factor_path(state) is (index in (0, 2))
        if on_factor_path(state):
            assert (state.dim, state.dim) not in shapes
            assert np.linalg.norm(p.R - ref_R, 2) <= factor_path_bound(state)
            assert np.linalg.norm(p.N - ref_N, 2) <= factor_path_bound(state)
        else:
            assert np.array_equal(p.R, ref_R) and np.array_equal(p.N, ref_N)
        for (R, N), H in (((p.R_plus, p.N_plus), sub.rho_plus),
                          ((p.R_minus, p.N_minus), sub.rho_minus)):
            ref_R, ref_N = reference.range_null_projectors(H, tol)
            assert np.array_equal(R, ref_R) and np.array_equal(N, ref_N)

    @pytest.mark.parametrize("index, factor_path", [(0, True), (1, False), (2, True)])
    def test_pure_vector_is_the_top_eigenvector(self, index, factor_path, monkeypatch):
        _, built = kernel_states()[index]
        shapes = record_eigh_shapes(monkeypatch)
        # construction takes the cut of rho
        state = BipartiteState(built.d_plus, built.d_minus, built.rho)
        phi = _pure_vector(state)
        monkeypatch.undo()
        ref = linops.eigh(state.rho)[1][:, -1]
        assert on_factor_path(state) is factor_path
        if factor_path:
            assert (state.dim, state.dim) not in shapes
            assert np.max(np.abs(phi - ref)) <= factor_path_bound(state)
        else:
            assert np.array_equal(phi, ref)

    @pytest.mark.parametrize("weight, pure", [(1e-12, True), (1e-9, False), (1e-6, False)])
    def test_purity_is_the_rank_cut(self, weight, pure):
        # a second eigenvalue above rank_tol * lambda_max makes rho mixed
        rho = np.diag([1.0 - weight, weight, 0.0, 0.0]).astype(complex)
        state = BipartiteState(2, 2, rho)
        assert (state.range_basis().shape[1] == 1) is pure
        if pure:
            np.testing.assert_allclose(np.abs(_pure_vector(state)), [1, 0, 0, 0], atol=1e-15)
        else:
            with pytest.raises(NotPureError):
                _pure_vector(state)


class TestGeometryCache:
    @pytest.mark.parametrize("kind, dims, expected", [
        ("pure", (4, 5), 2), ("block2", (4, 4), 2),   # factor path
        ("pure", (2, 3), 3), ("block2", (2, 3), 3),   # eigh path
    ])
    def test_eigh_calls_through_the_pipeline(self, kind, dims, expected, monkeypatch):
        # one eigh each of rho_plus and rho_minus and one of rho on the
        # eigh path only: the range eigenspaces of these reductions are
        # one-dimensional, so the search reads the spectra of the complete
        # twin's detectable blocks off their diagonals; the measurement
        # report and (pure inputs) the Schmidt form reuse those spectra
        calls = []
        eigh = linops.eigh

        def counting_eigh(H, *args, **kwargs):
            calls.append(np.shape(H))
            return eigh(H, *args, **kwargs)

        rng = np.random.default_rng(11)
        rho = (pure_schmidt_state(rng, *dims) if kind == "pure"
               else diagonal_support_state(rng, *dims, min(dims), 2)).rho
        monkeypatch.setattr(linops, "eigh", counting_eigh)
        # construction takes the cut of rho: one D x D eigh on the eigh
        # path, none on the factor path
        state = BipartiteState(*dims, rho)
        assert calls == ([(state.dim, state.dim)] if state.dim // 8 == 0 else [])
        pair, mb = find_complete_twins(solve_twin_space(state), state)
        simplified_matrix(state, mb)
        distant_measurement_report(state, pair)
        if kind == "pure":
            pure_schmidt(state, pair)
        assert len(calls) == expected
        assert ((state.dim, state.dim) in calls) is (state.dim // 8 == 0)

    def test_warm_cache_needs_no_decomposition(self, monkeypatch):
        state = pure_schmidt_state(np.random.default_rng(12), 3, 4)
        pair, _ = complete(state)

        def forbidden(*args, **kwargs):
            raise AssertionError("eigendecomposition after the cache is warm")

        for module, name in ((linops, "eigh"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, forbidden)
        reference.projectors(state)
        assert states_admitting_twins(pair, state)
        _pure_vector(state)

    @staticmethod
    def count_splits(monkeypatch):
        calls = []
        split = spectral.split_detectable
        monkeypatch.setattr(spectral, "split_detectable",
                            lambda *args: calls.append(1) or split(*args))
        return calls

    @pytest.mark.parametrize("index", range(6))
    def test_search_splits_once_per_attempt(self, index, monkeypatch):
        _, state = kernel_states()[index]
        space = solve_twin_space(state)
        calls = self.count_splits(monkeypatch)
        pair, mb = find_complete_twins(space, state)
        assert len(calls) == 1
        ref = matched_bases_from_pair(pair, state)
        np.testing.assert_allclose(mb.sigma_prime, ref.sigma_prime, rtol=0, atol=1e-14)
        np.testing.assert_allclose(mb.basis_plus, ref.basis_plus, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mb.basis_minus, ref.basis_minus, rtol=0, atol=1e-12)

    def test_failed_search_splits_once(self, monkeypatch):
        # a full-rank state has scalar twins only: the one draw is not complete
        rng = np.random.default_rng(13)
        X = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = X @ X.conj().T
        state = BipartiteState(3, 3, rho / np.trace(rho).real)
        space = solve_twin_space(state)
        calls = self.count_splits(monkeypatch)
        assert find_complete_twins(space, state) is None
        assert len(calls) == 1

    def test_one_eigh_per_operator_through_the_pipeline(self, monkeypatch):
        rng = np.random.default_rng(3)
        rho = diagonal_support_state(rng, 2, 3, 2, 2).rho
        T = rho.reshape(2, 3, 2, 3)
        operators = {
            "rho": rho,
            "rho_plus": np.trace(T, axis1=1, axis2=3),
            "rho_minus": np.trace(T, axis1=0, axis2=2),
        }
        counts = dict.fromkeys(operators, 0)
        eigh = linops.eigh

        def counting_eigh(H, *args, **kwargs):
            for name, op in operators.items():
                if np.shape(H) == op.shape and np.array_equal(H, op):
                    counts[name] += 1
            return eigh(H, *args, **kwargs)

        monkeypatch.setattr(linops, "eigh", counting_eigh)
        state = BipartiteState(2, 3, rho)
        space = solve_twin_space(state)
        pair, mb = find_complete_twins(space, state)
        simplified_matrix(state, mb)
        distant_measurement_report(state, pair)
        solve_twin_space(state)
        assert counts == {"rho": 1, "rho_plus": 1, "rho_minus": 1}

    def test_cached_arrays_are_read_only(self):
        state = diagonal_support_state(np.random.default_rng(4), 3, 2, 2, 1)
        sub = state.subsystems
        assert sub is state.subsystems
        arrays = list(vars(sub).values()) + list(state.spectrum)
        for a in arrays:
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            sub.range_plus[0, 0] = 1.0
        with pytest.raises(ValueError):
            state.range_basis()[0, 0] = 1.0

    def test_cache_matches_fresh_cuts(self):
        state = diagonal_support_state(np.random.default_rng(6), 3, 4, 2, 2)
        sub = state.subsystems
        for rho_s, vals, B, N in ((sub.rho_plus, sub.values_plus, sub.range_plus, sub.null_plus),
                                  (sub.rho_minus, sub.values_minus, sub.range_minus,
                                   sub.null_minus)):
            fresh = linops.range_null_bases(rho_s, state.tol.rank_tol)
            for cached, f in zip((vals, B, N), fresh):
                assert np.array_equal(cached, f)
        assert (sub.range_plus.shape[1], sub.range_minus.shape[1]) == (2, 2)
        assert (sub.null_plus.shape[1], sub.null_minus.shape[1]) == (1, 2)
