import numpy as np
import pytest

from twinobs import (
    ObservablePair,
    compatibility_report,
    find_complete_twins,
    from_pure,
    matched_bases_from_pair,
    mix,
    pure_schmidt,
    simplified_matrix,
    simultaneous_expansion,
    solve_twin_space,
)
from twinobs.errors import (
    DimensionMismatchError,
    NotPureError,
    OffDiagonalLeakError,
    SparsityViolationError,
)
from twinobs.spectral import MatchedBases
from twinobs.spin import SpinScenario, coupled_basis, scenario_decomposition
from twinobs.states import PureDecomposition

import reference

SZ_HALF = np.diag([0.5, -0.5]).astype(complex)
EX1_PAIR = ObservablePair(SZ_HALF, -SZ_HALF)


def complete_bases(state, seed=0):
    found = find_complete_twins(solve_twin_space(state), state, seed=seed)
    assert found is not None
    return found


class TestSimplifiedMatrix:
    def test_example1_equal_mixture(self, example1):
        mb = matched_bases_from_pair(EX1_PAIR, example1)
        M, report = simplified_matrix(example1, mb)
        np.testing.assert_allclose(M, np.eye(2) / 2, atol=1e-10)
        assert report.passed

    def test_pure_skewed_state(self):
        phi = np.zeros(4, dtype=complex)
        phi[1] = np.sqrt(0.8)  # |up down>
        phi[2] = np.sqrt(0.2)  # |down up>
        st = from_pure(phi, 2, 2)
        mb = matched_bases_from_pair(EX1_PAIR, st)
        M, _ = simplified_matrix(st, mb)
        expected = np.array([[0.8, np.sqrt(0.16)], [np.sqrt(0.16), 0.2]])
        # basis column order may differ; compare spectra and entry sets
        np.testing.assert_allclose(np.sort(np.abs(M).ravel()),
                                   np.sort(expected.ravel()), atol=1e-10)
        vals = np.linalg.eigvalsh(M)
        np.testing.assert_allclose(vals, [0.0, 1.0], atol=1e-10)

    def test_product_component_single_entry(self):
        st = from_pure(np.array([0, 1, 0, 0], dtype=complex), 2, 2)
        pair, mb = complete_bases(st)
        M, _ = simplified_matrix(st, mb)
        assert M.shape == (1, 1)
        assert M[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_sparsity_violation_flags_non_twin_bases(self, example1):
        # swap the minus-side matching: the |a>- columns no longer pair off with |a>+
        mb = matched_bases_from_pair(EX1_PAIR, example1)
        bad = MatchedBases(
            sigma_prime=mb.sigma_prime,
            basis_plus=mb.basis_plus,
            basis_minus=mb.basis_minus[:, ::-1],
        )
        with pytest.raises(SparsityViolationError):
            simplified_matrix(example1, bad)

    def test_psd_unit_trace(self, example2_ms1):
        _, mb = complete_bases(example2_ms1)
        M, _ = simplified_matrix(example2_ms1, mb)
        assert np.trace(M).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(M)) >= -1e-10


class TestPureSchmidt:
    def test_product_state(self):
        st = from_pure(np.array([0, 1, 0, 0], dtype=complex), 2, 2)
        pair, _ = complete_bases(st)
        coeffs, bp, bm = pure_schmidt(st, pair)
        np.testing.assert_allclose(coeffs, [1.0], atol=1e-10)

    def test_singlet(self):
        phi = np.array([0, 1, -1, 0]) / np.sqrt(2)
        st = from_pure(phi, 2, 2)
        pair, _ = complete_bases(st)
        coeffs, bp, bm = pure_schmidt(st, pair)
        np.testing.assert_allclose(np.sort(coeffs), [1, 1] / np.sqrt(2), atol=1e-10)

    def test_phase_absorbed_into_minus_basis(self):
        phi = np.zeros(4, dtype=complex)
        phi[1] = np.sqrt(0.8)
        phi[2] = np.sqrt(0.2) * np.exp(1j * np.pi / 3)
        st = from_pure(phi, 2, 2)
        coeffs, bp, bm = pure_schmidt(st, EX1_PAIR)
        np.testing.assert_allclose(np.sort(coeffs), np.sqrt([0.2, 0.8]), atol=1e-10)
        recon = sum(coeffs[a] * np.kron(bp[:, a], bm[:, a]) for a in range(2))
        assert np.linalg.norm(recon - phi) <= 1e-9

    def test_coefficients_square_to_subsystem_eigenvalues(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        st = from_pure(v, 2, 2)
        pair, _ = complete_bases(st)
        coeffs, _, _ = pure_schmidt(st, pair)
        sub = st.subsystems
        expected = np.linalg.eigvalsh(sub.rho_plus)
        np.testing.assert_allclose(np.sort(coeffs**2),
                                   np.sort(np.clip(expected, 0, None)), atol=1e-9)

    def test_rejects_mixed_state(self, example1):
        with pytest.raises(NotPureError):
            pure_schmidt(example1, EX1_PAIR)


class TestSimultaneousExpansion:
    def test_example1_decomposition(self, example1):
        dec, d1, d2 = scenario_decomposition(SpinScenario("example1_range10_00"))
        mb = matched_bases_from_pair(EX1_PAIR, example1)
        exp = simultaneous_expansion(dec, mb, example1)
        s = 1 / np.sqrt(2)
        # triplet-0 and singlet over {|up down>, |down up>}: magnitudes all 1/sqrt2
        np.testing.assert_allclose(np.abs(exp.alphas), [[s, s], [s, s]], atol=1e-10)
        # components are orthogonal, so the coefficient vectors are too
        assert abs(np.vdot(exp.alphas[0], exp.alphas[1])) <= 1e-10
        np.testing.assert_allclose(exp.subsystem_eigenvalues.sum(axis=1), [1, 1],
                                   atol=1e-10)

    def test_single_component_matches_pure_schmidt(self):
        phi = np.zeros(4, dtype=complex)
        phi[1] = np.sqrt(0.8)
        phi[2] = np.sqrt(0.2)
        st = from_pure(phi, 2, 2)
        mb = matched_bases_from_pair(EX1_PAIR, st)
        dec = PureDecomposition(weights=(1.0,), vectors=(phi,))
        exp = simultaneous_expansion(dec, mb, st)
        coeffs, _, _ = pure_schmidt(st, EX1_PAIR)
        np.testing.assert_allclose(np.sort(np.abs(exp.alphas[0])),
                                   np.sort(coeffs), atol=1e-10)

    def test_spectral_decomposition_also_diagonal(self, example1):
        vals, vecs = np.linalg.eigh(example1.rho)
        keep = vals > 1e-10
        w = vals[keep] / vals[keep].sum()
        dec = PureDecomposition(weights=tuple(w),
                                vectors=tuple(vecs[:, keep].T))
        mb = matched_bases_from_pair(EX1_PAIR, example1)
        exp = simultaneous_expansion(dec, mb, example1)
        assert exp.alphas.shape == (2, 2)

    def test_off_diagonal_leak(self, example1):
        # a component outside span{|a,a>} must be rejected
        bad = np.zeros(4, dtype=complex)
        bad[0] = 1.0  # |up up>
        dec = PureDecomposition(weights=(1.0,), vectors=(bad,))
        mb = matched_bases_from_pair(EX1_PAIR, example1)
        with pytest.raises(OffDiagonalLeakError):
            simultaneous_expansion(dec, mb, example1)

    def test_reconstructs_simplified_matrix(self, example1):
        dec, _, _ = scenario_decomposition(SpinScenario("example1_range10_00"))
        mb = matched_bases_from_pair(EX1_PAIR, example1)
        exp = simultaneous_expansion(dec, mb, example1)
        M, _ = simplified_matrix(example1, mb)
        recon = sum(
            w * np.outer(a, a.conj()) for w, a in zip(dec.weights, exp.alphas)
        )
        np.testing.assert_allclose(recon, M, atol=1e-9)


class TestCompatibilityReport:
    def test_example1_all_commute(self, example1):
        dec, _, _ = scenario_decomposition(SpinScenario("example1_range10_00"))
        mb = matched_bases_from_pair(EX1_PAIR, example1)
        report = compatibility_report(dec, mb, example1)
        assert max(report.values()) <= 1e-9

    def test_single_component(self):
        phi = np.zeros(4, dtype=complex)
        phi[1] = np.sqrt(0.8)
        phi[2] = np.sqrt(0.2)
        st = from_pure(phi, 2, 2)
        mb = matched_bases_from_pair(EX1_PAIR, st)
        dec = PureDecomposition(weights=(1.0,), vectors=(phi,))
        report = compatibility_report(dec, mb, st)
        assert max(report.values()) <= 1e-9

    def test_perturbed_basis_reports_nonzero(self):
        # skewed pure state: rho_plus = diag(0.8, 0.2), so a rotated
        # basis no longer commutes with it
        phi = np.zeros(4, dtype=complex)
        phi[1] = np.sqrt(0.8)
        phi[2] = np.sqrt(0.2)
        st = from_pure(phi, 2, 2)
        mb = matched_bases_from_pair(EX1_PAIR, st)
        theta = 0.3
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        bad = MatchedBases(
            sigma_prime=mb.sigma_prime,
            basis_plus=rot @ mb.basis_plus,
            basis_minus=mb.basis_minus,
        )
        dec = PureDecomposition(weights=(1.0,), vectors=(phi,))
        report = compatibility_report(dec, bad, st)
        assert max(report.values()) > 1e-3


@pytest.mark.parametrize("check", [simplified_matrix, compatibility_report, simultaneous_expansion])
def test_matched_bases_with_swapped_dims_are_rejected(check):
    # bases of a 3 x 2 state on a 2 x 3 state: both products have dimension 6
    state = from_pure(np.eye(6)[0], 2, 3)
    mb = MatchedBases(np.array([1.0]), np.eye(3)[:, :1], np.eye(2)[:, :1])
    dec = PureDecomposition(weights=(1.0,), vectors=(np.eye(6)[0],))
    with pytest.raises(DimensionMismatchError):
        check(state, mb) if check is simplified_matrix else check(dec, mb, state)


@pytest.mark.parametrize("check", [simplified_matrix, compatibility_report, simultaneous_expansion])
@pytest.mark.parametrize("cut", ["sigma_prime", "basis_minus"])
def test_matched_bases_with_mismatched_columns_are_rejected(check, cut):
    # one characteristic value for two columns a side, or two for the
    # one column left of basis_minus
    state = from_pure([0.6, 0, 0, 0.8], 2, 2)
    mb = find_complete_twins(solve_twin_space(state), state)[1]
    sigma, minus = ((mb.sigma_prime[:1], mb.basis_minus) if cut == "sigma_prime"
                    else (mb.sigma_prime, mb.basis_minus[:, 1:]))
    bad = MatchedBases(sigma, mb.basis_plus, minus)
    dec = PureDecomposition(weights=(1.0,), vectors=(np.array([0.6, 0, 0, 0.8]),))
    with pytest.raises(DimensionMismatchError, match="column counts"):
        check(state, bad) if check is simplified_matrix else check(dec, bad, state)


@pytest.mark.parametrize("check", [compatibility_report, simultaneous_expansion])
def test_component_of_wrong_length_is_rejected(check, example1):
    # a length-8 component on the 2 x 2 state would split into two 2 x 2 blocks
    dec = PureDecomposition(weights=(1.0,), vectors=(np.eye(8)[1],))
    mb = matched_bases_from_pair(EX1_PAIR, example1)
    with pytest.raises(DimensionMismatchError):
        check(dec, mb, example1)


def compatibility_cases():
    """(decomposition, matched bases, state): the scenarios with complete
    twins, random mixtures of diagonal components, and rotated bases."""
    cases = []
    for name in ("example1_range10_00", "example2_ms0", "example2_ms1"):
        dec, dp, dm = scenario_decomposition(SpinScenario(name))
        st = mix(dec, dp, dm)
        cases.append((dec, complete_bases(st)[1], st))
    rng = np.random.default_rng(1902)
    for dp, dm, r, n in [(2, 3, 2, 2), (4, 4, 3, 3), (5, 3, 3, 4), (6, 6, 4, 2)]:
        Up = np.linalg.qr(rng.standard_normal((dp, r)) + 1j * rng.standard_normal((dp, r)))[0]
        Um = np.linalg.qr(rng.standard_normal((dm, r)) + 1j * rng.standard_normal((dm, r)))[0]
        diag = (Up[:, None, :] * Um[None, :, :]).reshape(-1, r)
        alphas = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
        w = rng.uniform(0.2, 1.0, n)
        dec = PureDecomposition(weights=tuple(w / w.sum()), vectors=tuple((diag @ alphas.T).T))
        st = mix(dec, dp, dm)
        mb = MatchedBases(sigma_prime=tuple(np.arange(r, dtype=float)), basis_plus=Up,
                          basis_minus=Um)
        theta = rng.uniform(0.1, 0.5)
        rot = np.eye(dp, dtype=complex)
        rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        rotated = MatchedBases(sigma_prime=mb.sigma_prime, basis_plus=rot @ Up, basis_minus=Um)
        cases += [(dec, mb, st), (dec, rotated, st)]
    return cases


COMPATIBILITY_CASES = compatibility_cases()


class TestCompatibilityOracle:
    @pytest.mark.parametrize("index", range(len(COMPATIBILITY_CASES)))
    def test_matches_partial_traces_of_outer_products(self, index):
        dec, mb, st = COMPATIBILITY_CASES[index]
        report, dense = compatibility_report(dec, mb, st), reference.dense_compatibility_report(
            dec, mb, st)
        assert list(report) == list(dense)
        for key, value in dense.items():
            assert abs(report[key] - value) <= 1e-15, (key, report[key], value)


class TestMixingClosure:
    def test_mixing_diagonal_components_preserves_twins(self, example1):
        # mix states sharing the diagonal expansion: the complete pair stays a twin
        mb = matched_bases_from_pair(EX1_PAIR, example1)
        rng = np.random.default_rng(8)
        alphas = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
        diag = np.column_stack([
            np.kron(mb.basis_plus[:, a], mb.basis_minus[:, a]) for a in range(2)
        ])
        vecs = tuple(diag @ a for a in alphas)
        dec = PureDecomposition(weights=(0.5, 0.3, 0.2), vectors=vecs)
        mixed = mix(dec, 2, 2)
        from twinobs import is_twin_pair

        ok, residual = is_twin_pair(mixed, EX1_PAIR)
        assert ok, residual
