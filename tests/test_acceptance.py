"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Each criterion runs at its stated tolerance; the verdict lines are
echoed in the terminal summary (see conftest.pytest_terminal_summary).
"""

from contextlib import contextmanager

import numpy as np
from numpy import kron
import scipy.linalg
import pytest

from twinobs import (
    BipartiteState,
    EventPair,
    ObservablePair,
    certainty_test,
    distant_measurement_report,
    event_equivalence,
    find_complete_twins,
    from_pure,
    is_twin_pair,
    pure_schmidt,
    scalar_pair,
    simplified_matrix,
    simultaneous_expansion,
    solve_twin_space,
)
from twinobs.linops import hermitian_basis, max_norm, pair_to_coords
from twinobs.schmidt import compatibility_report
from twinobs.spectral import (
    apply_function,
    characteristic_projector_twins,
    detectable_spectra,
    spectral_data,
    split_detectable,
    symmetric_polynomial,
)
from twinobs.spin import SpinScenario, scenario_decomposition
from twinobs.twins import subspace_distance

import reference
from conftest import ACCEPTANCE_RESULTS, oracle_twin_coords, random_hermitian, random_state

SZ_HALF = np.diag([0.5, -0.5]).astype(complex)
SZ_ONE = np.diag([1.0, 0.0, -1.0]).astype(complex)


@contextmanager
def criterion(number, description):
    outcome = {"ok": False}
    try:
        yield outcome
    finally:
        verdict = "PASS" if outcome["ok"] else "FAIL"
        line = f"criterion {number:2d} [{verdict}] {description}"
        ACCEPTANCE_RESULTS.append(line)
        print(line)
    assert outcome["ok"], line


def span_coords(pairs):
    M = np.column_stack([pair_to_coords(ap, am) for ap, am in pairs])
    q, _ = np.linalg.qr(M)
    return q


def gibbs_state(temperature):
    H = kron(SZ_HALF, np.eye(2)) + kron(np.eye(2), SZ_HALF)
    rho = scipy.linalg.expm(-H / temperature)
    rho /= np.trace(rho).real
    return BipartiteState(2, 2, rho)


def criteria_1_to_5_states(example1, example1_insufficient, example2_ms0, example2_ms1):
    states = [example1, example1_insufficient, example2_ms0, example2_ms1]
    states += [gibbs_state(t) for t in (0.5, 1.0, 4.0)]
    return states


class TestAcceptance:
    def test_criterion_1_equal_weight_triplet_singlet(self, example1):
        with criterion(1, "equal-weight triplet/singlet mixture: dim 2, "
                          "span {(a1+b s_z, a1-b s_z)}") as out:
            space = solve_twin_space(example1)
            assert space.dim_total == 2
            expected = span_coords([(np.eye(2), np.eye(2)), (SZ_HALF, -SZ_HALF)])
            assert subspace_distance(space.coordinate_matrix(), expected) <= 1e-8
            out["ok"] = True

    def test_criterion_2_singularity_not_sufficient(self, example1_insufficient):
        with criterion(2, "rank-2 mixture on span{|1,0>,|1,-1>}: detectable "
                          "dimension 1 (scalars only)") as out:
            space = solve_twin_space(example1_insufficient)
            assert space.dim_detectable == 1
            out["ok"] = True

    def test_criterion_3_two_spin1_ms0(self, example2_ms0):
        with criterion(3, "two spin-1, M_S=0 mixture: dim 3 equals "
                          "span{(1,1),(s_z,-s_z),(s_z^2,s_z^2)}") as out:
            space = solve_twin_space(example2_ms0)
            assert space.dim_total == 3
            expected = span_coords([
                (np.eye(3), np.eye(3)),
                (SZ_ONE, -SZ_ONE),
                (SZ_ONE @ SZ_ONE, SZ_ONE @ SZ_ONE),
            ])
            assert subspace_distance(space.coordinate_matrix(), expected) <= 1e-8
            out["ok"] = True

    def test_criterion_4_two_spin1_ms1(self, example2_ms1):
        with criterion(4, "two spin-1, M_S=1 mixture: dim 4 (oracle agreement), "
                          "contains listed spans, detectable parts +-1/2 diag(1,-1)") as out:
            space = solve_twin_space(example2_ms1)
            assert space.dim_total == 4
            oracle = oracle_twin_coords(example2_ms1)
            assert oracle.shape[1] == 4
            assert subspace_distance(space.coordinate_matrix(), oracle) <= 1e-8

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

            pair = ObservablePair(SZ_ONE - 0.5 * np.eye(3), -SZ_ONE + 0.5 * np.eye(3))
            ok, _ = is_twin_pair(example2_ms1, pair)
            assert ok
            split = split_detectable(pair, example2_ms1)
            # detectable parts are +-1/2 diag(1,-1) after aligning each
            # range basis with the characteristic vectors
            vals_p = np.sort(np.linalg.eigvalsh(split.a_prime_plus))
            vals_m = np.sort(np.linalg.eigvalsh(split.a_prime_minus))
            np.testing.assert_allclose(vals_p, [-0.5, 0.5], atol=1e-8)
            np.testing.assert_allclose(vals_m, [-0.5, 0.5], atol=1e-8)
            np.testing.assert_allclose(
                split.a_prime_plus, -split.a_prime_minus.conj(), atol=1e-8
            )
            out["ok"] = True

    def test_criterion_5_nonsingular_no_go(self):
        with criterion(5, "nonsingular states (20 random full-rank + Gibbs at "
                          "three temperatures): scalars only") as out:
            rng = np.random.default_rng(50)
            dims_cycle = [(2, 2), (2, 3), (3, 3)]
            for k in range(20):
                dp, dm = dims_cycle[k % 3]
                st = random_state(rng, dp, dm)  # full rank
                assert solve_twin_space(st).dim_total == 1
            for t in (0.5, 1.0, 4.0):
                assert solve_twin_space(gibbs_state(t)).dim_total == 1
            out["ok"] = True

    def test_criterion_6_solver_oracle_equivalence(self):
        with criterion(6, "solver vs dense-kernel oracle on 50 random states "
                          "(dim and subspace within 1e-8)") as out:
            rng = np.random.default_rng(60)
            dims_pool = [(2, 2), (2, 3), (3, 2), (3, 3)]
            for k in range(50):
                dp, dm = dims_pool[k % 4]
                rank = int(rng.integers(1, dp * dm + 1))
                st = random_state(rng, dp, dm, rank=rank)
                space = solve_twin_space(st)
                oracle = oracle_twin_coords(st)
                assert space.dim_total == oracle.shape[1]
                assert subspace_distance(space.coordinate_matrix(), oracle) <= 1e-8
            out["ok"] = True

    def test_criterion_7_spectral_suite(self, example1, example1_insufficient,
                                        example2_ms0, example2_ms1):
        with criterion(7, "spectral suite: equal detectable spectra, support "
                          "commutation, projector twins, reconstruction") as out:
            states = criteria_1_to_5_states(
                example1, example1_insufficient, example2_ms0, example2_ms1
            )
            for st in states:
                space = solve_twin_space(st)
                for pair in space.basis:
                    split = split_detectable(pair, st)
                    # equal detectable spectra within 1e-8
                    sp = spectral_data(split.a_prime_plus, st.tol.cluster_tol)
                    sm = spectral_data(split.a_prime_minus, st.tol.cluster_tol)
                    assert len(sp.values) == len(sm.values)
                    if len(sp.values):
                        assert np.max(np.abs(sp.values - sm.values)) <= 1e-8
                    detectable_spectra(split, st.tol.cluster_tol)  # no mismatch

                    # detectable parts commute with the supports
                    Bp, Bm = split.range_basis_plus, split.range_basis_minus
                    char = characteristic_projector_twins(split, st)
                    recon_p = np.zeros_like(pair.a_plus)
                    recon_m = np.zeros_like(pair.a_minus)
                    for a, Pp, Pm, residual in char:
                        assert residual <= 1e-8
                        lifted = ObservablePair(
                            Bp @ Pp @ Bp.conj().T, Bm @ Pm @ Bm.conj().T
                        )
                        ok, res = is_twin_pair(st, lifted)
                        assert ok, res
                        recon_p = recon_p + a * lifted.a_plus
                        recon_m = recon_m + a * lifted.a_minus
                    # sum_a a P(a) rho reconstructs A rho on both sides
                    I_p, I_m = np.eye(st.d_plus), np.eye(st.d_minus)
                    assert max_norm(
                        (kron(recon_p, I_m) - kron(pair.a_plus, I_m)) @ st.rho
                    ) <= 1e-8
                    assert max_norm(
                        (kron(I_p, recon_m) - kron(I_p, pair.a_minus)) @ st.rho
                    ) <= 1e-8
            out["ok"] = True

    def test_criterion_8_closure_suite(self, example1, example2_ms0, example2_ms1):
        with criterion(8, "closure: 50 random polynomial functions, 20 random "
                          "symmetric polynomials, anticommutator identity") as out:
            rng = np.random.default_rng(80)
            states = [example1, example2_ms0, example2_ms1]
            spaces = [solve_twin_space(st) for st in states]

            for k in range(50):
                st = states[k % 3]
                space = spaces[k % 3]
                pair = space.basis[int(rng.integers(len(space.basis)))]
                coeffs = rng.uniform(-2, 2, size=int(rng.integers(2, 5)))
                mapped = apply_function(
                    pair, lambda x: float(np.polyval(coeffs, x)), st.tol.cluster_tol
                )
                ok, res = is_twin_pair(st, mapped)
                assert ok and res <= 1e-8, res

            for k in range(20):
                st = states[k % 3]
                space = spaces[k % 3]
                idx = rng.integers(len(space.basis), size=2)
                pairs = [space.basis[int(i)] for i in idx]
                c2, c11, c1 = rng.uniform(-1, 1, size=3)
                poly = {
                    (2, 0): c2, (0, 2): c2,   # symmetric quadratic
                    (1, 1): c11,
                    (1, 0): c1, (0, 1): c1,
                    (0, 0): float(rng.uniform(-1, 1)),
                }
                mapped = symmetric_polynomial(pairs, poly, st)
                ok, res = is_twin_pair(st, mapped)
                assert ok and res <= 1e-8, res

            # anticommutator of two twin pairs is a twin, checked directly
            sp = spaces[2]
            A, B = sp.basis[0], sp.basis[-1]
            anti = ObservablePair(
                (A.a_plus @ B.a_plus + B.a_plus @ A.a_plus) / 2,
                (A.a_minus @ B.a_minus + B.a_minus @ A.a_minus) / 2,
            )
            ok, res = is_twin_pair(example2_ms1, anti)
            assert ok and res <= 1e-8, res
            out["ok"] = True

    def test_criterion_9_measurement_suite(self, example1, example2_ms1):
        with criterion(9, "measurement: distant-measurement equality 1e-9, "
                          "event-criteria coherence x200, sharp-value "
                          "biconditional x50") as out:
            for st, pair in [
                (example1, ObservablePair(SZ_HALF, -SZ_HALF)),
                (example2_ms1,
                 ObservablePair(SZ_ONE - 0.5 * np.eye(3), -SZ_ONE + 0.5 * np.eye(3))),
            ]:
                rep = distant_measurement_report(st, pair)
                assert rep.tolerance == 1e-9
                assert rep.max_probability_gap <= 1e-9
                assert rep.max_collapse_gap <= 1e-9
                assert rep.passed

            rng = np.random.default_rng(90)
            fired = 0
            for _ in range(200):
                st = random_state(rng, 2, 2, rank=int(rng.integers(1, 5)))
                if rng.uniform() < 0.3:
                    p = reference.projectors(st)
                    E = kron(p.R_plus, np.eye(2))
                    F = kron(np.eye(2), p.R_minus)
                else:
                    vp = np.linalg.eigh(random_hermitian(rng, 2))[1][:, :1]
                    vm = np.linalg.eigh(random_hermitian(rng, 2))[1][:, :1]
                    E = kron(vp @ vp.conj().T, np.eye(2))
                    F = kron(np.eye(2), vm @ vm.conj().T)
                rep = event_equivalence(st, EventPair(E, F))
                assert rep.coherent
                assert rep.collapse_verdict == rep.algebraic_verdict
                fired += rep.algebraic_verdict
            assert fired > 0

            # 50 constructed cases: 25 with a sharp value, 25 without
            rng = np.random.default_rng(91)
            for _ in range(25):
                A = random_hermitian(rng, 4)
                vals, vecs = np.linalg.eigh(A)
                idx = int(rng.integers(0, 4))
                v = vecs[:, idx]
                st = BipartiteState(2, 2, np.outer(v, v.conj()))
                a = certainty_test(st, A)
                assert a is not None and abs(a - vals[idx]) <= 1e-8

                w = (vecs[:, idx] + vecs[:, (idx + 1) % 4]) / np.sqrt(2)
                st2 = BipartiteState(2, 2, np.outer(w, w.conj()))
                assert certainty_test(st2, A) is None
            out["ok"] = True

    def test_criterion_10_schmidt_suite(self, example1, example2_ms0, example2_ms1):
        with criterion(10, "canonical forms: simplified-matrix sparsity 1e-8, "
                           "pure reconstruction 1e-9, simultaneous expansion, "
                           "compatibility commutators 1e-9") as out:
            rng = np.random.default_rng(100)
            states = [example1, example2_ms0, example2_ms1]
            for k in range(5):
                dp = int(rng.integers(2, 4))
                v = rng.standard_normal(dp * dp) + 1j * rng.standard_normal(dp * dp)
                v /= np.linalg.norm(v)
                states.append(from_pure(v, dp, dp))
            for st in states:
                found = find_complete_twins(solve_twin_space(st), st)
                if found is None:
                    continue
                _, mb = found
                _, sparsity = simplified_matrix(st, mb)
                assert sparsity.max_forbidden <= 1e-8

            # pure-state canonical expansion reconstructs the vector
            for _ in range(5):
                v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                v /= np.linalg.norm(v)
                k = np.flatnonzero(np.abs(v) > 1e-12)[0]
                v *= np.exp(-1j * np.angle(v[k]))  # fix the global phase
                st = from_pure(v, 2, 2)
                found = find_complete_twins(solve_twin_space(st), st)
                assert found is not None
                pair, _ = found
                coeffs, bp, bm = pure_schmidt(st, pair)
                recon = sum(
                    c * np.kron(bp[:, a], bm[:, a]) for a, c in enumerate(coeffs)
                )
                assert np.linalg.norm(recon - v) <= 1e-9

            # simultaneous diagonal expansion of the two-component mixture
            from twinobs.spectral import matched_bases_from_pair

            dec, _, _ = scenario_decomposition(SpinScenario("example1_range10_00"))
            mb = matched_bases_from_pair(ObservablePair(SZ_HALF, -SZ_HALF), example1)
            exp = simultaneous_expansion(dec, mb, example1)
            M, _ = simplified_matrix(example1, mb)
            recon = sum(
                w * np.outer(a, a.conj()) for w, a in zip(dec.weights, exp.alphas)
            )
            assert max_norm(recon - M) <= 1e-9

            report = compatibility_report(dec, mb, example1)
            assert max(report.values()) <= 1e-9
            out["ok"] = True
