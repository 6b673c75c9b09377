import numpy as np
from numpy import kron
import pytest

from twinobs.errors import UnsupportedSpinError, WeightError
from twinobs.linops import max_norm
from twinobs.spin import (
    SpinScenario,
    build_scenario,
    coupled_basis,
    spin_lowering,
    spin_z,
)

import reference


def total_spin_operators(j1, j2):
    d1, d2 = int(2 * j1 + 1), int(2 * j2 + 1)
    Sz = kron(spin_z(j1), np.eye(d2)) + kron(np.eye(d1), spin_z(j2))
    Sm = kron(spin_lowering(j1), np.eye(d2)) + kron(np.eye(d1), spin_lowering(j2))
    Sp = Sm.conj().T
    S2 = Sp @ Sm + Sz @ Sz - Sz
    return S2, Sz


class TestCoupledBasis:
    def test_half_half_known_states(self):
        U, labels = coupled_basis(0.5, 0.5)
        s = 1 / np.sqrt(2)
        triplet0 = U[:, labels.index((1.0, 0.0))]
        singlet = U[:, labels.index((0.0, 0.0))]
        np.testing.assert_allclose(triplet0.real, [0, s, s, 0], atol=1e-12)
        np.testing.assert_allclose(singlet.real, [0, s, -s, 0], atol=1e-12)

    def test_one_one_known_states(self):
        U, labels = coupled_basis(1.0, 1.0)
        s = 1 / np.sqrt(2)
        # |2,1> = (|1,0> + |0,1>)/sqrt2 at product indices 1 and 3
        v = U[:, labels.index((2.0, 1.0))]
        np.testing.assert_allclose(v.real[[1, 3]], [s, s], atol=1e-12)
        v = U[:, labels.index((1.0, 1.0))]
        np.testing.assert_allclose(v.real[[1, 3]], [s, -s], atol=1e-12)

    @pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)])
    def test_unitary(self, j1, j2):
        U, _ = coupled_basis(j1, j2)
        assert max_norm(U.conj().T @ U - np.eye(U.shape[0])) <= 1e-12

    @pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)])
    def test_eigenrelations(self, j1, j2):
        # columns are exact eigenvectors of S^2 and S_z
        S2, Sz = total_spin_operators(j1, j2)
        U, labels = coupled_basis(j1, j2)
        for k, (S, M) in enumerate(labels):
            v = U[:, k]
            assert np.linalg.norm(S2 @ v - S * (S + 1) * v) <= 1e-10
            assert np.linalg.norm(Sz @ v - M * v) <= 1e-10

    def test_condon_shortley_sign(self):
        U, labels = coupled_basis(1.0, 1.0)
        for k, (S, M) in enumerate(labels):
            col = U[:, k].real
            nz = np.flatnonzero(np.abs(col) > 1e-9)
            assert col[nz[0]] > 0  # maximal-m1 nonzero component positive

    def test_unsupported_spin(self):
        with pytest.raises(UnsupportedSpinError):
            coupled_basis(1.5, 0.5)


class TestBuildScenario:
    def test_example1_equal_weights(self):
        st = build_scenario(SpinScenario("example1_range10_00"))
        np.testing.assert_allclose(st.rho, np.diag([0, 0.5, 0.5, 0]), atol=1e-12)

    def test_example1_negative_case_rank2(self):
        st = build_scenario(SpinScenario("example1_range10_1m1"))
        vals = np.linalg.eigvalsh(st.rho)
        assert int(np.sum(vals > 1e-10)) == 2

    def test_example2_ms1_rank2_on_9dim(self):
        st = build_scenario(SpinScenario("example2_ms1"))
        assert st.dim == 9
        vals = np.linalg.eigvalsh(st.rho)
        assert int(np.sum(vals > 1e-10)) == 2

    def test_range_matches_named_span(self):
        st = build_scenario(SpinScenario("example2_ms0"))
        U, labels = coupled_basis(1.0, 1.0)
        span = np.column_stack([
            U[:, labels.index(sm)]
            for sm in [(2.0, 0.0), (1.0, 0.0), (0.0, 0.0)]
        ])
        P = span @ span.conj().T
        R = reference.projectors(st).R
        assert max_norm(P - R) <= 1e-10

    def test_custom_weights(self):
        st = build_scenario(SpinScenario("example1_range10_00", weights=(0.9, 0.1)))
        vals = np.sort(np.linalg.eigvalsh(st.rho))[::-1]
        np.testing.assert_allclose(vals[:2], [0.9, 0.1], atol=1e-10)

    def test_bad_weights_rejected(self):
        with pytest.raises(WeightError):
            SpinScenario("example1_range10_00", weights=(0.9, 0.2))
        with pytest.raises(WeightError):
            SpinScenario("example2_ms0", weights=(0.5, 0.5))

    def test_unknown_scenario(self):
        with pytest.raises(UnsupportedSpinError):
            SpinScenario("example3")
