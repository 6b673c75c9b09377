"""Each operator of a state is eigendecomposed once: BipartiteState
takes the rank cut of rho at construction and reads positivity off it,
so construction is the one eigendecomposition of rho (none on the
factor path) and everything read from the cut later reuses it; and
matched_bases_from_pair reuses the eigenvectors SpectralData carries.
rho is also validated once: symmetrized at ingestion, and decomposed
as it is, with its reductions, through the linops._Hermitian view."""

import numpy as np
import pytest

from twinobs import BipartiteState, find_complete_twins, matched_bases_from_pair, solve_twin_space
from twinobs import linops
from twinobs.errors import NotPositiveError
from twinobs.linops import Tolerances
from twinobs.spectral import split_detectable


def unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(Z)[0]


def rho_with_lowest_eigenvalue(lam_min, d=3):
    """rho on C^d ⊗ C^d with spectrum (lam_min, rest), trace 1."""
    rest = np.linspace(1.0, 2.0, d * d - 1)
    rest *= (1.0 - lam_min) / rest.sum()
    U = unitary(np.random.default_rng(71), d * d)
    return U @ np.diag(np.concatenate([[lam_min], rest])) @ U.conj().T


def state_with_lowest_eigenvalue(lam_min, tol, d=3):
    return BipartiteState(d, d, rho_with_lowest_eigenvalue(lam_min, d), tol)


def test_construction_is_the_one_eigendecomposition_of_rho(monkeypatch):
    calls = []

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    rho = rho_with_lowest_eigenvalue(0.0)
    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(linops, "eigh", counting("linops.eigh", linops.eigh))
    state = BipartiteState(3, 3, rho)
    assert calls == ["linops.eigh", "eigh"]
    state.range_basis()
    state.spectrum
    state.factor
    state.cut_error
    assert calls == ["linops.eigh", "eigh"]


@pytest.mark.parametrize("rank_tol,lam_min,rejected", [
    (1e-10, -1e-9, True), (1e-10, -2e-10, True), (1e-10, -5e-11, False),
    (1e-10, 0.0, False), (1e-10, 1e-3, False),
    (1e-6, -2e-6, True), (1e-6, -5e-7, False),
    (0.0, -1e-6, True), (0.0, 1e-6, False),
])
def test_positivity_verdict_follows_the_eigenvalue_rule(rank_tol, lam_min, rejected):
    """Rejected exactly when lambda_min < -rank_tol * max(lambda_max, 1)."""
    tol = Tolerances(rank_tol=rank_tol)
    if rejected:
        with pytest.raises(NotPositiveError, match="negative eigenvalue"):
            state_with_lowest_eigenvalue(lam_min, tol)
    else:
        state_with_lowest_eigenvalue(lam_min, tol)


@pytest.mark.parametrize("lam_min,rejected", [
    (-1e-9, True), (-2e-10, True), (-5e-11, False), (0.0, False),
])
def test_positivity_verdict_on_the_factor_path(lam_min, rejected):
    """rho on C^8 ⊗ C^8 with spectrum (0.7 - lam_min, 0.3, lam_min, 0...):
    a certified factor-path cut puts lambda_min within cut_error <
    rank_tol * lambda_max of zero, so it accepts; a lambda_min below
    that fails the certificate and the eigh path rejects it by the
    eigenvalue rule."""
    U = unitary(np.random.default_rng(64), 64)
    spectrum = np.zeros(64)
    spectrum[:3] = (0.7 - lam_min, 0.3, lam_min)
    rho = (U * spectrum) @ U.conj().T
    if rejected:
        with pytest.raises(NotPositiveError, match="negative eigenvalue"):
            BipartiteState(8, 8, rho)
    else:
        state = BipartiteState(8, 8, rho)
        assert len(state.spectrum[0]) == 2
        assert state.cut_error < state.tol.rank_tol * state.spectrum[0][-1]


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (4, 3)])
def test_matched_bases_reuse_the_spectral_eigenvectors(dims, monkeypatch):
    """Bitwise the bases of a fresh eigh of each detectable block, with
    two eighs per call on a state that has not seen the pair: the ones
    spectral_data makes."""
    dp, dm = dims
    rng = np.random.default_rng(dp * 10 + dm)
    r = min(dims)
    U, V = unitary(rng, dp)[:, :r], unitary(rng, dm)[:, :r]
    D = np.einsum("ia,ja->ija", U, V).reshape(dp * dm, r)
    w = rng.uniform(0.2, 1.0, r)
    state = BipartiteState(dp, dm, D @ np.diag(w / w.sum()) @ D.conj().T)
    pair, _ = find_complete_twins(solve_twin_space(state), state)
    # the search left the pair's spectra on `state`; a fresh state from
    # the same rho has to compute them
    state = BipartiteState(dp, dm, state.rho)

    split = split_detectable(pair, state)
    ref_plus = split.range_basis_plus @ linops.eigh(split.a_prime_plus)[1]
    ref_minus = split.range_basis_minus @ linops.eigh(split.a_prime_minus)[1]

    eigh = linops.eigh
    calls = []
    monkeypatch.setattr(linops, "eigh", lambda H, *a, **k: calls.append(1) or eigh(H, *a, **k))
    mb = matched_bases_from_pair(pair, state)
    assert len(calls) == 2
    assert np.array_equal(mb.basis_plus, ref_plus)
    assert np.array_equal(mb.basis_minus, ref_minus)


def test_a_full_rank_solve_symmetrizes_one_d_by_d_matrix(monkeypatch):
    """A full-rank rho at d = 6 (the eigh path): rho is symmetrized at
    ingestion, and neither its eigh nor those of rho_plus and rho_minus
    symmetrize again."""
    rng = np.random.default_rng(36)
    X = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
    rho = X @ X.conj().T
    shapes = []
    hermitize = linops.hermitize
    monkeypatch.setattr(linops, "hermitize", lambda M, *a, **k: shapes.append(np.shape(M))
                        or hermitize(M, *a, **k))
    state = BipartiteState(6, 6, rho / np.trace(rho).real)
    space = solve_twin_space(state)
    assert state.range_basis().shape[1] == 36 and space.dim_total == 1
    assert shapes == [(36, 36)]


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (2, 5)])
def test_the_state_operators_are_bitwise_hermitian(dims):
    """The trusted view is exact: rho as stored and its partial traces
    are bitwise Hermitian, so the eigh of the view equals the public
    eigh, which symmetrizes first, bit for bit, in plain arrays."""
    dp, dm = dims
    rng = np.random.default_rng(dp * 10 + dm)
    X = rng.standard_normal((dp * dm, dp * dm)) + 1j * rng.standard_normal((dp * dm, dp * dm))
    state = BipartiteState(dp, dm, (X @ X.conj().T) / np.linalg.norm(X) ** 2)
    sub = state.subsystems
    for H in (state.rho, sub.rho_plus, sub.rho_minus):
        assert np.array_equal(H, H.conj().T)
        for trusted, public in zip(linops.eigh(H.view(linops._Hermitian)), linops.eigh(H)):
            assert type(trusted) is np.ndarray
            assert trusted.tobytes() == public.tobytes()
