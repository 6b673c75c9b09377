"""The sparsity certificate of ``simplified_matrix``, read off the rows of
Y = (B_plus ⊗ B_minus)† C, against the looped reference that forms every
element <a,c|rho|b,d>: the same M, the same largest forbidden modulus,
the same verdict, and no D x D array on the way."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinobs import BipartiteState, from_pure, simplified_matrix
from twinobs.errors import SparsityViolationError
from twinobs.linops import Tolerances, max_norm
from twinobs.spectral import MatchedBases

from conftest import traced_peak
from test_product_kernels import (
    complete,
    diagonal_support_state,
    isometry,
    pure_schmidt_state,
    ref_simplified_matrix,
)

LENIENT = Tolerances(residual_tol=10.0)


def with_tol(state, tol):
    return BipartiteState(state.d_plus, state.d_minus, state.rho, tol)


def forbidden_blocks(state, mb):
    """Largest forbidden modulus in the (off, diagonal) and (off, off)
    blocks of the dense Gram matrix <a,c|rho|b,d>, from the looped
    reference's product vectors."""
    r = len(mb.sigma_prime)
    B = np.einsum("ia,jc->ijac", mb.basis_plus, mb.basis_minus).reshape(state.dim, r * r)
    X = B.conj().T @ state.rho @ B
    on = np.zeros(r * r, dtype=bool)
    on[::r + 1] = True
    return max_norm(X[~on][:, on]), max_norm(X[~on][:, ~on])


def check_against_reference(state, mb):
    """simplified_matrix raises exactly when the reference's largest
    forbidden modulus exceeds residual_tol; otherwise M and max_forbidden
    equal the reference's to 1e-14."""
    M_ref, forbidden_ref = ref_simplified_matrix(state, mb)
    if forbidden_ref > state.tol.residual_tol:
        with pytest.raises(SparsityViolationError):
            simplified_matrix(state, mb)
        return forbidden_ref
    M, report = simplified_matrix(state, mb)
    np.testing.assert_allclose(M, M_ref, rtol=0, atol=1e-14)
    assert abs(report.max_forbidden - forbidden_ref) <= 1e-14
    assert report.tolerance == state.tol.residual_tol
    return forbidden_ref


def mixed_off_diagonal_state(rng, dims, r, a, c, t, tol=LENIENT):
    """(1 - t) |psi><psi| + t |a,c><a,c| for psi on the diagonal span
    {|b,b>} of random isometries: <a,c|rho|a,c> = t is a forbidden
    element of the (off, off) block, and the (off, diagonal) block is 0."""
    dp, dm = dims
    mb = MatchedBases(np.arange(r, dtype=float), isometry(rng, dp, r), isometry(rng, dm, r))
    lam = rng.uniform(0.5, 1.0, r)
    psi = np.einsum("ib,jb,b->ij", mb.basis_plus, mb.basis_minus, lam / np.linalg.norm(lam))
    ac = np.outer(mb.basis_plus[:, a], mb.basis_minus[:, c])
    rho = (1 - t) * np.outer(psi, psi.conj()) + t * np.outer(ac, ac.conj())
    return BipartiteState(dp, dm, rho, tol), mb


@pytest.mark.parametrize("dims, r", [((4, 5), 4), ((5, 4), 4), ((5, 5), 3), ((3, 6), 3)])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_complete_twins_match_the_reference(dims, r, rank):
    # ranks 1-3 on r_s = r <= d_s, with d_plus != d_minus
    state = diagonal_support_state(np.random.default_rng(100 * r + 10 * rank + dims[0]),
                                   *dims, r, rank)
    assert state.range_basis().shape[1] == rank
    _, mb = complete(state)
    assert check_against_reference(state, mb) <= state.tol.residual_tol


@pytest.mark.parametrize("dims", [(4, 4), (4, 6), (6, 5)])
def test_rank_four_matches_the_reference(dims):
    state = diagonal_support_state(np.random.default_rng(sum(dims)), *dims, 4, 4)
    assert state.range_basis().shape[1] == 4
    _, mb = complete(state)
    assert check_against_reference(state, mb) <= state.tol.residual_tol


@pytest.mark.parametrize("dims", [(3, 3), (3, 5), (6, 4)])
def test_pure_states_match_the_reference(dims):
    state = pure_schmidt_state(np.random.default_rng(7 * dims[1]), *dims)
    _, mb = complete(state)
    assert check_against_reference(state, mb) <= state.tol.residual_tol


@pytest.mark.parametrize("dims, r, rank", [((3, 4), 3, 1), ((4, 5), 4, 2), ((5, 5), 3, 3),
                                           ((4, 4), 4, 4)])
def test_rotated_bases_match_the_reference(dims, r, rank):
    rng = np.random.default_rng(31 * rank + r)
    state = diagonal_support_state(rng, *dims, r, rank)
    _, mb = complete(state)
    rotated = MatchedBases(mb.sigma_prime, mb.basis_plus @ isometry(rng, r, r), mb.basis_minus)
    # the default tolerance raises, the lenient one compares
    assert check_against_reference(state, rotated) > state.tol.residual_tol
    assert check_against_reference(with_tol(state, LENIENT), rotated) > state.tol.residual_tol


@pytest.mark.parametrize("dims, r", [((3, 4), 3), ((4, 4), 4), ((5, 3), 2)])
def test_maximum_in_the_off_off_block(dims, r):
    rng = np.random.default_rng(dims[0] * r)
    for a in range(r):
        for c in range(r):
            if a == c:
                continue
            state, mb = mixed_off_diagonal_state(rng, dims, r, a, c, 0.01)
            off_diagonal, off_off = forbidden_blocks(state, mb)
            assert off_diagonal <= 1e-14 and off_off == pytest.approx(0.01, abs=1e-14)
            assert check_against_reference(state, mb) == pytest.approx(0.01, abs=1e-14)
            check_against_reference(with_tol(state, Tolerances()), mb)


def test_maximum_in_the_off_diagonal_block():
    # a superposition (not a mixture) with |a,c> puts the largest
    # forbidden modulus sqrt(t (1 - t)) between |0,0> and |a,c>
    rng = np.random.default_rng(5)
    r, t = 3, 0.01
    mb = MatchedBases(np.arange(r, dtype=float), isometry(rng, 3, r), isometry(rng, 4, r))
    oo = np.outer(mb.basis_plus[:, 0], mb.basis_minus[:, 0]).ravel()
    ac = np.outer(mb.basis_plus[:, 1], mb.basis_minus[:, 2]).ravel()
    state = from_pure(np.sqrt(1 - t) * oo + np.sqrt(t) * ac, 3, 4, LENIENT)
    off_diagonal, off_off = forbidden_blocks(state, mb)
    assert off_diagonal > off_off
    assert check_against_reference(state, mb) == pytest.approx(np.sqrt(t * (1 - t)), abs=1e-14)


@pytest.mark.parametrize("block", ["off-off", "off-diagonal"])
@pytest.mark.parametrize("side", [-1, 1])
def test_verdict_at_the_tolerance(block, side):
    # residual_tol a relative 1e-9 below or above the reference maximum
    rng = np.random.default_rng(17)
    if block == "off-off":
        state, mb = mixed_off_diagonal_state(rng, (4, 3), 3, 2, 0, 0.02)
    else:
        state = diagonal_support_state(rng, 4, 3, 3, 2)
        _, mb = complete(state)
        mb = MatchedBases(mb.sigma_prime, mb.basis_plus, mb.basis_minus @ isometry(rng, 3, 3))
    forbidden_ref = ref_simplified_matrix(state, mb)[1]
    tol = Tolerances(residual_tol=forbidden_ref * (1 + side * 1e-9))
    check_against_reference(with_tol(state, tol), mb)


@given(st.integers(0, 10**6), st.integers(1, 144), st.integers(1, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_gram_maximum_is_on_the_diagonal(seed, rows, k, parallel):
    # |G_ij| <= sqrt(G_ii G_jj) for G = Y Y†; parallel rows reach the bound
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
    Y *= rng.uniform(0.1, 1.0, (rows, 1))
    if parallel:
        Y[rows // 2:] = Y[: rows - rows // 2] * np.exp(1j * rng.uniform(0, 2 * np.pi))
    G = Y @ Y.conj().T
    top = G.diagonal().real.max()
    assert abs(max_norm(G) - top) <= 8 * np.finfo(float).eps * top


@pytest.mark.parametrize("build, d", [
    (lambda rng, d: pure_schmidt_state(rng, d, d), 12),
    (lambda rng, d: diagonal_support_state(rng, d, d, d, 2), 10),
], ids=["pure d=12", "block2 d=10"])
def test_no_dense_gram_matrix(build, d):
    # the D x D Gram matrix and its moduli alone take 1.5 * 16 D^2 bytes
    state = build(np.random.default_rng(d), d)
    _, mb = complete(state)
    state.factor
    D = state.dim
    assert traced_peak(lambda: simplified_matrix(state, mb)) <= 0.25 * 16 * D * D
