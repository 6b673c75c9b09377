"""Canonical forms built from complete twins.

A complete twin pair forces the density matrix, written in the matched
characteristic product basis, to vanish outside the doubly-diagonal
entries <a,a|rho|b,b>.  For pure states this reduces to the Schmidt
biorthogonal expansion; for decompositions of a mixed state it yields
simultaneous generalized Schmidt expansions with complex coefficients.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NotPureError, OffDiagonalLeakError, SparsityViolationError
from .linops import Record, ValueRecord, local_compress, max_norm
from .spectral import MatchedBases, matched_bases_from_pair
from .states import BipartiteState, PureDecomposition, _check_decomposition_dims
from .twins import ObservablePair, _check_dims


class SparsityReport(ValueRecord):
    FIELDS = ("max_forbidden", "tolerance")

    @property
    def passed(self) -> bool:
        return self.max_forbidden <= self.tolerance


def simplified_matrix(state: BipartiteState, mb: MatchedBases):
    """Compress rho to the matrix M[a,b] = <a,a|rho|b,b> over the matched
    bases of a complete twin pair.

    Row a*r + c of Y = (basis_plus ⊗ basis_minus)† C, with C the factor
    of rho, is <a,c| C, so every element <a,c|rho|b,d> of the rank cut
    C C† is the inner product of two rows of Y; Y comes from two local
    products on C, so no composite basis is formed.  With Y_d the r
    doubly-diagonal rows (c = a) and Y_o the rest, M = Y_d Y_d† and the
    forbidden elements are the entries of Y_o Y_d† and of the Gram
    matrix Y_o Y_o†, whose largest modulus is its largest diagonal entry
    max_i ||Y_o,i||^2 (|G_ij| <= sqrt(G_ii G_jj) for a Gram matrix G).
    The largest forbidden modulus is thus exact and costs O(D r k): no
    D x D array is formed.  Each element is within the dropped tail (at
    most rank_tol * lambda_max) of the one of rho.  Raises
    SparsityViolation when a forbidden element exceeds residual_tol,
    which signals that the input bases do not come from complete twins
    of this state.
    """
    r = len(mb.sigma_prime)
    _check_dims("basis", mb.basis_plus, mb.basis_minus, state, r)
    Y = local_compress(state.factor, mb.basis_plus, mb.basis_minus).reshape(r * r, -1)
    on_diagonal = np.zeros(r * r, dtype=bool)
    on_diagonal[::r + 1] = True
    Yd, Yo = Y[on_diagonal], Y[~on_diagonal]
    M = Yd @ Yd.conj().T
    off_norms = np.einsum("ij,ij->i", Yo, Yo.conj()).real
    max_forbidden = max(max_norm(Yo @ Yd.conj().T), float(off_norms.max(initial=0.0)))
    if max_forbidden > state.tol.residual_tol:
        raise SparsityViolationError(
            f"forbidden matrix element {max_forbidden:.3e} exceeds "
            f"{state.tol.residual_tol:.3e}"
        )
    return M, SparsityReport(max_forbidden=max_forbidden, tolerance=state.tol.residual_tol)


def _pure_vector(state: BipartiteState) -> np.ndarray:
    """The state vector of a rho whose cached rank cut keeps one eigenvector."""
    range_basis = state.range_basis()
    if range_basis.shape[1] != 1:
        raise NotPureError(f"state is not pure: top eigenvalues {state.spectrum[0][-2:]}")
    return range_basis[:, 0]


def _pinv_sqrt(vals: np.ndarray, range_basis: np.ndarray) -> np.ndarray:
    """Inverse square root on the range of a PSD operator, zero on its
    null space, from its ascending eigenvalues and range basis."""
    kept = vals[len(vals) - range_basis.shape[1]:]
    return (range_basis * kept ** -0.5) @ range_basis.conj().T


def pure_schmidt(state: BipartiteState, complete_pair: ObservablePair):
    """Schmidt canonical form of a pure state from a complete twin pair.

    The minus-side basis is recomputed through the phase rule
    |a>_- = normalize(rho_-^{-1/2} <a|_+ |phi>), making every expansion
    coefficient real nonnegative.  Returns (coefficients, basis_plus,
    basis_minus) with phi = sum_a coeff_a |a>_+ |a>_-.  The plus-side
    basis is ``matched_bases_from_pair``, which reuses the spectra of a
    pair that ``find_complete_twins`` returned for this state.
    """
    phi = _pure_vector(state)
    mb = matched_bases_from_pair(complete_pair, state)
    sub = state.subsystems
    Phi = phi.reshape(state.d_plus, state.d_minus)
    # column a is rho_-^{-1/2} <a|_+ |phi>, of norm 1 for a complete pair
    W = _pinv_sqrt(sub.values_minus, sub.range_minus) @ Phi.T @ mb.basis_plus.conj()
    basis_minus = W / np.linalg.norm(W, axis=0)
    c = np.sum(mb.basis_plus.conj() * (Phi @ basis_minus.conj()), axis=0)
    coeffs = np.maximum(c.real, 0.0)
    recon = ((mb.basis_plus * coeffs) @ basis_minus.T).ravel()
    if np.linalg.norm(recon - phi) > 1e-9:
        raise SparsityViolationError(
            "Schmidt reconstruction failed: pair is not complete for this state"
        )
    return coeffs, mb.basis_plus, basis_minus


class GeneralizedSchmidtExpansion(Record):
    """Per-component complex coefficients over the matched diagonal
    product basis |a>|a>, n_components x r, plus the induced subsystem
    eigenvalues |alpha|^2 of the same shape."""

    FIELDS = ("alphas", "subsystem_eigenvalues")


def simultaneous_expansion(dec: PureDecomposition, mb: MatchedBases,
                           state: BipartiteState) -> GeneralizedSchmidtExpansion:
    """Expand every component of a decomposition over the diagonal
    matched product vectors |a>|a>.

    Raises OffDiagonalLeak when a component has weight outside the
    diagonal span, which contradicts the common-twins property of the
    admixed states."""
    _check_decomposition_dims(dec, state.dim)
    r = len(mb.sigma_prime)
    _check_dims("basis", mb.basis_plus, mb.basis_minus, state, r)
    diag = (mb.basis_plus[:, None, :] * mb.basis_minus[None, :, :]).reshape(-1, r)
    phis = np.column_stack(dec.vectors)
    alphas = (diag.conj().T @ phis).T
    leaks = np.linalg.norm(phis - diag @ alphas.T, axis=0)
    leaking = np.flatnonzero(leaks > state.tol.residual_tol)
    if leaking.size:
        i = leaking[0]
        raise OffDiagonalLeakError(f"component {i} leaks {leaks[i]:.3e} outside the diagonal span")
    return GeneralizedSchmidtExpansion(alphas, np.abs(alphas) ** 2)


def compatibility_report(dec: PureDecomposition, mb: MatchedBases,
                         state: BipartiteState) -> dict:
    """Commutator residuals among {A_s, rho_s^(i), rho_s} per side.

    A_s is reconstructed as sum_a sigma'_a |a>_s <a|_s; all operators are
    simultaneously diagonal in the matched basis for a valid input.  With
    phi_i reshaped to Phi_i (d_plus x d_minus), the reduced components are
    Phi_i Phi_i† and Phi_i^T conj(Phi_i), one batched product per side."""
    _check_decomposition_dims(dec, state.dim)
    _check_dims("basis", mb.basis_plus, mb.basis_minus, state, len(mb.sigma_prime))
    Phi = np.stack(dec.vectors).reshape(-1, state.d_plus, state.d_minus)
    PhiT = Phi.transpose(0, 2, 1)
    sub = state.subsystems
    sides = {"+": (mb.basis_plus, Phi @ PhiT.conj(), sub.rho_plus),
             "-": (mb.basis_minus, PhiT @ Phi.conj(), sub.rho_minus)}
    report = {}
    for s, (B, components, total) in sides.items():
        ops = [("A", B @ np.diag(mb.sigma_prime) @ B.conj().T)] + [
            (f"rho^({i})", r) for i, r in enumerate(components)
        ] + [("rho", total)]
        for (name_x, X), (name_y, Y) in itertools.combinations(ops, 2):
            report[f"[{name_x}, {name_y}]_{s}"] = max_norm(X @ Y - Y @ X)
    return report
