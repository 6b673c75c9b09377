"""Bipartite density matrices, their reductions and range/null geometry."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linops
from .errors import NotNormalizedError, NotPositiveError, WeightError
from .linops import DEFAULT_TOL, Record, Tolerances, ValueRecord, max_norm


class BipartiteState(Record):
    """A density matrix rho on H_plus ⊗ H_minus.

    rho is symmetrized on ingestion; the trace must be 1 within 1e-6
    (it is renormalized to exactly 1).  Construction takes the rank cut
    of rho (``linops.rank_cut`` at rank_tol), the one pass over rho, and
    reads positivity off it; ``subsystems`` (the reductions, their rank
    cuts and eigenspace labels) is computed once, on first use.  rho is
    read-only and tol frozen, so the cached arrays never go stale, and
    they are read-only too.  The cut is taken on one of two paths, chosen
    from rho itself:

    - factor path: pivoted Cholesky of rho and Rayleigh-Ritz on the
      pivot columns (``linops.low_rank_cut``), O(D^2 k) for rank k.  It
      is taken when tr(rho)^2 / ||rho||_F^2, a lower bound on the rank,
      is at most D // 8, at most D // 8 pivots reach the cut, and the
      certificate holds: with e = ||rho - C C†||_F, every kept Ritz
      value and zero lie farther than e (plus rounding) from the cut,
      so the cut keeps as many eigenvalues as that of a full eigh.  Every
      eigenvalue of rho then lies within e < rank_tol * lambda_max of a
      kept Ritz value or of zero, so rho is positive within rank_tol.
    - eigh path: one D x D ``linops.eigh`` of rho, for every other rho;
      it raises NotPositiveError when
      lambda_min < -rank_tol * max(lambda_max, 1).

    The state keeps the cut as one triple, the same on both paths:
    the eigenvalues it computed (all D on the eigh path, only the k
    kept Ritz values on the factor path), the D x k range basis V and
    ``cut_error``.  ``spectrum`` is (eigenvalues, V).  ``factor`` is the
    cut as a D x k matrix C = V diag(sqrt(lambda_kept)) over the kept
    eigen- or Ritz pairs, and ``cut_error`` bounds ||rho - C C†|| in
    spectral norm: the largest dropped eigenvalue on the eigh path, e on
    the factor path, at most rank_tol * lambda_max on both.  The
    measurement report, ``simplified_matrix``, ``restrict_to_relevant``,
    the geometry check and the twin solve work on C and its range basis;
    the state keeps no projector and no null basis of rho.
    """

    FIELDS = ("d_plus", "d_minus", "rho", "tol", "_cut")

    def __init__(self, d_plus: int, d_minus: int, rho, tol: Tolerances = DEFAULT_TOL):
        dim = d_plus * d_minus
        rho = linops.hermitize(rho, tol.herm_tol)
        if rho.shape != (dim, dim):
            raise linops.DimensionMismatchError(
                f"rho shape {rho.shape} does not match dims {d_plus}x{d_minus}"
            )
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > 1e-6:
            raise NotNormalizedError(f"trace(rho) = {tr}, not 1 within 1e-6")
        # renormalize only a genuine deviation; a trace within rounding of 1
        # is left untouched so re-ingesting a state is bitwise stable
        if abs(tr - 1.0) > 1e-13:
            rho = rho / tr
        # (eigenvalues, range basis, cut_error) of the rank cut of rho
        cut = linops.low_rank_cut(rho, tol.rank_tol, dim // 8)
        if cut is None:
            vals, V, N = linops.range_null_bases(rho.view(linops._Hermitian), tol.rank_tol)
            if vals[0] < -tol.rank_tol * max(vals[-1], 1.0):
                raise NotPositiveError(f"rho has negative eigenvalue {vals[0]:.3e}")
            cut = vals, V, np.max(np.abs(vals[:N.shape[1]]), initial=0.0)
        _read_only(*cut[:2])
        rho.flags.writeable = False
        super().__init__(d_plus, d_minus, rho, tol, cut)

    @property
    def dim(self) -> int:
        return self.d_plus * self.d_minus

    @property
    def spectrum(self) -> tuple:
        """(eigenvalues ascending, range basis) of rho at rank_tol."""
        return self._cut[:2]

    @property
    def cut_error(self) -> float:
        """Bound on ||rho - C C†||_2 for the cached factor C."""
        return self._cut[2]

    @cached_property
    def factor(self) -> np.ndarray:
        """C = V_range diag(sqrt(lambda_kept)), a read-only D x k array."""
        vals, range_basis, _ = self._cut
        kept = vals[len(vals) - range_basis.shape[1]:]
        return _read_only(range_basis * np.sqrt(kept))[0]

    @cached_property
    def subsystems(self) -> "SubsystemPair":
        """rho_plus = Tr_- rho and rho_minus = Tr_+ rho with their rank cuts
        and eigenspace labels.

        The labels of a side are the groups of ``linops.group_starts`` over
        its eigenvalues at the side's _grouping_gap.  Twins of the kept
        range commute exactly with the reductions of the rank cut C C† of
        rho.  Those differ from rho_s by rounding and by the partial trace
        of rho - C C†, at most d_other times its spectral norm, which
        ``cut_error`` bounds.  The twin solve and the complete-twin search
        both read these labels."""
        rho = self.rho.view(linops._Hermitian)
        rp = linops.partial_trace(rho, self.d_plus, self.d_minus, "-")
        rm = linops.partial_trace(rho, self.d_plus, self.d_minus, "+")
        plus = linops.range_null_bases(rp.view(linops._Hermitian), self.tol.rank_tol)
        minus = linops.range_null_bases(rm.view(linops._Hermitian), self.tol.rank_tol)
        eps = np.finfo(float).eps

        def labels(values, d_other):
            lam = max(values[-1], 0.0)
            gap = _grouping_gap(lam, eps * lam + d_other * self.cut_error, self.tol.rank_tol)
            return np.cumsum(linops.group_starts(values, gap)) - 1

        return SubsystemPair(*_read_only(rp, rm, *plus, *minus, labels(plus[0], self.d_minus),
                                         labels(minus[0], self.d_plus)))

    def range_basis(self) -> np.ndarray:
        return self._cut[1]


# An eigenvector error of a reduced state is held this many times below
# rank_tol, so that it cannot push a twin over the kernel cut.
_GROUPING_MARGIN = 10.0


def _grouping_gap(lam_max: float, perturbation: float, rank_tol: float) -> float:
    """Smallest eigenvalue gap of a reduced state at which its commutant
    basis splits two eigenspaces.

    perturbation bounds the distance of rho_s from an operator that every
    twin commutes with exactly.  Across a gap g the eigenvectors are then
    wrong by about perturbation / g, which this gap keeps _GROUPING_MARGIN
    times below rank_tol.  The gap is also at least sqrt(rank_tol) *
    lambda_max, so that a direction across two groups has a singular
    value far above the cut.  Grouping more coarsely is always exact; it
    only keeps more coordinates."""
    if rank_tol == 0:
        return np.inf
    return max(np.sqrt(rank_tol) * lam_max, _GROUPING_MARGIN * perturbation / rank_tol)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class SubsystemPair(Record):
    """Reduced states with the eigenvalues (ascending) and orthonormal
    range/null bases of each, cut at rank_tol, and the eigenspace label
    of each eigenvalue (see ``BipartiteState.subsystems``)."""

    FIELDS = ("rho_plus", "rho_minus", "values_plus", "range_plus", "null_plus", "values_minus",
              "range_minus", "null_minus", "labels_plus", "labels_minus")


class PureDecomposition(Record):
    """A convex decomposition rho = sum_i w_i |phi_i><phi_i| over unit
    vectors on the composite space."""

    FIELDS = ("weights", "vectors")

    def __init__(self, weights, vectors):
        w = np.asarray(weights, dtype=float)
        if len(weights) != len(vectors) or len(vectors) == 0:
            raise WeightError("weights and vectors must be nonempty and equal length")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise WeightError("weights must be positive and finite")
        if abs(w.sum() - 1.0) > 1e-10:
            raise WeightError(f"weights sum to {w.sum()}, not 1")
        vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
        for n in map(np.linalg.norm, vecs):
            if not abs(n - 1.0) <= 1e-10:  # NaN fails too
                raise NotNormalizedError(f"component norm {n}, not 1 within 1e-10")
        super().__init__(tuple(float(x) for x in w), tuple(vecs))


def from_pure(phi, d_plus: int, d_minus: int, tol: Tolerances = DEFAULT_TOL) -> BipartiteState:
    """Rank-1 state |phi><phi| from a unit vector."""
    phi = np.asarray(phi, dtype=complex).ravel()
    if phi.size != d_plus * d_minus:
        raise linops.DimensionMismatchError(
            f"vector length {phi.size} does not match dims {d_plus}x{d_minus}"
        )
    n = np.linalg.norm(phi)
    if not abs(n - 1.0) <= 1e-10:  # NaN fails too
        raise NotNormalizedError(f"norm {n}, not 1 within 1e-10")
    rho = np.outer(phi, phi.conj())
    return BipartiteState(d_plus=d_plus, d_minus=d_minus, rho=rho, tol=tol)


def mix(dec: PureDecomposition, d_plus: int, d_minus: int,
        tol: Tolerances = DEFAULT_TOL) -> BipartiteState:
    """State built from a pure decomposition."""
    dim = d_plus * d_minus
    _check_decomposition_dims(dec, dim)
    rho = np.zeros((dim, dim), dtype=complex)
    for w, v in zip(dec.weights, dec.vectors):
        rho += w * np.outer(v, v.conj())
    return BipartiteState(d_plus=d_plus, d_minus=d_minus, rho=rho, tol=tol)


def _check_decomposition_dims(dec: PureDecomposition, dim: int) -> None:
    """Raises DimensionMismatchError unless every component has length dim."""
    if any(v.size != dim for v in dec.vectors):
        raise linops.DimensionMismatchError("component vector has wrong length")


class GeometryReport(ValueRecord):
    """Max-norm residuals of the range/null-space relations between the
    composite state and its reductions."""

    FIELDS = ("residuals", "tolerance")

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def verify_subspace_geometry(state: BipartiteState) -> GeometryReport:
    """Check R = R(R_plus ⊗ R_minus), R = (R_s ⊗ 1)R, N_s-inclusions and
    the annihilation of rho by null vectors of a reduction, on the range
    basis V of rho (R = V V†) by local products with the d_s x d_s range
    projectors R_s, so no composite operator is formed:
    R - R(R_plus ⊗ R_minus) = V(V - (R_plus ⊗ R_minus)V)†, and
    R - (R_s ⊗ 1)R = (V - (R_s ⊗ 1)V)V† is -((N_s ⊗ 1)N - N_s ⊗ 1) exactly,
    so one value serves both keys.  rho (N_plus ⊗ 1) has the max-norm of
    its adjoint (R_plus ⊗ 1)rho - rho."""
    sub = state.subsystems
    dims = state.d_plus, state.d_minus
    Rp, Rm = (B @ B.conj().T for B in (sub.range_plus, sub.range_minus))
    V = state.range_basis()
    Vp = linops.apply_local(Rp, V, *dims, "+")
    r_plus, r_minus = (max_norm((V - Vs) @ V.conj().T)
                       for Vs in (Vp, linops.apply_local(Rm, V, *dims, "-")))
    residuals = {
        "R_eq_R_RpRm": max_norm(V @ (V - linops.apply_local(Rm, Vp, *dims, "-")).conj().T),
        "R_eq_Rp1_R": r_plus, "R_eq_1Rm_R": r_minus,
        "Np1_N_eq_Np1": r_plus, "1Nm_N_eq_1Nm": r_minus,
    }
    rho_null = linops.apply_local(Rp, state.rho, *dims, "+")
    rho_null -= state.rho
    residuals["rho_annihilates_null_plus"] = max_norm(rho_null)
    return GeometryReport(residuals=residuals, tolerance=state.tol.residual_tol)


class RelevantRestriction(Record):
    """rho restricted to the product of the subsystem ranges, together
    with the embedding bases in both directions: basis_plus is d_plus x
    r_plus and basis_minus d_minus x r_minus, orthonormal columns."""

    FIELDS = ("rho_prime", "basis_plus", "basis_minus")

    def embed(self, X: np.ndarray) -> np.ndarray:
        """Operator on R_plus ⊗ R_minus -> operator on the full space:
        (B_plus ⊗ B_minus) X (B_plus ⊗ B_minus)†, a compression by the B_s†.
        Raises DimensionMismatchError unless X is (r_plus r_minus) square."""
        r = self.basis_plus.shape[1] * self.basis_minus.shape[1]
        if np.shape(X) != (r, r):
            raise linops.DimensionMismatchError(
                f"operator of shape {np.shape(X)} on a relevant space of dimension {r}"
            )
        adjoints = self.basis_plus.conj().T, self.basis_minus.conj().T
        Y = linops.local_compress(X, *adjoints).reshape(-1, len(X))
        return linops.local_compress(Y.conj().T, *adjoints).reshape(len(Y), -1).conj().T


def restrict_to_relevant(state: BipartiteState) -> RelevantRestriction:
    """Compress rho to R_plus ⊗ R_minus; lossless because the range of
    rho lies inside that product subspace.

    rho_prime = Y Y† with Y = (B_plus ⊗ B_minus)† C from the factor C, so
    no composite basis is formed: it is the compression of the rank cut
    C C†, within the dropped tail (at most rank_tol * lambda_max) of
    B† rho B."""
    sub = state.subsystems
    Bp, Bm = sub.range_plus, sub.range_minus
    Y = linops.local_compress(state.factor, Bp, Bm).reshape(Bp.shape[1] * Bm.shape[1], -1)
    return RelevantRestriction(rho_prime=Y @ Y.conj().T, basis_plus=Bp, basis_minus=Bm)
