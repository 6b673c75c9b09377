"""Measurement-theoretic layer: Lüders collapse, event-equivalence
criteria, sharp (probability-one) values, and distant measurement."""

from __future__ import annotations

import numpy as np

from . import linops
from .errors import DimensionMismatchError, NotProjectorError, NotTwinPairError
from .linops import Record, ValueRecord, max_norm
from .spectral import _pair_spectra, spectral_data
from .states import BipartiteState
from .twins import ObservablePair, is_twin_pair

# Hermiticity, idempotence and commuting of events are judged within this.
_PROJECTOR_TOL = 1e-10
# The distant-measurement report's probability, collapse and expectation
# gaps pass within this.
_COLLAPSE_TOL = 1e-9


def _check_projector(P) -> np.ndarray:
    P = linops.hermitize(P, _PROJECTOR_TOL)
    if max_norm(P @ P - P) > _PROJECTOR_TOL:
        raise NotProjectorError("operator is not idempotent")
    return P


def _check_shape(A: np.ndarray, dim: int, name: str) -> None:
    if A.shape != (dim, dim):
        raise DimensionMismatchError(f"{name} shape {A.shape} does not match dimension {dim}")


class EventPair(Record):
    """Two events (projectors) on the composite space; commuting is
    computed from them."""

    FIELDS = ("E", "F", "commuting")

    def __init__(self, E, F):
        E = _check_projector(E)
        F = _check_projector(F)
        _check_shape(F, len(E), "F")
        super().__init__(E, F, max_norm(E @ F - F @ E) <= _PROJECTOR_TOL)


def luders_collapse(rho: np.ndarray, P, rank_tol: float = linops.DEFAULT_TOL.rank_tol):
    """Ideal-measurement state change rho -> P rho P / Tr(P rho).

    Returns (probability, post_state); the post state is None when the
    probability is numerically zero.  rho must be finite and of the
    shape of P, else ValueError or DimensionMismatch."""
    P = _check_projector(P)
    rho = linops.as_matrix(rho)
    _check_shape(rho, len(P), "rho")
    prob = float(np.real(np.trace(P @ rho)))
    if prob <= rank_tol:
        return max(prob, 0.0), None
    post = P @ rho @ P / prob
    return prob, post


class CriteriaReport(ValueRecord):
    """Residuals and verdicts of the three event-equivalence criteria.

    collapse: ||E rho E - F rho F||; algebraic: ||E rho - F rho||;
    implication holds the two conditional probabilities Tr(F E rho E)/Tr(E rho)
    and Tr(E F rho F)/Tr(F rho) when applicable (commuting events with
    positive probabilities), else None."""

    FIELDS = ("collapse_residual", "algebraic_residual", "implication_values", "tolerance")

    @property
    def collapse_verdict(self) -> bool:
        return self.collapse_residual <= self.tolerance

    @property
    def algebraic_verdict(self) -> bool:
        return self.algebraic_residual <= self.tolerance

    @property
    def implication_verdict(self) -> bool | None:
        if self.implication_values is None:
            return None
        return all(abs(v - 1.0) <= 1e-9 for v in self.implication_values)

    @property
    def coherent(self) -> bool:
        """All applicable criteria agree."""
        verdicts = [self.collapse_verdict, self.algebraic_verdict]
        if self.implication_verdict is not None:
            verdicts.append(self.implication_verdict)
        return len(set(verdicts)) == 1


def event_equivalence(state: BipartiteState, events: EventPair) -> CriteriaReport:
    rho = state.rho
    E, F = events.E, events.F
    _check_shape(E, state.dim, "event")
    collapse = max_norm(E @ rho @ E - F @ rho @ F)
    algebraic = max_norm(E @ rho - F @ rho)
    implication = None
    if events.commuting:
        pE = float(np.real(np.trace(E @ rho)))
        pF = float(np.real(np.trace(F @ rho)))
        if pE > state.tol.rank_tol and pF > state.tol.rank_tol:
            implication = (
                float(np.real(np.trace(F @ E @ rho @ E))) / pE,
                float(np.real(np.trace(E @ F @ rho @ F))) / pF,
            )
    return CriteriaReport(collapse, algebraic, implication, state.tol.residual_tol)


def certainty_test(state: BipartiteState, A):
    """Sharp value of a composite observable A in rho, if any.

    Returns a with A rho = a rho (and, equivalently, Tr(P_a rho) = 1 for
    the characteristic projector at a), else None.  The candidate value
    is Tr(A rho), which equals a exactly when one exists."""
    A = linops.hermitize(A, state.tol.herm_tol)
    _check_shape(A, state.dim, "observable")
    rho = state.rho
    a = float(np.real(np.trace(A @ rho)))
    if max_norm(A @ rho - a * rho) > state.tol.residual_tol:
        return None
    data = spectral_data(A, state.tol.cluster_tol)
    idx = int(np.argmin(np.abs(data.values - a)))
    prob = float(np.real(np.trace(data.projectors[idx] @ rho)))
    if prob < 1.0 - state.tol.residual_tol:
        return None
    return a


class MeasurementOutcome(Record):
    """One detectable result of measuring either member of a twin pair.

    The Lüders states are kept as normalised factors Y_s of shape
    (d_plus, d_minus, k): Y_s = (P ⊗ 1) C / sqrt(prob) on the plus side
    and (1 ⊗ P) C / sqrt(prob) on the minus side, C the factor of rho.
    The post and conditional states are accessors that compute a fresh
    array from them on each read: the post state is Y Y† (D x D) and
    the conditional state of the other side a partial trace of it."""

    FIELDS = ("value", "probability_plus", "probability_minus", "factor_plus", "factor_minus")

    @staticmethod
    def _gram(Y: np.ndarray) -> np.ndarray:
        Y = Y.reshape(-1, Y.shape[-1])
        return Y @ Y.conj().T

    @property
    def post_state_plus(self) -> np.ndarray:
        return self._gram(self.factor_plus)

    @property
    def post_state_minus(self) -> np.ndarray:
        return self._gram(self.factor_minus)

    @property
    def conditional_minus(self) -> np.ndarray:
        """State of S_- given the plus-side event."""
        Y = self.factor_plus
        return np.einsum("ijk,ilk->jl", Y, Y.conj())

    @property
    def conditional_plus(self) -> np.ndarray:
        """State of S_+ given the minus-side event."""
        Y = self.factor_minus
        return np.einsum("ijk,ljk->il", Y, Y.conj())


class DistantMeasurementReport(Record):
    """Outcomes and gaps of measuring either member of a twin pair.

    max_probability_gap is the largest |prob+ - prob-| over outcomes.
    max_collapse_gap is a witness, like ``is_twin_pair``'s residual:
    the Cauchy-Schwarz bound on max|Y+ Y+† - Y- Y-†| for the outcomes
    whose bound is within tolerance, the exact max-norm for the others.
    It may exceed the exact gap, but it is within tolerance exactly when
    the exact gap is, so ``passed`` is the verdict of the exact gaps."""

    FIELDS = ("outcomes", "expectation_plus", "expectation_minus", "max_probability_gap",
              "max_collapse_gap", "tolerance")

    @property
    def passed(self) -> bool:
        return (
            self.max_probability_gap <= self.tolerance
            and self.max_collapse_gap <= self.tolerance
            and abs(self.expectation_plus - self.expectation_minus) <= self.tolerance
        )


def distant_measurement_report(state: BipartiteState,
                               pair: ObservablePair) -> DistantMeasurementReport:
    """Indistinguishability of the two sides of a twin pair in ideal
    measurement: per detectable value, equal probabilities and equal
    Lüders-collapsed states, plus equal expectation values.

    The pair is first checked by ``twins.is_twin_pair``, the twin test on
    the factor C of rho: pair dims that do not match the state raise
    DimensionMismatchError, and a pair that is not a twin raises
    NotTwinPairError, a ValueError, whose residual is the test's witness.

    The event for value a is B P' B†, P' the cluster eigenprojector of
    A'_s at a in range coordinates (V V† of orthonormal eigenvectors, so
    not checked again) and B the range basis of rho_s.  The spectral data
    come from ``spectral._pair_spectra``, so a pair that
    ``find_complete_twins`` returned, or that this state was already
    asked about, is not split or eigendecomposed again.  This is exact:
    the characteristic projector of the full A_s at a differs from
    B P' B† by a part P'' on the null space of rho_s, and (P'' ⊗ 1) rho
    = 0, so probabilities, collapsed and conditional states are the same.

    The outcomes are computed from the factor C of rho (rho = C C† over
    its rank cut, ``BipartiteState.factor``), all values of one side at
    once as X = (B ⊗ 1)(P' ⊗ 1)(B† ⊗ 1) C, or its mirror on the minus
    side: C compressed to the range, the stacked r_s x r_s P' applied in
    one batched product, X lifted back; no d_s x d_s projector and no
    D x D product with rho is formed.  Then prob = ||X||_F^2, and each outcome
    keeps Y = X / sqrt(prob), normalised in place so that no copy of X
    outlives it; its Lüders state Y Y† and the other side's
    conditional state, a partial trace of Y Y† that equals that of
    (P ⊗ 1) rho / prob because P acts on the traced factor, are computed
    only when read.  These are the outputs of the rank cut C C†: they
    differ from those of rho by at most ``state.cut_error`` (no more
    than rank_tol * lambda_max) over prob, and only by rounding for a
    rho of exact low rank.  The expectations are read off the reduced
    states.

    The collapse gap is decided on the factors by ``_max_collapse_gap``:
    an outcome whose Cauchy-Schwarz bound on the max-norm of
    Y+ Y+† - Y- Y-† is within _COLLAPSE_TOL forms no D x D product, and
    only the others have the exact max-norm formed, into one reused
    D x D buffer.  max_collapse_gap is the resulting witness (see
    ``DistantMeasurementReport``)."""
    ok, residual = is_twin_pair(state, pair)
    if not ok:
        raise NotTwinPairError(f"not a twin pair for this state (residual {residual:.3e})",
                               residual)
    sp, sm = _pair_spectra(pair, state)
    sub = state.subsystems
    Bp, Bm = sub.range_plus, sub.range_minus
    dp, dm = state.d_plus, state.d_minus
    C = state.factor
    k = C.shape[1]
    # (B P' B† ⊗ 1) C and (1 ⊗ B P' B†) C of every outcome as (n, d_plus,
    # d_minus, k): compressed by B†, projected by the stacked P', lifted by B
    Y_plus = Bp @ (np.array(sp.projectors) @ (Bp.conj().T @ C.reshape(dp, dm * k)))
    Y_plus = Y_plus.reshape(-1, dp, dm, k)
    Y_minus = Bm @ (np.array(sm.projectors)[:, None] @ (Bm.conj().T @ C.reshape(dp, dm, k)))
    prob_plus = np.linalg.norm(Y_plus.reshape(len(Y_plus), -1), axis=1) ** 2
    prob_minus = np.linalg.norm(Y_minus.reshape(len(Y_minus), -1), axis=1) ** 2
    keep = (prob_plus > state.tol.rank_tol) & (prob_minus > state.tol.rank_tol)
    prob_plus, prob_minus = prob_plus[keep], prob_minus[keep]
    Y_plus, Y_minus = Y_plus[keep], Y_minus[keep]
    Y_plus /= np.sqrt(prob_plus)[:, None, None, None]
    Y_minus /= np.sqrt(prob_minus)[:, None, None, None]
    values = ((sp.values + sm.values) / 2)[keep]
    outcomes = tuple(map(MeasurementOutcome, values.tolist(), prob_plus.tolist(),
                         prob_minus.tolist(), Y_plus, Y_minus))
    return DistantMeasurementReport(
        outcomes=outcomes,
        expectation_plus=float(np.real(np.trace(pair.a_plus @ sub.rho_plus))),
        expectation_minus=float(np.real(np.trace(pair.a_minus @ sub.rho_minus))),
        max_probability_gap=float(np.max(np.abs(prob_plus - prob_minus), initial=0.0)),
        max_collapse_gap=_max_collapse_gap(Y_plus.reshape(len(values), -1, k),
                                           Y_minus.reshape(len(values), -1, k)),
        tolerance=_COLLAPSE_TOL,
    )


def _max_collapse_gap(Y_plus: np.ndarray, Y_minus: np.ndarray) -> float:
    """Witness of max_i ||Y+_i Y+_i† - Y-_i Y-_i†||_max <= _COLLAPSE_TOL over
    stacked (n, D, k) factors, as ``linops.product_max_norm_within`` is
    for one product.

    With S = Y+ + Y- and Δ = Y+ - Y-, Y+ Y+† - Y- Y-† = (S Δ† + Δ S†)/2,
    whose entries are bounded by max_j ||S_j|| max_j ||Δ_j|| over rows
    (Cauchy-Schwarz); the n bounds take two batched row-norm passes.  An
    outcome whose bound is within the tolerance contributes its bound;
    only the others have their difference formed, as [Y+ Y-] [Y+ -Y-]†
    into one reused D x D buffer, and contribute its max-norm.  The maximum is
    within the tolerance exactly when the exact max-norm of every
    outcome is, and it is that exact maximum whenever it exceeds it."""
    if not len(Y_plus):
        return 0.0
    bound = (np.linalg.norm(Y_plus + Y_minus, axis=2).max(axis=1)
             * np.linalg.norm(Y_plus - Y_minus, axis=2).max(axis=1))
    decided = bound <= _COLLAPSE_TOL
    gap = float(bound[decided].max(initial=0.0))
    if decided.all():
        return gap
    Y_plus, Y_minus = Y_plus[~decided], Y_minus[~decided]
    left = np.concatenate([Y_plus, Y_minus], axis=2)
    right = np.concatenate([Y_plus, -Y_minus], axis=2)
    right = np.conj(right, out=right).transpose(0, 2, 1)
    D = Y_plus.shape[1]
    buf = np.empty((D, D), dtype=left.dtype)
    modulus = np.empty((D, D))
    for a, b in zip(left, right):
        np.matmul(a, b, out=buf)
        gap = max(gap, float(np.abs(buf, out=modulus).max()))
    return gap
