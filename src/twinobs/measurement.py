"""Measurement-theoretic layer: Lüders collapse, event-equivalence
criteria, sharp (probability-one) values, and distant measurement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .errors import NotProjectorError
from .linops import max_norm
from .spectral import _detectable_data, _lift, spectral_data, split_detectable
from .states import BipartiteState
from .twins import ObservablePair, is_twin_pair


def _check_projector(P, tol: float = 1e-10) -> np.ndarray:
    P = linops.hermitize(P, tol)
    if max_norm(P @ P - P) > tol:
        raise NotProjectorError("operator is not idempotent")
    return P


@dataclass(frozen=True)
class EventPair:
    """Two events (projectors) on the composite space."""

    E: np.ndarray
    F: np.ndarray
    commuting: bool = None

    def __post_init__(self):
        E = _check_projector(self.E)
        F = _check_projector(self.F)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "F", F)
        if self.commuting is None:
            object.__setattr__(self, "commuting", max_norm(E @ F - F @ E) <= 1e-10)


def luders_collapse(rho: np.ndarray, P, rank_tol: float = linops.DEFAULT_TOL.rank_tol):
    """Ideal-measurement state change rho -> P rho P / Tr(P rho).

    Returns (probability, post_state); the post state is None when the
    probability is numerically zero."""
    P = _check_projector(P)
    rho = np.asarray(rho, dtype=complex)
    prob = float(np.real(np.trace(P @ rho)))
    if prob <= rank_tol:
        return max(prob, 0.0), None
    post = P @ rho @ P / prob
    return prob, post


@dataclass(frozen=True)
class CriteriaReport:
    """Residuals and verdicts of the three event-equivalence criteria.

    collapse: ||E rho E - F rho F||; algebraic: ||E rho - F rho||;
    implication holds the two conditional probabilities Tr(F E rho E)/Tr(E rho)
    and Tr(E F rho F)/Tr(F rho) when applicable (commuting events with
    positive probabilities), else None."""

    collapse_residual: float
    algebraic_residual: float
    implication_values: tuple | None
    tolerance: float

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
    return CriteriaReport(
        collapse_residual=collapse,
        algebraic_residual=algebraic,
        implication_values=implication,
        tolerance=state.tol.residual_tol,
    )


def certainty_test(state: BipartiteState, A):
    """Sharp value of a composite observable A in rho, if any.

    Returns a with A rho = a rho (and, equivalently, Tr(P_a rho) = 1 for
    the characteristic projector at a), else None.  The candidate value
    is Tr(A rho), which equals a exactly when one exists."""
    A = linops.hermitize(A, state.tol.herm_tol)
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


@dataclass(frozen=True)
class MeasurementOutcome:
    """One detectable result of measuring either member of a twin pair."""

    value: float
    probability_plus: float
    probability_minus: float
    post_state_plus: np.ndarray
    post_state_minus: np.ndarray
    conditional_minus: np.ndarray  # state of S_- given the plus-side event
    conditional_plus: np.ndarray   # state of S_+ given the minus-side event


@dataclass(frozen=True)
class DistantMeasurementReport:
    outcomes: tuple
    expectation_plus: float
    expectation_minus: float
    max_probability_gap: float
    max_collapse_gap: float
    tolerance: float

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

    The event for value a is the cluster eigenprojector of the detectable
    part A'_s at a, lifted by the range basis of rho_s.  This is exact:
    the characteristic projector of the full A_s at a differs from it by
    a part P'' on the null space of rho_s, and (P'' ⊗ 1) rho = 0, so
    probabilities, collapsed and conditional states are the same.

    Local projectors act through reshaped products (linops.apply_local
    and apply_local_right), never as dense composite operators.  The
    conditional states are partial traces of (P ⊗ 1) rho, which equal
    those of rho (P ⊗ 1) because P acts on the traced factor; the
    expectations are read off the reduced states."""
    ok, residual = is_twin_pair(state, pair)
    if not ok:
        raise ValueError(f"not a twin pair for this state (residual {residual:.3e})")
    split = split_detectable(pair, state)
    sp, sm = _detectable_data(split, state.tol.cluster_tol)
    dp, dm = state.d_plus, state.d_minus

    def collapse(P, side):
        """(probability, Lüders state, other side's conditional state) of
        the local event P on `side`; None at zero probability."""
        P = _check_projector(P)
        P_rho = linops.apply_local(P, state.rho, dp, dm, side)
        prob = float(np.real(np.trace(P_rho)))
        if prob <= state.tol.rank_tol:
            return None
        post = linops.apply_local_right(P_rho, P, dp, dm, side)
        post *= 1.0 / prob  # dividing a complex array by a real runs complex division
        # tracing out the factor P acts on, rho P_loc and P_loc rho agree
        return prob, post, linops.partial_trace(P_rho, dp, dm, side) / prob

    outcomes = []
    max_p_gap = 0.0
    max_c_gap = 0.0
    for a, Pp, Pm in zip((sp.values + sm.values) / 2, sp.projectors, sm.projectors):
        plus = collapse(_lift(split.range_basis_plus, Pp), "+")
        minus = collapse(_lift(split.range_basis_minus, Pm), "-")
        if plus is None or minus is None:
            continue
        (prob_p, post_p, cond_minus), (prob_m, post_m, cond_plus) = plus, minus
        max_p_gap = max(max_p_gap, abs(prob_p - prob_m))
        max_c_gap = max(max_c_gap, max_norm(post_p - post_m))
        outcomes.append(
            MeasurementOutcome(
                value=float(a),
                probability_plus=prob_p,
                probability_minus=prob_m,
                post_state_plus=post_p,
                post_state_minus=post_m,
                conditional_minus=cond_minus,
                conditional_plus=cond_plus,
            )
        )
    sub = state.subsystems
    return DistantMeasurementReport(
        outcomes=tuple(outcomes),
        expectation_plus=float(np.real(np.trace(pair.a_plus @ sub.rho_plus))),
        expectation_minus=float(np.real(np.trace(pair.a_minus @ sub.rho_minus))),
        max_probability_gap=max_p_gap,
        max_collapse_gap=max_c_gap,
        tolerance=1e-9,
    )
