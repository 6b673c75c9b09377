"""Two-spin scenario generators.

Single-particle basis order is m descending (m = j, j-1, ..., -j), so
index 0 is the "up" state and s_z = diag(j, ..., -j).  Coupled states
are built at runtime by the ladder-operator construction and verified
against the S^2 and S_z eigen-relations, never transcribed from tables.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedSpinError, WeightError
from .states import BipartiteState, PureDecomposition, mix
from .linops import DEFAULT_TOL, Tolerances, ValueRecord

SUPPORTED_SPINS = (0.5, 1.0)


def spin_dim(j: float) -> int:
    return int(round(2 * j)) + 1


def spin_z(j: float) -> np.ndarray:
    return np.diag(np.arange(j, -j - 1, -1.0)).astype(complex)


def spin_lowering(j: float) -> np.ndarray:
    """S_- in the m-descending basis: S_-|j,m> = sqrt(j(j+1)-m(m-1))|j,m-1>."""
    m = np.arange(j, -j, -1.0)  # states that can be lowered
    return np.diag(np.sqrt(j * (j + 1) - m * (m - 1)), -1).astype(complex)


def coupled_basis(j1: float, j2: float):
    """Unitary from the product basis |m1,m2> to the coupled |S,M> basis.

    Columns are ordered by S descending, M descending within S; the
    Condon-Shortley convention fixes signs (the component with maximal
    m1 is positive).  Returns (U, labels) with labels[k] = (S, M) for
    column k.
    """
    if j1 not in SUPPORTED_SPINS or j2 not in SUPPORTED_SPINS:
        raise UnsupportedSpinError(f"spins must be in {SUPPORTED_SPINS}, got ({j1}, {j2})")
    d1, d2 = spin_dim(j1), spin_dim(j2)
    L = np.kron(spin_lowering(j1), np.eye(d2)) + np.kron(np.eye(d1), spin_lowering(j2))
    m1 = np.arange(j1, -j1 - 1, -1.0)
    m2 = np.arange(j2, -j2 - 1, -1.0)
    total_m = np.add.outer(m1, m2).ravel()  # composite index i1*d2 + i2

    columns: dict[tuple, np.ndarray] = {}
    s_values = np.arange(j1 + j2, abs(j1 - j2) - 1, -1.0)
    for S in s_values:
        # Highest-weight |S,S>: in the M=S product subspace, orthogonal to
        # every already-built |S',S> with S' > S.
        sel = np.flatnonzero(np.abs(total_m - S) < 1e-9)
        existing = [columns[key] for key in columns if abs(key[1] - S) < 1e-9]
        sub = np.eye(d1 * d2)[:, sel]
        if existing:
            E = np.column_stack(existing)
            sub = sub - E @ (E.conj().T @ sub)
        # The orthogonal complement within the M=S subspace is 1-dim.
        u, sv, _ = np.linalg.svd(sub, full_matrices=False)
        top = u[:, 0]
        # Sign convention: maximal-m1 component positive.
        nz = np.flatnonzero(np.abs(top) > 1e-9)
        top = top * np.sign(top[nz[0]].real)
        columns[(S, S)] = top
        vec = top
        M = S
        while M > -S + 1e-9:
            vec = L @ vec
            vec = vec / np.linalg.norm(vec)
            M -= 1.0
            columns[(S, M)] = vec

    labels = sorted(columns, key=lambda sm: (-sm[0], -sm[1]))
    U = np.column_stack([columns[sm] for sm in labels])
    return U, labels


_SCENARIO_TABLE = {
    # name -> (j1, j2, coupled components (S, M) spanning the range)
    "example1_range10_00": (0.5, 0.5, [(1.0, 0.0), (0.0, 0.0)]),
    "example1_range10_1m1": (0.5, 0.5, [(1.0, 0.0), (1.0, -1.0)]),
    "example2_ms0": (1.0, 1.0, [(2.0, 0.0), (1.0, 0.0), (0.0, 0.0)]),
    "example2_ms1": (1.0, 1.0, [(2.0, 1.0), (1.0, 1.0)]),
}

SCENARIO_NAMES = tuple(_SCENARIO_TABLE)


class SpinScenario(ValueRecord):
    """A named mixture of coupled two-spin states; weights None means
    equal weights."""

    FIELDS = ("name", "weights")

    def __init__(self, name: str, weights=None):
        if name not in _SCENARIO_TABLE:
            raise UnsupportedSpinError(
                f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}"
            )
        n = len(_SCENARIO_TABLE[name][2])
        if weights is not None:
            weights = tuple(float(x) for x in weights)
            if len(weights) != n:
                raise WeightError(f"scenario {name} needs {n} weights")
            if not all(x > 0 for x in weights) or abs(sum(weights) - 1.0) > 1e-10:
                raise WeightError("weights must be positive and sum to 1")
        super().__init__(name, weights)


def scenario_decomposition(s: SpinScenario) -> tuple[PureDecomposition, int, int]:
    j1, j2, comps = _SCENARIO_TABLE[s.name]
    U, labels = coupled_basis(j1, j2)
    vectors = [U[:, labels.index(sm)] for sm in comps]
    weights = s.weights if s.weights is not None else (1.0 / len(comps),) * len(comps)
    return (
        PureDecomposition(weights=tuple(weights), vectors=tuple(vectors)),
        spin_dim(j1),
        spin_dim(j2),
    )


def build_scenario(s: SpinScenario, tol: Tolerances = DEFAULT_TOL) -> BipartiteState:
    """Mixture of the named coupled states (equal weights by default).

    The twin structure depends only on the range of the state, so the
    weights are free parameters."""
    dec, d1, d2 = scenario_decomposition(s)
    return mix(dec, d1, d2, tol)
