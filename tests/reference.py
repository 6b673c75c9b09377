"""Reference helpers that the tests use as oracles.

No code path of twinobs needs them: the package takes each rank cut in
``linops.range_null_bases`` and ``BipartiteState``, groups eigenvalues in
``spectral.spectral_data`` and applies the twin operator by reshapes.
These are the dense or direct forms of the same objects, kept here
unchanged so that a drift of the package shows up as a mismatch."""

import numpy as np

from twinobs import linops
from twinobs.errors import DimensionMismatchError, NotPositiveError
from twinobs.linops import DEFAULT_TOL, hermitian_basis, range_null_bases


def range_null_projectors(H, tol: float = DEFAULT_TOL.rank_tol):
    """Projectors (R, N) onto the range and null space of a PSD operator,
    cut as in range_null_bases; raises NotPositive below -tol * max(lambda_max, 1)."""
    vals, V, _ = range_null_bases(H, tol)
    floor = tol * max(vals[-1], 1.0) if vals.size else tol
    if vals.size and vals[0] < -floor:
        raise NotPositiveError(f"eigenvalue {vals[0]:.3e} below -{floor:.3e}")
    R = V @ V.conj().T
    N = np.eye(H.shape[0], dtype=complex) - R
    return R, N


def null_basis(H, tol: float = DEFAULT_TOL.rank_tol) -> np.ndarray:
    return range_null_bases(H, tol)[2]


def coords_to_pair(x: np.ndarray, d_plus: int, d_minus: int):
    """Inverse of pair_to_coords.  Coordinates stacked as the columns of
    x give the pairs stacked along the first axis of both results."""
    x = np.asarray(x, dtype=float)
    np_, nm = d_plus**2, d_minus**2
    if x.ndim not in (1, 2) or x.shape[0] != np_ + nm:
        raise DimensionMismatchError("coordinate vector has wrong length")
    a_plus = np.einsum("g...,gij->...ij", x[:np_], hermitian_basis(d_plus))
    a_minus = np.einsum("g...,gij->...ij", x[np_:], hermitian_basis(d_minus))
    return a_plus, a_minus


def projector_at(data, a: float, cluster_tol: float) -> np.ndarray:
    """The projector of SpectralData data at the characteristic value a."""
    for v, P in zip(data.values, data.projectors):
        if abs(v - a) <= cluster_tol:
            return P
    raise KeyError(f"{a} is not a characteristic value")


def difference_operator(pair) -> np.ndarray:
    """A_plus ⊗ 1 - 1 ⊗ A_minus of an ObservablePair on the composite space."""
    return linops.kron(pair.a_plus, np.eye(pair.d_minus)) - linops.kron(
        np.eye(pair.d_plus), pair.a_minus
    )
