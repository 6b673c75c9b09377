"""Dense complex linear algebra primitives.

Operators are plain complex numpy arrays; ``kernel_basis`` alone keeps a
real input real, so the real twin constraint system is solved in real
arithmetic.  The composite index convention is
i = i_plus * d_minus + i_minus throughout the package, which matches
``numpy.kron(A_plus, A_minus)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    NonHermitianError,
)


class Record:
    """Base of the package's records.  A record declares its fields once,
    as the tuple of names FIELDS; this __init__, the one that stores them,
    takes a value for each, by position in FIELDS order or by name.  A
    record that validates its input stores through it from its own
    __init__.  Fields are read-only; a record compares and hashes by identity."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.FIELDS
        values = self.__dict__
        values.update(zip(fields, args))
        for name in fields[len(args):]:
            if name not in kwargs:
                break
            values[name] = kwargs[name]
        else:
            if len(args) + len(kwargs) == len(fields):
                return
        raise TypeError(f"{type(self).__name__} takes the fields {fields}, got "
                        f"{len(args)} by position and {sorted(kwargs)} by name")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")


class ValueRecord(Record):
    """A record of plain values, which compares and hashes by its fields."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class Tolerances(ValueRecord):
    """Numerical policy knobs.

    rank_tol is relative to the largest eigenvalue when deciding
    range/null splits; the remaining tolerances are absolute.  Each must
    be finite and nonnegative.
    """

    FIELDS = ("rank_tol", "residual_tol", "cluster_tol", "herm_tol")

    def __init__(self, rank_tol: float = 1e-10, residual_tol: float = 1e-8,
                 cluster_tol: float = 1e-8, herm_tol: float = 1e-8):
        super().__init__(rank_tol, residual_tol, cluster_tol, herm_tol)
        for name, value in vars(self).items():
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


DEFAULT_TOL = Tolerances()


def as_matrix(m, dtype=complex) -> np.ndarray:
    """Coerce to a 2-d array (complex by default) and reject non-finite entries."""
    a = np.asarray(m, dtype=dtype)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def max_norm(M) -> float:
    M = np.asarray(M)
    return 0.0 if M.size == 0 else float(np.abs(M).max())


def product_max_norm_within(Z: np.ndarray, F: np.ndarray, tol: float) -> tuple:
    """(max|Z F†| <= tol, witness) for Z and F with the same number of
    columns.  Entry (i, j) of Z F† is the inner product of row i of Z with
    row j of F, so by Cauchy-Schwarz max|Z F†| <= max_i ||Z_i|| max_j ||F_j||.
    When that bound is within tol it decides, and is the witness; only
    otherwise is Z F† formed, and its max-norm is the witness.  The
    verdict is that of the max-norm of Z F† either way."""
    bound = (np.linalg.norm(Z, axis=1).max(initial=0.0)
             * np.linalg.norm(F, axis=1).max(initial=0.0))
    if bound <= tol:
        return True, float(bound)
    residual = max_norm(Z @ F.conj().T)
    return residual <= tol, residual


def hermitize(M, herm_tol: float = DEFAULT_TOL.herm_tol) -> np.ndarray:
    """Symmetrize (M + M†)/2, rejecting matrices that are not Hermitian
    within herm_tol to begin with, or not finite (ValueError).

    One D x D complex array, the result, and one float array, the moduli
    of the deviation M - M†, are allocated.  M is scanned for NaN and Inf
    only when the deviation is not finite: a non-finite entry makes its
    deviation entry non-finite, so a finite deviation clears M, and a
    finite M whose deviation overflows is rejected as non-Hermitian."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        as_matrix(M)
        raise DimensionMismatchError(f"operator must be square, got {M.shape}")
    # M† is copied in and conjugated in place: a ufunc reading M.T
    # strided would allocate an iteration buffer
    out = M.T.copy()
    with np.errstate(invalid="ignore", over="ignore"):  # the checks below report it
        dev = max_norm(np.subtract(M, np.conj(out, out=out), out=out))
    if not math.isfinite(dev):
        as_matrix(M)
    if dev > herm_tol:
        raise NonHermitianError(f"Hermiticity deviation {dev:.3e} > {herm_tol:.3e}")
    np.copyto(out, M.T)
    np.add(M, np.conj(out, out=out), out=out)
    out /= 2
    return out


# An entry of a column is a phase pivot candidate when its modulus is at
# least this fraction of the column's largest modulus.
_PIVOT_FLOOR = 1e-6


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Make the pivot of each nonzero column real positive.

    The pivot is the first entry whose modulus is at least _PIVOT_FLOOR
    times the largest modulus in its column.  The floor is relative, so
    an entry that is zero up to rounding (about eps / gap in an
    eigenvector) never becomes the pivot, and entries of equal modulus,
    as symmetry gives, tie: the first of them is taken whichever rounding
    makes larger."""
    modulus = np.abs(V)
    top = modulus.max(axis=0, initial=0.0)
    found = top > 0
    rows = np.argmax(modulus >= _PIVOT_FLOOR * top, axis=0)
    pivot = V[rows, np.arange(V.shape[1])][found]
    # hypot and one row per column round exactly as a per-column loop
    # would; a zero column keeps the phase 1, which leaves it as it is up
    # to the sign of a zero imaginary part (V * phase would round a 1 x 1
    # V differently)
    phase = np.ones(V.shape[1], dtype=complex)
    phase[found] = np.conj(pivot) / np.hypot(pivot.real, pivot.imag)
    return (V.T * phase[:, None]).T


class _Hermitian(np.ndarray):
    """A view that marks an operator as bitwise Hermitian by construction:
    a rho that ``BipartiteState`` has symmetrized, or a partial trace of
    one, which sums conjugate pairs in the same order.  ``eigh`` (and so
    ``range_null_bases``) decomposes such a view as it is, since
    symmetrizing it again would return it bitwise unchanged, and
    ``partial_trace`` takes it without the finite scan of ``as_matrix``,
    since the state checked rho on ingestion; the trusted entry for the
    state's own operators, as ``ObservablePair._trusted`` is for pairs."""

    __slots__ = ()


def eigh(H):
    """Eigendecomposition of a Hermitian operator, symmetrized first by
    ``hermitize`` unless it is a ``_Hermitian`` view.

    Returns (eigenvalues ascending, eigenvector matrix) with a
    deterministic phase convention for the eigenvectors.
    """
    H = H.view(np.ndarray) if isinstance(H, _Hermitian) else hermitize(H)
    try:
        vals, vecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailureError(str(exc)) from exc
    return vals, _fix_phases(vecs)


def rank_cut(values: np.ndarray, tol: float, floor: float = 0.0) -> int:
    """Number of values above tol * max(largest value, floor), the one
    rule by which the package decides a rank.  The values are sorted,
    either way (singular values descending, eigenvalues ascending), so
    the largest is at one end; a value at the threshold is dropped, and
    an empty array has rank 0."""
    if len(values) == 0:
        return 0
    return int(np.count_nonzero(values > tol * max(values[0], values[-1], floor)))


def group_starts(values: np.ndarray, gap: float) -> np.ndarray:
    """Mask of the ascending values that start a group, the one rule by
    which the package groups a spectrum: the first value, and each value
    more than gap above the one before it."""
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[1:] - values[:-1] > gap
    return starts


def kernel_basis(M, tol: float = DEFAULT_TOL.rank_tol) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of M:
    the right singular vectors past the ``rank_cut`` of its singular
    values at tol.  A real M gives a real basis.  The economy SVD already
    holds every right singular vector unless M is wide.
    """
    M = as_matrix(M, complex if np.iscomplexobj(M) else float)
    if M.size == 0:
        return np.eye(M.shape[1], dtype=M.dtype)
    _, s, vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return vh[rank_cut(s, tol):].conj().T


def local_compress(X: np.ndarray, basis_plus: np.ndarray, basis_minus: np.ndarray) -> np.ndarray:
    """(B_plus ⊗ B_minus)† X for columns X on H_plus ⊗ H_minus, as an
    (r_plus, r_minus, k) array, by two local products on X reshaped to
    (d_plus, d_minus, k), the dims read off the d_s x r_s bases B_s; row
    a*r_minus + c of the flattened result is <a,c| X."""
    (dp, rp), dm = basis_plus.shape, basis_minus.shape[0]
    T = (basis_plus.conj().T @ X.reshape(dp, -1)).reshape(rp, dm, -1)
    return basis_minus.conj().T @ T


def apply_local(A, Z, d_plus: int, d_minus: int, side: str) -> np.ndarray:
    """(A ⊗ 1) Z for side='+' or (1 ⊗ A) Z for side='-' on a Z with
    d_plus*d_minus rows, by reshapes instead of a Kronecker product."""
    Z = np.asarray(Z)
    if side == "+":
        return (A @ Z.reshape(d_plus, -1)).reshape(Z.shape)
    if side == "-":
        return (A @ Z.reshape(d_plus, d_minus, -1)).reshape(Z.shape)
    raise ValueError(f"side must be '+' or '-', got {side!r}")


def partial_trace(M, d_plus: int, d_minus: int, side: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on H_plus ⊗ H_minus.

    side='-' returns the operator left on H_plus (trace over the minus
    factor); side='+' the operator left on H_minus.  A ``_Hermitian``
    view is taken as it is; any other M is coerced by ``as_matrix``.
    """
    M = M.view(np.ndarray) if isinstance(M, _Hermitian) else as_matrix(M)
    dim = d_plus * d_minus
    if M.shape != (dim, dim):
        raise DimensionMismatchError(
            f"operator shape {M.shape} does not match {d_plus}x{d_minus} factors"
        )
    T = M.reshape(d_plus, d_minus, d_plus, d_minus)
    if side == "-":
        return np.trace(T, axis1=1, axis2=3)
    if side == "+":
        return np.trace(T, axis1=0, axis2=2)
    raise ValueError(f"side must be '+' or '-', got {side!r}")


def range_null_bases(H, tol: float = DEFAULT_TOL.rank_tol):
    """(eigenvalues ascending, range basis, null basis) of a PSD operator
    from one eigh: the eigenvalues that ``rank_cut`` keeps at tol span
    the range, so the kept ones come last."""
    vals, vecs = eigh(H)
    keep = np.arange(vals.size) >= vals.size - rank_cut(vals, tol)
    return vals, vecs[:, keep], vecs[:, ~keep]


def pivoted_cholesky(H: np.ndarray, max_rank: int, stop: float):
    """Columns L (D x j, j <= max_rank) of the diagonally pivoted Cholesky
    factor of a PSD H, taken until the diagonal of the Schur complement
    H - L L† has Euclidean norm at most stop (a lower bound on the
    Frobenius norm of a PSD complement); None when max_rank pivots do not
    get there or a pivot is not positive.

    Each pivot reads one column of H and updates the diagonal, so j
    pivots cost O(D j^2) (Harbrecht, Peters & Schneider 2012)."""
    diag = H.diagonal().real.copy()
    L = np.zeros((len(H), max_rank), dtype=H.dtype)
    for j in range(max_rank):
        if np.linalg.norm(diag) <= stop:
            return L[:, :j]
        p = int(np.argmax(diag))
        if diag[p] <= 0:
            return None
        L[:, j] = (H[:, p] - L[:, :j] @ L[p, :j].conj()) / np.sqrt(diag[p])
        diag -= np.abs(L[:, j]) ** 2
    return L if np.linalg.norm(diag) <= stop else None


def low_rank_cut(H, tol: float, max_rank: int):
    """Rank cut of a PSD H of low rank without a full eigendecomposition:
    (kept Ritz values ascending, range basis V, error e) or None.

    H = L L† + S by pivoted Cholesky, then Rayleigh-Ritz on the span Q of
    the pivot columns: Q† H Q = W Θ W†, V = Q W over the Ritz values
    that ``rank_cut`` keeps at tol, and C = V Θ^½.  e = ||H - C C†||_F
    bounds the spectral norm of the residual even for an indefinite one,
    so by Weyl the eigenvalues of H lie within e of the kept Ritz values
    and of zero.  The cut is certified, and returned, only when both
    groups clear the ``rank_cut`` of ``range_null_bases`` (its lambda_max
    within e of theta_max) by more than that error and D * eps *
    theta_max of rounding; it then keeps the same number of eigenvalues
    as the cut of a full eigh, and V spans the same range within
    e / gap.  The residual is formed once, at O(D^2 k).

    None, and no pivot taken, when tr(H)^2 / ||H||_F^2, a lower bound
    on the rank, exceeds max_rank; None also when max_rank pivots do not
    reduce the Schur complement to the cut or the certificate fails."""
    H = np.asarray(H)
    fro = np.linalg.norm(H)
    trace = float(np.real(np.trace(H)))
    if tol <= 0 or trace <= 0 or trace ** 2 > max_rank * fro ** 2 * (1 + 1e-12):
        return None
    # lambda_max >= the Rayleigh quotient ||H e_p||^2 / H_pp of the column
    # through the largest diagonal entry
    p = int(np.argmax(H.diagonal().real))
    lam_low = np.linalg.norm(H[:, p]) ** 2 / H[p, p].real
    L = pivoted_cholesky(H, max_rank, tol * lam_low / 2)
    if L is None or L.shape[1] == 0:
        return None
    Q = np.linalg.qr(L)[0]
    theta, W = np.linalg.eigh(Q.conj().T @ (H @ Q))
    top = theta[-1]
    if top <= 0:
        return None
    keep = np.arange(theta.size) >= theta.size - rank_cut(theta, tol)
    V = Q @ W[:, keep]
    C = V * np.sqrt(theta[keep])
    residual = C @ C.conj().T
    err = float(np.linalg.norm(np.subtract(H, residual, out=residual)))
    slack = err + len(H) * np.finfo(float).eps * top
    if theta[keep][0] - slack <= tol * (top + err) or slack >= tol * (top - err):
        return None
    return theta[keep], _fix_phases(V), err


def range_basis(H, tol: float = DEFAULT_TOL.rank_tol) -> np.ndarray:
    """Orthonormal columns spanning the range of a PSD operator,
    ordered by ascending eigenvalue."""
    return range_null_bases(H, tol)[1]


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the real space of Hermitian d x d matrices
    under the Hilbert-Schmidt inner product, stacked as a (d*d, d, d)
    complex array.

    Ordering: diagonal units first, then for each i<j (row-major) the
    symmetric pair (E_ij + E_ji)/sqrt(2) followed by the antisymmetric
    pair (-i E_ij + i E_ji)/sqrt(2).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return block_hermitian_basis(np.zeros(d, dtype=int))


def block_hermitian_basis(labels: np.ndarray) -> np.ndarray:
    """The elements of hermitian_basis(d), d = len(labels), supported
    inside one block of indices of equal label, in the same order:
    an HS-orthonormal basis, stacked (n, d, d), of the Hermitian
    operators that are block diagonal over those blocks, so n is the
    sum of the squared block sizes."""
    d = len(labels)
    index = np.arange(d)
    i, j = np.nonzero((labels[:, None] == labels) & (index[:, None] < index))
    basis = np.zeros((d + 2 * len(i), d, d), dtype=complex)
    basis[index, index, index] = 1.0
    sym = np.arange(d, len(basis), 2)
    s = 1 / np.sqrt(2)
    basis[sym, i, j] = basis[sym, j, i] = s
    basis[sym + 1, i, j] = -1j * s
    basis[sym + 1, j, i] = 1j * s
    return basis


def pair_to_coords(a_plus: np.ndarray, a_minus: np.ndarray) -> np.ndarray:
    """Real coordinates of (A_plus, A_minus) over hermitian_basis(d_plus)
    followed by hermitian_basis(d_minus).  Pairs stacked along the first
    axis of both arguments give their coordinates as columns."""
    return np.concatenate([
        np.einsum("gij,...ij->g...", hermitian_basis(A.shape[-1]).conj(), A).real
        for A in (a_plus, a_minus)
    ])
