"""Solver for the real vector space of twin observable pairs.

A pair of subsystem observables (A_plus, A_minus) is a twin pair for a
state rho when (A_plus ⊗ 1 - 1 ⊗ A_minus) rho = 0.  The solver turns
this into a real-linear kernel problem over coordinates in a
Hilbert-Schmidt-orthonormal Hermitian operator basis of both sides.
"""

from __future__ import annotations

import functools
import operator
import random

import numpy as np

from . import linops
from .errors import DimensionMismatchError
from .linops import Record, ValueRecord
from .states import BipartiteState, _read_only


class ObservablePair(Record):
    """A candidate or solved twin pair of Hermitian subsystem operators.

    Both arrays are symmetrized copies of the input and read-only, so a
    pair can serve as an identity key: a state remembers the split and
    detectable spectra of the last pair it was asked about (see
    ``spectral.matched_bases_from_pair``)."""

    FIELDS = ("a_plus", "a_minus")

    def __init__(self, a_plus, a_minus):
        super().__init__(*_read_only(linops.hermitize(a_plus), linops.hermitize(a_minus)))

    @classmethod
    def _trusted(cls, a_plus: np.ndarray, a_minus: np.ndarray) -> "ObservablePair":
        """A pair of finite square complex arrays that are Hermitian by
        construction (real combinations or compressions of Hermitian
        operators): symmetrized against rounding, not validated."""
        return cls._stacked(a_plus[None], a_minus[None])[0]

    @classmethod
    def _stacked(cls, a_plus: np.ndarray, a_minus: np.ndarray) -> tuple:
        """The pairs (a_plus[k], a_minus[k]) of stacked (n, d_s, d_s)
        arrays that are Hermitian by construction, as for ``_trusted``:
        each stack symmetrized in one batched pass and made read-only."""
        a_plus, a_minus = _read_only(_symmetrized(a_plus), _symmetrized(a_minus))
        pairs = []
        for ap, am in zip(a_plus, a_minus):
            pair = object.__new__(cls)
            Record.__init__(pair, ap, am)
            pairs.append(pair)
        return tuple(pairs)

    @property
    def d_plus(self) -> int:
        return self.a_plus.shape[0]

    @property
    def d_minus(self) -> int:
        return self.a_minus.shape[0]

    def scaled(self, alpha: float) -> "ObservablePair":
        return ObservablePair(alpha * self.a_plus, alpha * self.a_minus)

    def coords(self) -> np.ndarray:
        return linops.pair_to_coords(self.a_plus, self.a_minus)


def _symmetrized(A: np.ndarray) -> np.ndarray:
    """(A + A†)/2 of each matrix of a stacked (n, d, d) array."""
    return (A + np.swapaxes(A, 1, 2).conj()) / 2


def scalar_pair(d_plus: int, d_minus: int) -> ObservablePair:
    return ObservablePair(np.eye(d_plus, dtype=complex), np.eye(d_minus, dtype=complex))


class TwinSpace(Record):
    """Orthonormal basis (sum of HS inner products on the two sides) of
    all twin pairs of a state, with dimension bookkeeping.

    dim_total = dim_detectable + n_plus^2 + n_minus^2 where n_s is the
    null-space dimension of rho_s: observables supported on a subsystem
    null space are twins regardless of the other side.

    Where solve_twin_space takes its closed form (reductions with simple
    spectra), the basis is fixed, one pair per connected component of the
    support graph; otherwise it is the orthonormal basis that the SVD of
    the twin system returns.
    """

    FIELDS = ("basis", "dim_total", "dim_detectable", "dim_undetectable_plus",
              "dim_undetectable_minus")

    def operators(self) -> tuple:
        """The basis pairs' operators, stacked (n, d_s, d_s) a side."""
        return np.array([p.a_plus for p in self.basis]), np.array([p.a_minus for p in self.basis])

    def coordinate_matrix(self) -> np.ndarray:
        """Columns are hermitian_basis coordinates of the basis pairs."""
        return linops.pair_to_coords(*self.operators())


def is_twin_pair(state: BipartiteState, pair: ObservablePair):
    """The twin test A_plus rho = A_minus rho, on the factor C of the rank
    cut C C† of rho: twins depend only on range(rho).

    Returns (verdict, witness) of ``_twin_witness``: the verdict is that of
    the max-norm of Z C† against residual_tol, Z = (A_plus ⊗ 1 - 1 ⊗
    A_minus) C (D x k).  A pair that passes has as witness the
    Cauchy-Schwarz bound max_i ||Z_i|| max_j ||C_j|| and forms no D x D
    array; one that fails has the max-norm of Z C†, within the image of
    rho - C C† (``state.cut_error``) of that of (A_plus ⊗ 1 - 1 ⊗ A_minus)
    rho.  Pair dims that do not match the state raise DimensionMismatchError.
    """
    _check_dims("pair", pair.a_plus, pair.a_minus, state)
    return _twin_witness(pair.a_plus, pair.a_minus, state.factor, state.tol.residual_tol)


def _check_dims(name: str, plus: np.ndarray, minus: np.ndarray, state: BipartiteState,
                columns: int | None = None) -> None:
    """Raises DimensionMismatchError unless plus and minus, a pair's operators,
    d_s x r_s bases or stacks (n, d_s, d_s) of a twin space's operators,
    have d_plus and d_minus rows, those of the state, and, when columns is
    given (the length of a matched pair's sigma_prime), both have that
    many columns."""
    rows = plus.shape[-2], minus.shape[-2]
    if rows != (state.d_plus, state.d_minus):
        raise DimensionMismatchError(f"{name} dims ({rows[0]},{rows[1]}) do not match "
                                     f"state ({state.d_plus},{state.d_minus})")
    if columns is not None and (plus.shape[-1], minus.shape[-1]) != (columns, columns):
        raise DimensionMismatchError(f"{name} column counts ({plus.shape[-1]},{minus.shape[-1]}) "
                                     f"do not match the {columns} characteristic values")


def _twin_witness(a_plus: np.ndarray, a_minus: np.ndarray, C: np.ndarray, tol: float):
    """(max|Z C†| <= tol, witness) for Z = (A_plus ⊗ 1 - 1 ⊗ A_minus) C,
    by ``linops.product_max_norm_within``: the one twin test of the package."""
    return linops.product_max_norm_within(_twin_image(a_plus, a_minus, C), C, tol)


def _twin_image(a_plus: np.ndarray, a_minus: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(A_plus ⊗ 1 - 1 ⊗ A_minus) V for columns V on the product of the
    spaces A_plus and A_minus act on."""
    dims = a_plus.shape[0], a_minus.shape[0]
    image = linops.apply_local(a_plus, V, *dims, "+")
    image -= linops.apply_local(a_minus, V, *dims, "-")
    return image


def _constraint_matrix(state: BipartiteState, columns: np.ndarray,
                       basis_plus: np.ndarray, basis_minus: np.ndarray) -> np.ndarray:
    """Real matrix of the map (x_plus, x_minus) -> (A_plus ⊗ 1 - 1 ⊗ A_minus) C
    stacked as real and imaginary parts, over the coordinates of A_s in
    basis_s, a stacked (n_s, d_s, d_s) Hermitian basis.

    Column k of C reshaped to d_plus x d_minus is Psi_k, and
    (A_plus ⊗ 1 - 1 ⊗ A_minus) C is A_plus Psi_k - Psi_k A_minus^T."""
    dp, dm = state.d_plus, state.d_minus
    psi = columns.reshape(dp, dm, -1)
    images = np.concatenate([
        (basis_plus @ psi.reshape(dp, -1)).reshape(len(basis_plus), -1),
        -(basis_minus[:, None] @ psi).reshape(len(basis_minus), -1),
    ])
    return np.concatenate([images.real, images.imag], axis=1).T


# Eigenspace layouts the layout cache keeps; see _layout.
_LAYOUT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout(labels_plus: tuple, labels_minus: tuple) -> tuple:
    """(units_plus, units_minus, m_b, slots, pair, row) of the twin solve
    for these eigenspace labels of rho_plus and rho_minus, read-only and
    kept for the last _LAYOUT_CACHE_SIZE layouts: they depend on the
    layout of the reductions' spectra, never on their values, so states
    that share a layout share them.

    units_s is linops.block_hermitian_basis over labels_s.  m_b is the
    dimension of the pair b = (g, h) of eigenspaces of each entry (a, c)
    of P, in P's composite order; when some m_b > 1, entry (a, c) is row
    row[i] of its pair pair[i], i = a d_minus + c, and slots[b] lists the
    entries of pair b, padded with d_plus d_minus, else all three are None.

    A side of dimension d holds sum m_i^2 <= d^2 units of d x d complex,
    so a layout of sides up to d holds at most 32 d^4 bytes of units:
    10.6 MB for _LAYOUT_CACHE_SIZE fully degenerate d = 12 layouts.  The
    index maps add at most 18 KB a layout at d_plus = d_minus = 12 (a
    side of dimension d whose largest eigenspace has dimension m has at
    most d - m + 1 eigenspaces)."""
    labels_plus, labels_minus = np.array(labels_plus), np.array(labels_minus)
    units = _read_only(linops.block_hermitian_basis(labels_plus),
                       linops.block_hermitian_basis(labels_minus))
    size_p, size_m = np.bincount(labels_plus), np.bincount(labels_minus)
    dp, dm = len(labels_plus), len(labels_minus)
    m_b = np.outer(size_p[labels_plus], size_m[labels_minus]).ravel()
    m_max = int(m_b.max())
    if m_max == 1:
        return *units, *_read_only(m_b), None, None, None
    # entry (a, c) is row (a - first_g) n_h + (c - first_h) of its pair (g, h)
    offset_p = np.arange(dp) - np.searchsorted(labels_plus, labels_plus)
    offset_m = np.arange(dm) - np.searchsorted(labels_minus, labels_minus)
    pair = (labels_plus[:, None] * len(size_m) + labels_minus).ravel()
    row = (offset_p[:, None] * size_m[labels_minus] + offset_m).ravel()
    slots = np.full((len(size_p) * len(size_m), m_max), dp * dm)
    slots[pair, row] = np.arange(dp * dm)
    return *units, *_read_only(m_b, slots, pair, row)


def _block_constraints(state: BipartiteState, P: np.ndarray, layout: tuple) -> np.ndarray:
    """Real twin constraint system in the product eigenbasis of the
    reductions, block-compressed: it has the singular values and kernel
    of the system imposed on every range vector.

    P is the range basis V of rho in that basis, (W_plus ⊗ W_minus)† V
    as a (d_plus, d_minus, r) array, and layout is the _layout of the
    eigenspaces: the unknowns are the coordinates over its units_plus
    then units_minus.  A twin X' = A'_plus ⊗ 1 - 1 ⊗ A'_minus is block
    diagonal over the pairs b = (g, h) of eigenspaces, so ||X' P||_F^2
    is the sum over b of ||X'_b P_b||_F^2, and P_b, the
    (m_b = m_g m_h, r) slice of P, can be replaced by any F_b with
    F_b F_b† = P_b P_b† without changing the Gram matrix of the system.
    F_b = R† from the QR factorization P_b† = Q R, with k_b = min(m_b, r)
    columns; all pairs go through one batched QR, each slice padded with
    zero rows to the largest m_b.  For a pair of one-dimensional
    eigenspaces R is the real number ±||P_b|| (LAPACK's Householder QR
    has a real diagonal), so the pair gives the single real row
    ±||P_b|| (e_g - f_h).  When every pair is one-dimensional, as for
    nondegenerate reductions, the norms are taken directly: the same
    rows up to sign, without the batched QR and its index setup.  No
    Gram product is formed, so no digits are lost to squaring.

    The factors, zero-padded to k = max k_b columns, go through
    _constraint_matrix, and the rows that are zero by construction
    (columns beyond k_b, imaginary parts of one-dimensional pairs) are
    dropped: at most 2 m_b k_b rows per pair, and d_plus d_minus rows in
    all for nondegenerate reductions."""
    dp, dm, r = P.shape
    units_plus, units_minus, m_b, slots, pair, row = layout
    if slots is None:
        # the rows the QR below gives one-dimensional pairs, up to sign
        F = np.linalg.norm(P, axis=2).reshape(-1, 1)
    else:
        padded = np.concatenate([P.reshape(dp * dm, r), np.zeros((1, r))])[slots]
        R = np.linalg.qr(np.swapaxes(padded, 1, 2).conj(), mode="r")
        F = R.conj()[pair, :, row]
    k = F.shape[1]
    kept = np.arange(k) < np.minimum(m_b, r)[:, None]
    M = _constraint_matrix(state, F, units_plus, units_minus)
    return M[np.concatenate([kept.ravel(), (kept & (m_b > 1)[:, None]).ravel()])]


def _component_kernel(P: np.ndarray, rank_tol: float, n_plus: int, n_minus: int):
    """(K, dim_detectable) of the twin system of a layout of one-dimensional
    eigenspaces in closed form, or None where the certificate below fails.

    That system is the weighted incidence matrix M of a bipartite graph on
    the d_plus + d_minus eigenvectors of W = [null, range] of each side,
    one row w_ac (e_a - f_c) per pair, w_ac = ||P[a, c, :]|| (as in
    _block_constraints), so ||M||_F = sqrt(2 r) and its largest singular
    value is at least sqrt(2) w_max.  ``rank_cut`` at rank_tol splits the
    edges into strong and weak ones; the kernel of the strong graph is
    spanned by the indicators of its connected components (Fiedler, Czech.
    Math. J. 23 (1973)), and K holds one column per component, its
    indicator over the units divided by sqrt(size), ordered by the
    component's first vertex, plus side first.  dim_detectable is the
    number of components that hold a range eigenvector.

    The certificate proves that kernel_basis and _detectable_rank on M
    would give the same dimensions, with delta = d_plus d_minus eps
    ||M||_F of rounding in the SVD and omega the l2 norm of the weak
    weights:
    - the component directions have singular values of at most
      sqrt(2) omega (Weyl, on the weak rows), at or below the cut
      rank_tol sigma_max;
    - every other direction has one of at least 2 w_min / n, w_min the
      smallest strong weight and n the largest component (lambda_2 >=
      4 / (n diam), Mohar, Graphs Combin. 7 (1991); rows only raise it),
      above the cut, which is at most rank_tol ||M||_F;
    - the SVD kernel lies within the angle sqrt(2) omega / (2 w_min / n -
      sqrt(2) omega) of K (Wedin), a tenth of _DETECTABLE_CUT at most, so
      the range rows of its basis have the rank that K's have."""
    dp, dm, _ = P.shape
    w = np.linalg.norm(P, axis=2).ravel()
    order = np.argsort(w)
    strong = np.zeros(w.size, dtype=bool)
    strong[order[w.size - linops.rank_cut(w[order], rank_tol):]] = True
    labels = _component_labels(strong.reshape(dp, dm))
    # the vertices that are their own label start the components, in order
    component = (np.cumsum(labels == np.arange(dp + dm)) - 1)[labels]
    size = np.bincount(component)
    fro = np.sqrt(2) * np.linalg.norm(w)
    delta = w.size * np.finfo(float).eps * fro
    # bounds on the singular values of the component directions and of
    # every other direction, each with the SVD's rounding
    dropped = np.sqrt(2) * np.linalg.norm(w[~strong]) + delta
    gap = 2 * w[strong].min(initial=np.inf) / size.max()
    if (dropped > rank_tol * (np.sqrt(2) * w[order[-1]] - delta)
            or gap - delta <= rank_tol * (fro + delta)
            or dropped > _DETECTABLE_CUT / 10 * (gap - dropped)):
        return None
    K = np.zeros((dp + dm, len(size)))
    K[np.arange(dp + dm), component] = 1 / np.sqrt(size[component])
    in_range = np.concatenate([np.arange(dp) >= n_plus, np.arange(dm) >= n_minus])
    return K, int(np.count_nonzero(np.bincount(component[in_range], minlength=len(size))))


def _component_labels(adjacent: np.ndarray) -> np.ndarray:
    """The first vertex of the connected component of each vertex of the
    bipartite graph with d_plus x d_minus adjacency matrix adjacent, the
    d_plus vertices of the plus side numbered first: each vertex takes
    the smallest label of its neighbours and itself until none changes."""
    dp, dm = adjacent.shape
    n = dp + dm
    neighbours = np.eye(n, dtype=bool)
    neighbours[:dp, dp:] = adjacent
    neighbours[dp:, :dp] = adjacent.T
    labels = np.arange(n)
    while True:
        new = np.where(neighbours, labels, n).min(axis=1)
        if np.array_equal(new, labels):
            return labels
        labels = new


def solve_twin_space(state: BipartiteState) -> TwinSpace:
    """Compute an orthonormal basis of all Hermitian twin pairs of rho.

    The twin constraint is imposed on a column basis V of range(rho)
    only, which is equivalent to imposing it on rho itself.  The unknowns
    are restricted to the commutant of rho_plus and rho_minus: the
    partial trace Tr_- of (A_plus ⊗ 1 - 1 ⊗ A_minus) rho = 0 and of its
    adjoint gives A_plus rho_plus = rho_plus A_plus (and the same on the
    minus side), so every twin pair is block diagonal over the
    eigenspaces of the reductions, null spaces included.  In the
    eigenbasis W_s = [null_s, range_s] of each reduction a twin is
    block diagonal over the eigenspaces as grouped by the labels of
    ``state.subsystems``, and each side has sum m_i^2 coordinates
    (linops.block_hermitian_basis) instead of d^2, m_i the eigenspace sizes.

    The system is solved in the product eigenbasis W_plus ⊗ W_minus and
    compressed block pair by block pair (_block_constraints): one real
    row per pair of one-dimensional eigenspaces, so d_plus d_minus rows
    for nondegenerate reductions instead of 2 d_plus d_minus r, and at
    most 2 m_b min(m_b, r) for a pair of dimension m_b > 1.  The
    compression is exact: the system has the singular values and kernel
    of the one imposed on every range vector, and ``kernel_basis`` cuts
    it at rank_tol.  The grouping gap (``states._grouping_gap``) keeps
    the eigenspaces coarse enough for the dropped tail of rho
    (``state.cut_error``) to stay far below that cut; cluster_tol is not used, as it knows nothing of the cut.
    The pairs are the kernel's combinations of the units, rotated back
    by W_plus and W_minus, and dim_detectable is read off the kernel's
    rows over the units inside the range part of W (_detectable_rank).
    The units and the block layout depend on the eigenspace labels
    alone; they are built once per layout and kept, read-only, by
    _layout, which the solve looks up once.

    When every eigenspace is one-dimensional, the system is the weighted
    incidence matrix of the bipartite graph of the pairs |a, c> that
    range(rho) reaches, and the twins are constant on its connected
    components: _component_kernel returns one pair per component, the
    sum of its eigenvectors' projectors on each side over sqrt(size), in
    the order of the components' first vertices (plus side first, in W
    order), and dim_detectable is the number of components that hold a
    range eigenvector.  It does so only where its certificate holds (see
    _component_kernel); elsewhere the solve takes the SVD path above,
    unchanged.  Either way the pairs span the same space up to rounding.
    """
    sub = state.subsystems
    dp, dm = state.d_plus, state.d_minus
    Wp = np.hstack([sub.null_plus, sub.range_plus])
    Wm = np.hstack([sub.null_minus, sub.range_minus])
    # the eigenspace labels of each side key the layout cache
    layout = _layout(tuple(sub.labels_plus.tolist()), tuple(sub.labels_minus.tolist()))
    units_plus, units_minus = layout[:2]
    np_, nm = sub.null_plus.shape[1], sub.null_minus.shape[1]
    P = linops.local_compress(state.range_basis(), Wp, Wm)
    closed = None if layout[3] is not None else _component_kernel(P, state.tol.rank_tol, np_, nm)
    if closed is not None:
        K, detectable = closed
    else:
        K = linops.kernel_basis(_block_constraints(state, P, layout), state.tol.rank_tol)
        detectable = _detectable_rank(K, units_plus, units_minus, np_, nm)
    n_plus = len(units_plus)
    # one real-by-complex product a side: pair k is sum_g K[g, k] units[g]
    a_plus = (K[:n_plus].T @ units_plus.reshape(n_plus, -1)).reshape(-1, dp, dp)
    a_minus = (K[n_plus:].T @ units_minus.reshape(len(units_minus), -1)).reshape(-1, dm, dm)
    pairs = ObservablePair._stacked(Wp @ a_plus @ Wp.conj().T, Wm @ a_minus @ Wm.conj().T)

    return TwinSpace(
        basis=pairs,
        dim_total=len(pairs),
        dim_detectable=detectable,
        dim_undetectable_plus=np_ ** 2,
        dim_undetectable_minus=nm ** 2,
    )


# The detectable count cuts the singular values of the kernel's range
# rows at this fraction of max(s_0, 1), not at rank_tol.  Schmidt weights
# 1e-8 to 1e-7 apart give near-twins that the kernel keeps, whose range
# rows have singular values near 1e-8; cut at rank_tol, the count takes
# some of them in, and it plus the undetectable n_plus^2 + n_minus^2
# exceeds dim_total.
_DETECTABLE_CUT = 1e-8


def _detectable_rank(K: np.ndarray, units_plus: np.ndarray, units_minus: np.ndarray,
                     n_plus: int, n_minus: int) -> int:
    """Rank of the detectable blocks of the twin basis pairs, their
    compressions to the subsystem ranges, from the kernel K over the
    units: the rank of the rows of K that belong to units with every
    nonzero row (so, Hermitian, every nonzero column) past the first n_s,
    the null part of W_s.  Compressed to the range those units stay
    Hilbert-Schmidt orthonormal and the others vanish, so these rows
    have the singular values of the stacked real and imaginary parts of
    the blocks.  The rank is their ``rank_cut`` at _DETECTABLE_CUT, with
    floor 1."""
    in_range = ~np.concatenate([units_plus[:, :n_plus].any(axis=(1, 2)),
                                units_minus[:, :n_minus].any(axis=(1, 2))])
    s = np.linalg.svd(K[in_range], compute_uv=False)
    return linops.rank_cut(s, _DETECTABLE_CUT, floor=1.0)


def subspace_distance(coords_a: np.ndarray, coords_b: np.ndarray) -> float:
    """Largest principal-angle sine between two coordinate subspaces
    (columns spanning each): sin theta_max = ||Q_b - Q_a Q_a^T Q_b||_2.

    The sine is read off the component of Q_b outside span(Q_a), not as
    sqrt(1 - sigma_min^2) of Q_a^T Q_b, which loses all digits below
    about 1e-8."""
    if coords_a.shape[1] != coords_b.shape[1]:
        return 1.0
    if coords_a.shape[1] == 0:
        return 0.0
    qa = np.linalg.qr(coords_a)[0]
    qb = np.linalg.qr(coords_b)[0]
    return float(np.linalg.norm(qb - qa @ (qa.conj().T @ qb), 2))


def additive_twins(state: BipartiteState, b_plus, b_minus):
    """Twin pair from an additive observable B = B_plus ⊗ 1 + 1 ⊗ B_minus
    that has a sharp value b in rho: (B_plus - b/2, -B_minus + b/2), else None.

    The one candidate is b = Tr(B_plus rho_plus) + Tr(B_minus rho_minus),
    and (B - b) rho = 0 is exactly the twin relation of that pair, which
    ``is_twin_pair`` decides on the factor of rho.  Observable dims that do
    not match the state raise DimensionMismatchError."""
    sub = state.subsystems
    b_plus = linops.hermitize(b_plus, state.tol.herm_tol)
    b_minus = linops.hermitize(b_minus, state.tol.herm_tol)
    _check_dims("observable", b_plus, b_minus, state)
    b = float(np.real(np.trace(b_plus @ sub.rho_plus) + np.trace(b_minus @ sub.rho_minus)))
    pair = ObservablePair(b_plus - (b / 2) * np.eye(state.d_plus),
                          (b / 2) * np.eye(state.d_minus) - b_minus)
    return pair if is_twin_pair(state, pair)[0] else None


class ConsequenceReport(ValueRecord):
    """Checks that twins are range-determined: every twin of rho is a
    twin of every pure state in the range (C1), and a second state with
    the same range has the same twin space (C3)."""

    FIELDS = ("c1_max_residual", "c3_subspace_distance", "tolerance")

    @property
    def passed(self) -> bool:
        return (
            self.c1_max_residual <= self.tolerance
            and self.c3_subspace_distance <= self.tolerance
        )


def twins_restrict_to_range_vectors(
    state: BipartiteState, twin_space: TwinSpace, seed: int = 0
) -> ConsequenceReport:
    """C1: the largest twin residual of a pair on a pure state |v><v|, v a
    range vector: the max-norm of z v† is max|z| * max|v| for z = (A_plus
    ⊗ 1 - 1 ⊗ A_minus) v.  C3: the twin space of fresh weights on V,
    drawn uniform on [0.2, 1] from ``random.Random(seed)`` and normalized.
    A twin space whose dims do not match the state raises
    DimensionMismatchError."""
    ops = twin_space.operators()
    _check_dims("twin space", *ops, state)
    V = state.range_basis()
    v_max = np.max(np.abs(V), axis=0)
    c1 = max((float(np.max(np.max(np.abs(_twin_image(ap, am, V)), axis=0) * v_max))
              for ap, am in zip(*ops)), default=0.0)

    rng = random.Random(operator.index(seed))
    w = np.array([rng.uniform(0.2, 1.0) for _ in range(V.shape[1])])
    w /= w.sum()
    state2 = BipartiteState(state.d_plus, state.d_minus, (V * w) @ V.conj().T, state.tol)
    space2 = solve_twin_space(state2)
    c3 = subspace_distance(linops.pair_to_coords(*ops), space2.coordinate_matrix())
    return ConsequenceReport(c1, c3, state.tol.residual_tol)


def states_admitting_twins(pair: ObservablePair, candidate_state: BipartiteState) -> bool:
    """True iff range(rho) lies in the kernel of A_plus ⊗ 1 - 1 ⊗ A_minus,
    which is equivalent to the twin property (C4): for Z = (A_plus ⊗ 1 -
    1 ⊗ A_minus) V, V the cached range basis of rho, every column norm of
    Z and the max-norm of Z V^dagger must be within residual_tol.  The
    max-norm is decided by ``linops.product_max_norm_within``, so Z V^dagger
    (D x D) is formed only when its row-norm bound exceeds the tolerance.
    Pair dims that do not match the state raise DimensionMismatchError."""
    _check_dims("pair", pair.a_plus, pair.a_minus, candidate_state)
    V = candidate_state.range_basis()
    Z = _twin_image(pair.a_plus, pair.a_minus, V)
    tol = candidate_state.tol.residual_tol
    return bool(np.all(np.linalg.norm(Z, axis=0) <= tol)
                and linops.product_max_norm_within(Z, V, tol)[0])
