"""Spectral theory of twin pairs.

Covers the detectable/undetectable block decomposition of a twin pair,
equality of the detectable spectra, characteristic-projector twins (the
cluster eigenprojectors of the detectable parts), closure under operator
functions and symmetric polynomials, and the search for complete twins
(nondegenerate detectable spectra).
"""

from __future__ import annotations

import math
import operator
import random

import numpy as np

from . import linops
from .errors import (
    DegenerateSpectrumCollisionError,
    NotReducibleError,
    NotSymmetricError,
    SpectraMismatchError,
)
from .linops import Record, max_norm
from .states import BipartiteState
from .twins import ObservablePair, TwinSpace, _check_dims, _twin_witness


class SpectralData(Record):
    """Clustered eigenvalues of a Hermitian operator with multiplicities
    and characteristic projectors, and the eigenvector matrix (columns in
    ascending eigenvalue order, phases as in linops.eigh) they came from."""

    FIELDS = ("values", "multiplicities", "projectors", "vectors")


def spectral_data(H, cluster_tol: float = linops.DEFAULT_TOL.cluster_tol) -> SpectralData:
    """Eigendecompose H and group eigenvalues that lie within cluster_tol
    of each other into one characteristic value (cluster mean)."""
    return _clustered(*linops.eigh(H), cluster_tol)


def _clustered(vals: np.ndarray, vecs: np.ndarray, cluster_tol: float) -> SpectralData:
    """SpectralData of the eigenpairs (vals ascending, vecs the matching
    columns) of a Hermitian operator, clustered by
    ``linops.group_starts`` at cluster_tol."""
    starts = np.flatnonzero(linops.group_starts(vals, cluster_tol))
    mult = np.append(starts[1:], len(vals)) - starts
    # cluster c as columns starts[c] .. starts[c] + m_max - 1 of vecs, the
    # ones past its own multiplicity zeroed, so every projector V_c V_c† is
    # one member of a batched product
    cols = starts[:, None] + np.arange(mult.max())
    inside = cols < (starts + mult)[:, None]
    W = vecs[:, np.where(inside, cols, 0)] * inside
    W = W.transpose(1, 0, 2)
    return SpectralData(
        values=np.add.reduceat(vals, starts) / mult,
        multiplicities=mult,
        projectors=tuple(W @ W.conj().transpose(0, 2, 1)),
        vectors=vecs,
    )


def commutation_check(pair: ObservablePair, state: BipartiteState) -> dict:
    """Max-norm residuals of [A_s, rho_s] and [A_s, R_s]; all vanish for
    a genuine twin pair (necessary, not sufficient)."""
    _check_dims("pair", pair.a_plus, pair.a_minus, state)
    sub = state.subsystems
    Rp = sub.range_plus @ sub.range_plus.conj().T
    Rm = sub.range_minus @ sub.range_minus.conj().T

    def comm(A, B):
        return max_norm(A @ B - B @ A)

    return {
        "a_plus_rho_plus": comm(pair.a_plus, sub.rho_plus),
        "a_minus_rho_minus": comm(pair.a_minus, sub.rho_minus),
        "a_plus_R_plus": comm(pair.a_plus, Rp),
        "a_minus_R_minus": comm(pair.a_minus, Rm),
    }


class DetectableSplit(Record):
    """Blocks of a twin pair with respect to the range/null decomposition
    of the subsystem states: primed blocks act on the ranges, double
    primed blocks on the null spaces."""

    FIELDS = ("a_prime_plus", "a_prime_minus", "a_dprime_plus", "a_dprime_minus",
              "range_basis_plus", "range_basis_minus", "null_basis_plus", "null_basis_minus")

    def reassemble(self):
        """Embed the blocks back: must reproduce the original pair."""
        return (_lift(self.range_basis_plus, self.a_prime_plus)
                + _lift(self.null_basis_plus, self.a_dprime_plus),
                _lift(self.range_basis_minus, self.a_prime_minus)
                + _lift(self.null_basis_minus, self.a_dprime_minus))

    def detectable_lifted(self) -> ObservablePair:
        """The pair A'_s ⊕ 0''_s on the full subsystem spaces."""
        return ObservablePair._trusted(_lift(self.range_basis_plus, self.a_prime_plus),
                                       _lift(self.range_basis_minus, self.a_prime_minus))

    def undetectable_lifted(self) -> ObservablePair:
        """The pair 0'_s ⊕ A''_s on the full subsystem spaces."""
        return ObservablePair(_lift(self.null_basis_plus, self.a_dprime_plus),
                              _lift(self.null_basis_minus, self.a_dprime_minus))


def _lift(B: np.ndarray, A: np.ndarray) -> np.ndarray:
    return B @ A @ B.conj().T


def split_detectable(pair: ObservablePair, state: BipartiteState) -> DetectableSplit:
    """Block decomposition A_s = A'_s ⊕ A''_s over range(rho_s) ⊕ null(rho_s).

    Raises NotReducible when the off-block norms exceed residual_tol,
    i.e. when [A_s, R_s] != 0.
    """
    _check_dims("pair", pair.a_plus, pair.a_minus, state)
    sub = state.subsystems
    Bp, Np, Bm, Nm = sub.range_plus, sub.null_plus, sub.range_minus, sub.null_minus
    off_p = max_norm(Np.conj().T @ pair.a_plus @ Bp)
    off_m = max_norm(Nm.conj().T @ pair.a_minus @ Bm)
    if max(off_p, off_m) > state.tol.residual_tol:
        raise NotReducibleError(
            f"pair does not reduce over range/null split: off-block norms "
            f"({off_p:.3e}, {off_m:.3e})"
        )
    return DetectableSplit(
        a_prime_plus=Bp.conj().T @ pair.a_plus @ Bp,
        a_prime_minus=Bm.conj().T @ pair.a_minus @ Bm,
        a_dprime_plus=Np.conj().T @ pair.a_plus @ Np,
        a_dprime_minus=Nm.conj().T @ pair.a_minus @ Nm,
        range_basis_plus=Bp,
        range_basis_minus=Bm,
        null_basis_plus=Np,
        null_basis_minus=Nm,
    )


def detectable_spectra(split: DetectableSplit,
                       cluster_tol: float = linops.DEFAULT_TOL.cluster_tol):
    """Common characteristic values of the detectable parts.

    Returns (sigma_prime, multiplicities_plus, multiplicities_minus);
    the value lists must agree (twins have equal detectable spectra)
    while the multiplicities may differ.
    """
    sp, sm = _detectable_data(split, cluster_tol)
    return (sp.values + sm.values) / 2, sp.multiplicities, sm.multiplicities


def _detectable_data(split: DetectableSplit, cluster_tol: float):
    """SpectralData of both detectable parts; raises SpectraMismatch
    unless their characteristic values agree."""
    sp = spectral_data(split.a_prime_plus, cluster_tol)
    sm = spectral_data(split.a_prime_minus, cluster_tol)
    _check_same_values(sp, sm, cluster_tol)
    return sp, sm


def _check_same_values(sp: SpectralData, sm: SpectralData, cluster_tol: float):
    """Raises SpectraMismatch unless the characteristic values agree."""
    if len(sp.values) != len(sm.values) or (
        len(sp.values) and np.max(np.abs(sp.values - sm.values)) > 10 * cluster_tol
    ):
        raise SpectraMismatchError(
            f"detectable spectra differ: {sp.values} vs {sm.values} "
            "(the input pair is not a twin pair)"
        )


def characteristic_projector_twins(split: DetectableSplit, state: BipartiteState):
    """Characteristic projectors of the detectable parts: the cluster
    eigenprojectors of A'_plus and A'_minus, paired by index over the
    common spectrum; each projector pair is itself a twin pair for rho'.

    Returns a list of (value, P'_plus, P'_minus, twin_witness), the
    witness that of the twin test of ``twins.is_twin_pair`` on the factor
    Y = (B_plus ⊗ B_minus)† C of rho' = Y Y†, B_s the split's range
    bases: rho' is not formed.
    """
    Bp, Bm = split.range_basis_plus, split.range_basis_minus
    _check_dims("basis", Bp, Bm, state)
    sp, sm = _detectable_data(split, state.tol.cluster_tol)
    Y = linops.local_compress(state.factor, Bp, Bm).reshape(-1, state.factor.shape[1])
    out = []
    for a, Pp, Pm in zip((sp.values + sm.values) / 2, sp.projectors, sm.projectors):
        witness = _twin_witness(Pp, Pm, Y, state.tol.residual_tol)[1]
        out.append((float(a), Pp, Pm, witness))
    return out


def apply_function(pair: ObservablePair, f,
                   cluster_tol: float = linops.DEFAULT_TOL.cluster_tol) -> ObservablePair:
    """Spectral calculus F(A_s) = sum_a f(a) P_s(a) on both sides.

    f is evaluated on the clustered characteristic values of each full
    subsystem operator; twins map to twins under any such function.
    """
    def apply_side(A):
        data = spectral_data(A, cluster_tol)
        return sum(float(f(a)) * P for a, P in zip(data.values, data.projectors))

    return ObservablePair(apply_side(pair.a_plus), apply_side(pair.a_minus))


def symmetric_polynomial(pairs, poly: dict, state: BipartiteState) -> ObservablePair:
    """Evaluate a symmetric real polynomial on a list of twin pairs,
    symmetrizing each monomial over all operator orderings.

    poly maps exponent tuples (one nonnegative integer per pair) to finite
    real coefficients, e.g. {(1, 1): 1.0} for x*y; other entries raise
    ValueError.  Raises NotSymmetric when the coefficients are not
    invariant under permuting the variables, and DimensionMismatch when a
    pair's dims are not the state's.  The mean of the distinct words of
    exponents e, of degree n, is S(e) prod(e_i!)/n! by S(0) = 1 and
    S(e) = sum_{i: e_i > 0} A_i S(e - delta_i), memoized over all terms:
    at most k prod(e_i + 1) products a term.
    """
    for pair in pairs:
        _check_dims("pair", pair.a_plus, pair.a_minus, state)
    k = len(pairs)
    for e, c in poly.items():
        if len(e) != k or not all(isinstance(x, (int, np.integer)) and x >= 0 for x in e):
            raise ValueError("each exponent tuple must have one nonnegative integer entry per pair")
        if not (isinstance(c, (int, float, np.integer, np.floating)) and math.isfinite(c)):
            raise ValueError("each coefficient must be a finite real number")
    canon = {tuple(e): c for e, c in poly.items()}
    for e, c in canon.items():
        seen, todo = {e}, [e]
        while todo:
            pe = todo.pop()
            if not math.isclose(canon.get(pe, 0.0), c, abs_tol=1e-12):
                raise NotSymmetricError(f"coefficient of {e} differs from its permutation {pe}")
            swaps = {pe[:i] + (pe[i + 1], pe[i]) + pe[i + 2:] for i in range(k - 1)} - seen
            seen |= swaps
            todo.extend(swaps)

    def eval_side(ops, dim):
        S = {(0,) * k: np.eye(dim, dtype=complex)}
        total = np.zeros((dim, dim), dtype=complex)
        for e, c in canon.items():
            if c == 0.0:
                continue
            for f in np.ndindex(*(x + 1 for x in e)):  # each f - delta_i comes before f
                if f not in S:
                    S[f] = sum(ops[i] @ S[f[:i] + (x - 1,) + f[i + 1:]]
                               for i, x in enumerate(f) if x)
            total += c * S[e] * (math.prod(map(math.factorial, e)) / math.factorial(sum(e)))
        return total

    a_plus = eval_side([p.a_plus for p in pairs], state.d_plus)
    a_minus = eval_side([p.a_minus for p in pairs], state.d_minus)
    return ObservablePair(a_plus, a_minus)


class MatchedBases(Record):
    """Characteristic bases of a complete twin pair, index-aligned by
    characteristic value: column a of basis_plus (d_plus x r) and of
    basis_minus (d_minus x r) belongs to sigma_prime[a].  Vectors live
    on the full subsystem spaces and span the subsystem ranges."""

    FIELDS = ("sigma_prime", "basis_plus", "basis_minus")


def matched_bases_from_pair(pair: ObservablePair, state: BipartiteState) -> MatchedBases:
    """Matched characteristic bases of a complete twin pair, sorted by
    ascending characteristic value on both sides.

    The detectable spectra come from ``_pair_spectra``: a pair that
    ``find_complete_twins`` returned, or that was just split for this
    state, is not split or eigendecomposed again."""
    return _matched_bases(state, *_pair_spectra(pair, state))


def _pair_spectra(pair: ObservablePair, state: BipartiteState) -> tuple:
    """(SpectralData of A'_plus, SpectralData of A'_minus) of pair on
    state, computed once per pair and state.

    The state keeps the last pair asked about, with its spectra, in its
    instance dict under "_pair_spectra" (as the cached_property fields
    are kept), keyed by identity.  The entry holds the pair itself, so
    its id cannot be reused while the entry lives, and a pair's arrays
    are read-only, so the entry cannot go stale.  The eigenvectors are
    coordinates in the range bases of ``state.subsystems``."""
    memo = state.__dict__.get("_pair_spectra")
    if memo is None or memo[0] is not pair:
        split = split_detectable(pair, state)
        memo = (pair, *_detectable_data(split, state.tol.cluster_tol))
        state.__dict__["_pair_spectra"] = memo
    return memo[1:]


def _matched_bases(state: BipartiteState, sp: SpectralData, sm: SpectralData) -> MatchedBases:
    """Matched bases from the spectral data of the detectable parts of a
    pair on state; raises DegenerateSpectrumCollision unless both
    detectable spectra are nondegenerate."""
    if np.any(sp.multiplicities != 1) or np.any(sm.multiplicities != 1):
        raise DegenerateSpectrumCollisionError(
            "pair is not complete: detectable spectrum is degenerate"
        )
    # the values ascend on both sides, so their mean does, with the columns
    return MatchedBases(
        sigma_prime=(sp.values + sm.values) / 2,
        basis_plus=state.subsystems.range_plus @ sp.vectors,
        basis_minus=state.subsystems.range_minus @ sm.vectors,
    )


def _complex_normals(rng: random.Random, n: int) -> np.ndarray:
    """n complex numbers whose real and imaginary parts are independent
    standard normals: the Box-Muller transform of 2n 53-bit uniforms on
    (0, 1] from one randbytes call of rng, the first n giving the radii
    and the last n the angles."""
    u = ((np.frombuffer(rng.randbytes(16 * n), dtype="<u8") >> np.uint64(11)) + 1) * 2.0 ** -53
    return np.sqrt(-2 * np.log(u[:n])) * np.exp(2j * np.pi * u[n:])


def _block_data(A: np.ndarray, labels: np.ndarray, tol: linops.Tolerances) -> SpectralData:
    """SpectralData of a detectable block A' (r x r, in the range basis
    of a reduction) read off its diagonal blocks: labels gives the
    eigenspace group of each range coordinate, as the labels of
    ``state.subsystems`` do, so equal labels are contiguous.

    An entry of A' between two groups beyond tol.residual_tol raises
    NotReducibleError, as ``split_detectable`` does for the range/null
    blocks.  When every group is one coordinate, coordinate i gives the
    eigenvalue Re A'_ii and the unit vector e_i, whose phase already
    follows the rule of ``linops.eigh``.  Otherwise the blocks go through
    one ``linops.eigh`` of A' with the entries between groups set to
    zero: at these sizes the call, not LAPACK, costs most, so one eigh
    of the block-diagonal part beats one per group.  The eigenpairs,
    sorted by value, are clustered at tol.cluster_tol as in
    ``spectral_data``."""
    same = labels[:, None] == labels
    between = max_norm(A[~same])
    if between > tol.residual_tol:
        raise NotReducibleError(
            f"pair does not reduce over the eigenspaces of the reduction: an entry "
            f"between two of them is {between:.3e}"
        )
    if labels[-1] - labels[0] < len(labels) - 1:  # fewer groups than coordinates
        vals, vecs = linops.eigh(np.where(same, A, 0))
    else:
        vals = A.diagonal().real
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], np.eye(len(A), dtype=complex)[:, order]
    return _clustered(vals, vecs, tol.cluster_tol)


def find_complete_twins(twin_space: TwinSpace, state: BipartiteState, seed: int = 0):
    """(pair, MatchedBases) of a pair of the twin space whose detectable
    spectra are nondegenerate on both sides; None when no complete twins
    exist (always when rho_plus and rho_minus differ in rank).

    One seeded draw decides, with probability 1.  The draw is a pair
    G = (G_plus, G_minus) of standard Gaussian Hermitian matrices,
    G_s = (X_s + X_s†)/2 for X_s with independent standard normal real
    and imaginary parts from ``random.Random(seed)``, so that the
    coordinates of G_s over any Hilbert-Schmidt orthonormal basis of
    the Hermitian matrices are independent standard normals.  It is
    projected onto the twin space: the pair
    sum_k <B_k, G> B_k over the orthonormal basis B_k, <., .> the
    Hilbert-Schmidt products summed over both sides.  The projection of
    an isotropic Gaussian is an isotropic Gaussian on the subspace, so
    the result depends on the twin space and the seed, not on the basis
    the solver returned.  A side's detectable spectrum is degenerate
    exactly where the discriminant of its characteristic polynomial, a
    real polynomial in the coordinates, vanishes, and if one pair of the
    space is complete the product of the two discriminants is not
    identically zero.  The draw's detectable part is a standard Gaussian
    on the detectable subspace, so its gaps are of order 1, far above
    cluster_tol.

    The draw is split once.  A twin commutes with rho_plus and
    rho_minus, so its detectable blocks are block diagonal over the
    eigenspaces of the reductions, and their spectra are read off those
    blocks (``_block_data``) as the labels of ``state.subsystems`` group
    them for the solve; a draw with an entry between two groups beyond
    residual_tol, such as one from another state's twin space, raises
    NotReducibleError.

    The pair is that detectable part lifted with zero undetectable
    blocks.  The state remembers the spectra of its detectable blocks
    (see ``_pair_spectra``), which the lifted pair shares up to rounding
    since B† (B A' B†) B = A', so they are computed once.  A twin space
    whose dims do not match the state raises DimensionMismatchError.
    """
    a_plus, a_minus = twin_space.operators()
    _check_dims("twin space", a_plus, a_minus, state)
    sub = state.subsystems
    if sub.range_plus.shape[1] != sub.range_minus.shape[1]:
        return None
    dp, dm = state.d_plus, state.d_minus
    z = _complex_normals(random.Random(operator.index(seed)), dp * dp + dm * dm)
    a_plus, a_minus = a_plus.reshape(len(a_plus), -1), a_minus.reshape(len(a_minus), -1)
    # G_s = (X_s + X_s†)/2 for X_s the d_s x d_s block of z, and for a
    # Hermitian B, <B, G_s> = tr(B G_s) = Re tr(B X_s), so G is not formed
    c = (a_plus @ z[:dp * dp].reshape(dp, dp).T.ravel()
         + a_minus @ z[dp * dp:].reshape(dm, dm).T.ravel()).real
    pair = ObservablePair._trusted((c @ a_plus).reshape(dp, dp), (c @ a_minus).reshape(dm, dm))
    split = split_detectable(pair, state)
    # the range coordinates are the last r of each reduction's eigenbasis
    r = sub.range_plus.shape[1]
    sp = _block_data(split.a_prime_plus, sub.labels_plus[dp - r:], state.tol)
    sm = _block_data(split.a_prime_minus, sub.labels_minus[dm - r:], state.tol)
    # multiplicities first: a degenerate draw is a verdict, not a mismatch
    if np.any(sp.multiplicities != 1) or np.any(sm.multiplicities != 1):
        return None
    _check_same_values(sp, sm, state.tol.cluster_tol)
    lifted = split.detectable_lifted()
    state.__dict__["_pair_spectra"] = (lifted, sp, sm)
    return lifted, _matched_bases(state, sp, sm)
