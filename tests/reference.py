"""Reference helpers that the tests use as oracles.

No code path of twinobs needs them: the package decides each rank cut
by ``linops.rank_cut`` and groups each spectrum by
``linops.group_starts``, keeps only the eigenvalues, range basis and
error of the cut of rho (``BipartiteState``) and applies the twin
operator, the geometry check and the reduced components by reshapes.
These are the dense or direct forms of the same objects, such as the
D x D range and null projectors of a state, and the comparisons that
the two linops rules replaced, kept here unchanged so that a drift of
the package shows up as a mismatch."""

import itertools
import math
from types import SimpleNamespace

import numpy as np

from twinobs import linops
from twinobs.errors import DimensionMismatchError, NotPositiveError, NotSymmetricError
from twinobs.linops import DEFAULT_TOL, hermitian_basis, max_norm, range_null_bases
from twinobs.states import GeometryReport


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


def projectors(state) -> SimpleNamespace:
    """Range/null projectors R = B B^dagger, N = 1 - R of rho and of
    both reductions, from the cached range bases B, as the fields R, N,
    R_plus, N_plus, R_minus and N_minus."""
    sub = state.subsystems
    R, Rp, Rm = (B @ B.conj().T for B in (state.range_basis(), sub.range_plus, sub.range_minus))
    N, Np, Nm = (np.eye(len(P), dtype=complex) - P for P in (R, Rp, Rm))
    return SimpleNamespace(R=R, N=N, R_plus=Rp, N_plus=Np, R_minus=Rm, N_minus=Nm)


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
    return np.kron(pair.a_plus, np.eye(pair.d_minus)) - np.kron(
        np.eye(pair.d_plus), pair.a_minus
    )


def dense_subspace_geometry(state):
    """GeometryReport of a BipartiteState from the D x D projectors and
    their Kronecker products, as states.verify_subspace_geometry once
    formed it."""
    p = projectors(state)
    Ip = np.eye(state.d_plus)
    Im = np.eye(state.d_minus)
    RpRm = np.kron(p.R_plus, p.R_minus)
    Rp1 = np.kron(p.R_plus, Im)
    R1m = np.kron(Ip, p.R_minus)
    Np1 = np.kron(p.N_plus, Im)
    N1m = np.kron(Ip, p.N_minus)
    residuals = {
        "R_eq_R_RpRm": max_norm(p.R - p.R @ RpRm),
        "R_eq_Rp1_R": max_norm(p.R - Rp1 @ p.R),
        "R_eq_1Rm_R": max_norm(p.R - R1m @ p.R),
        "Np1_N_eq_Np1": max_norm(Np1 @ p.N - Np1),
        "1Nm_N_eq_1Nm": max_norm(N1m @ p.N - N1m),
        "rho_annihilates_null_plus": max_norm(state.rho @ Np1),
    }
    return GeometryReport(residuals=residuals, tolerance=state.tol.residual_tol)


def dense_compatibility_report(dec, mb, state) -> dict:
    """schmidt.compatibility_report with each reduced component the
    partial trace of the outer product |phi_i><phi_i|."""
    dp, dm = state.d_plus, state.d_minus
    outers = [np.outer(phi, phi.conj()) for phi in dec.vectors]
    sub = state.subsystems
    sides = {"+": (mb.basis_plus, "-", sub.rho_plus), "-": (mb.basis_minus, "+", sub.rho_minus)}
    report = {}
    for s, (B, traced, total) in sides.items():
        ops = [("A", B @ np.diag(mb.sigma_prime) @ B.conj().T)] + [
            (f"rho^({i})", linops.partial_trace(r, dp, dm, traced)) for i, r in enumerate(outers)
        ] + [("rho", total)]
        for (name_x, X), (name_y, Y) in itertools.combinations(ops, 2):
            report[f"[{name_x}, {name_y}]_{s}"] = max_norm(X @ Y - Y @ X)
    return report


def stacked_detectable_rank(space, state) -> int:
    """dim_detectable as solve_twin_space once counted it: the rank of
    the detectable blocks B_s† A_s B_s of the basis pairs, B_s the range
    bases of the reductions, one row a pair holding the real and
    imaginary parts of both sides, cut at 1e-8 * max(s_0, 1)."""
    sub = state.subsystems
    rows = []
    for B, ops in ((sub.range_plus, [p.a_plus for p in space.basis]),
                   (sub.range_minus, [p.a_minus for p in space.basis])):
        blocks = np.array([B.conj().T @ A @ B for A in ops]).reshape(len(ops), -1)
        rows += [blocks.real, blocks.imag]
    s = np.linalg.svd(np.concatenate(rows, axis=1), compute_uv=False)
    return int(np.sum(s > 1e-8 * max(s[0], 1.0)))


# The six rank-cut and grouping comparisons of the package before
# linops.rank_cut and linops.group_starts took them over, copied verbatim
# into functions of the values they compared, so that each site's call
# can be held to the rule it replaced.

def kernel_basis_rank(s, tol):
    """Rank of linops.kernel_basis: s the singular values, descending."""
    rank = int(np.sum(s > tol * s[0]))
    return rank


def range_null_keep(vals, tol):
    """Range mask of linops.range_null_bases: vals ascending."""
    lam_max = max(vals[-1], 0.0) if vals.size else 0.0
    keep = vals > tol * lam_max
    return keep


def low_rank_keep(theta, tol):
    """Kept Ritz values of linops.low_rank_cut: theta ascending, top > 0."""
    top = theta[-1]
    keep = theta > tol * top
    return keep


def detectable_rank(s):
    """Count of twins._detectable_rank: s descending."""
    return int(np.sum(s > 1e-8 * max(s[0], 1.0))) if s.size else 0


def eigenspace_labels(values, gap):
    """Eigenspace labels of one side of state.subsystems: values ascending."""
    return np.concatenate([[0], np.cumsum(values[1:] - values[:-1] > gap)])


def cluster_starts(vals, cluster_tol):
    """First index of each cluster of spectral._clustered: vals ascending."""
    starts = np.flatnonzero(np.concatenate(([True], vals[1:] - vals[:-1] > cluster_tol)))
    return starts


# spectral.symmetric_polynomial before the first-factor recursion and the
# walk over distinct rearrangements, copied verbatim into functions of
# canon (exponent tuple -> coefficient), so that the package's values and
# verdicts can be held to the enumeration over every ordering.

def enumerated_symmetry_check(canon, k):
    """Raises NotSymmetricError unless the coefficient of each exponent
    tuple is close to that of its image under every permutation of
    range(k)."""
    for e, c in canon.items():
        for perm in itertools.permutations(range(k)):
            pe = tuple(e[p] for p in perm)
            if not math.isclose(canon.get(pe, 0.0), c, abs_tol=1e-12):
                raise NotSymmetricError(
                    f"coefficient of {e} differs from its permutation {pe}"
                )


def enumerated_eval_side(canon, ops, dim):
    """One side of the polynomial: each monomial the mean of the products
    over its distinct orderings, every ordering multiplied out."""
    total = np.zeros((dim, dim), dtype=complex)
    for e, c in canon.items():
        if c == 0.0:
            continue
        word = []
        for var, exp in enumerate(e):
            word.extend([var] * exp)
        if not word:
            total += c * np.eye(dim)
            continue
        orderings = set(itertools.permutations(word))
        acc = np.zeros((dim, dim), dtype=complex)
        for order in orderings:
            prod = np.eye(dim, dtype=complex)
            for var in order:
                prod = prod @ ops[var]
            acc += prod
        total += c * acc / len(orderings)
    return total
