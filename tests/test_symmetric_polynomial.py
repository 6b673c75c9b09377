"""symmetric_polynomial against the enumeration over every ordering
(reference.enumerated_eval_side and reference.enumerated_symmetry_check)
and against closed forms at degrees the enumeration cannot reach."""

import itertools
import time

import numpy as np
import pytest

from twinobs import ObservablePair, from_pure, is_twin_pair, solve_twin_space, symmetric_polynomial
from twinobs.errors import NotSymmetricError
from twinobs.linops import max_norm

import reference
from conftest import random_hermitian, random_state

# largest exponent of one variable, by number of variables: the
# enumeration multiplies out up to 2520 orderings of degree 8
MAX_EXPONENT = {1: 6, 2: 4, 3: 2, 4: 2}


def random_symmetric_poly(rng, k):
    """{exponents: coefficient} over one to three orbits of random
    exponent tuples, one coefficient in [-2, 2] per orbit."""
    poly = {}
    for _ in range(int(rng.integers(1, 4))):
        e = tuple(int(x) for x in rng.integers(0, MAX_EXPONENT[k] + 1, size=k))
        c = float(rng.uniform(-2, 2))
        poly.update(dict.fromkeys(set(itertools.permutations(e)), c))
    return poly


def perturbed(rng, poly):
    """poly unchanged, with one entry dropped (a missing rearrangement),
    or with one coefficient moved by 1e-12 to 3e-9, log-uniform and of
    either sign: across the band where math.isclose at rel_tol 1e-9 and
    abs_tol 1e-12 changes its verdict."""
    poly = dict(poly)
    key = list(poly)[int(rng.integers(len(poly)))]
    kind = int(rng.integers(3))
    if kind == 1:
        del poly[key]
    elif kind == 2:
        poly[key] += rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, np.log10(3e-9))
    return poly


def scale(poly, ops) -> float:
    """The sum over the terms of |coefficient| times the product of the
    operators' spectral norms to their exponents: the size of the
    largest value an evaluation can reach, and the scale of its
    rounding, since its products and sums each err by a few eps of it."""
    norms = np.array([np.linalg.norm(A, 2) for A in ops])
    return sum(abs(c) * np.prod(norms ** np.array(e)) for e, c in poly.items())


def bound(want, poly, ops) -> float:
    """The distance an evaluation may have from want: 1e-12 relative, or
    100 eps times the scale where want itself is near zero, as a product
    of twins with disjoint supports is."""
    return max(1e-12 * max_norm(want), 100 * np.finfo(float).eps * scale(poly, ops))


def one_word(poly, ops, dim):
    """The share of one word in the evaluation: the coefficient of the
    first nonconstant monomial times the product of its first ordering,
    over its number of distinct orderings."""
    e, c = next((e, c) for e, c in poly.items() if c != 0.0 and sum(e))
    orderings = sorted(set(itertools.permutations([v for v, x in enumerate(e) for _ in range(x)])))
    product = np.eye(dim, dtype=complex)
    for var in orderings[0]:
        product = product @ ops[var]
    return c * product / len(orderings)


def enumerated_verdict(poly, k) -> bool:
    try:
        reference.enumerated_symmetry_check(poly, k)
    except NotSymmetricError:
        return False
    return True


@pytest.mark.parametrize("seed", range(4))
def test_values_and_verdicts_match_the_enumeration(seed):
    rng = np.random.default_rng(28000 + seed)
    states = [random_state(rng, 2, 3, rank=r) for r in (1, 2, 3)]
    spaces = [solve_twin_space(st) for st in states]
    verdicts, caught = [], 0
    for n in range(60):
        st, space = states[n % 3], spaces[n % 3]
        k = int(rng.integers(1, 5))
        pairs = [space.basis[int(i)] for i in rng.integers(len(space.basis), size=k)]
        poly = perturbed(rng, random_symmetric_poly(rng, k))
        symmetric = enumerated_verdict(poly, k)
        verdicts.append(symmetric)
        if not symmetric:
            with pytest.raises(NotSymmetricError):
                symmetric_polynomial(pairs, poly, st)
            continue
        out = symmetric_polynomial(pairs, poly, st)
        for got, ops, dim in ((out.a_plus, [p.a_plus for p in pairs], st.d_plus),
                              (out.a_minus, [p.a_minus for p in pairs], st.d_minus)):
            want = reference.enumerated_eval_side(poly, ops, dim)
            assert max_norm(got - want) <= bound(want, poly, ops), (poly, max_norm(got - want))
            if any(c != 0.0 and sum(e) for e, c in poly.items()):
                # an evaluation with one word dropped fails the same check
                # wherever that word does not vanish up to rounding
                word = one_word(poly, ops, dim)
                if max_norm(word) > 1e-9 * scale(poly, ops):
                    assert max_norm(got - word - want) > bound(want, poly, ops), poly
                    caught += 1
    # the draws reach both verdicts, and dropped words that matter
    assert any(verdicts) and not all(verdicts) and caught


def test_coefficients_inside_and_outside_the_tolerance_band():
    # offsets around rel_tol 1e-9 of a coefficient 1 and around abs_tol
    # 1e-12 of a coefficient 0 (as a missing rearrangement is)
    state = from_pure(np.eye(2).ravel() / np.sqrt(2), 2, 2)
    pair = ObservablePair(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    cases = [(1.0, 5e-13, True), (1.0, 9e-10, True), (1.0, 1.1e-9, False), (1.0, 3e-9, False),
             (0.0, 5e-13, True), (0.0, 2e-12, False)]
    for base, offset, symmetric in cases:
        poly = {(2, 1): 1.0, (1, 2): 1.0, (3, 0): base, (0, 3): base + offset}
        assert enumerated_verdict(poly, 2) is symmetric
        if symmetric:
            symmetric_polynomial([pair, pair], poly, state)
        else:
            with pytest.raises(NotSymmetricError):
                symmetric_polynomial([pair, pair], poly, state)


@pytest.mark.parametrize("exponents", [(12, 0), (7, 5), (6, 6), (4, 4, 4), (5, 0, 7)])
def test_commuting_twins_at_degree_12(exponents):
    # diagonal A is A^T, so (A, A) is a twin pair of the maximally entangled
    # state, and diagonal twins commute: every ordering of A^a B^b ... is
    # the same product, and the symmetrized monomial is that product
    d, k = 4, len(exponents)
    rng = np.random.default_rng(sum(exponents) * 10 + k)
    state = from_pure(np.eye(d).ravel() / np.sqrt(d), d, d)
    diags = rng.uniform(0.6, 1.4, size=(k, d)) * rng.choice([-1.0, 1.0], size=(k, d))
    pairs = [ObservablePair(np.diag(a), np.diag(a)) for a in diags]
    poly = dict.fromkeys(set(itertools.permutations(exponents)), 1.0)
    out = symmetric_polynomial(pairs, poly, state)
    expected = sum(np.diag(np.prod(diags ** np.array(e)[:, None], axis=0)) for e in poly)
    np.testing.assert_allclose(out.a_plus, expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(out.a_minus, expected, rtol=1e-12, atol=0)


def test_degree_12_on_twins_of_example2_ms0(example2_ms0):
    # x^12 + y^12 is A^12 + B^12 on each side; x^6 y^6 has 924 orderings
    A, B = solve_twin_space(example2_ms0).basis[:2]
    out = symmetric_polynomial([A, B], {(12, 0): 1.0, (0, 12): 1.0}, example2_ms0)
    power = np.linalg.matrix_power
    np.testing.assert_allclose(out.a_plus, power(A.a_plus, 12) + power(B.a_plus, 12), atol=1e-12)
    np.testing.assert_allclose(out.a_minus, power(A.a_minus, 12) + power(B.a_minus, 12), atol=1e-12)
    for poly in ({(12, 0): 1.0, (0, 12): 1.0}, {(6, 6): 1.0}):
        ok, residual = is_twin_pair(example2_ms0, symmetric_polynomial([A, B], poly, example2_ms0))
        assert ok, residual


def test_symmetrized_products_of_twins_of_a_maximally_entangled_state():
    # (H, H^T) is a twin pair of the 9 x 9 maximally entangled state; the
    # product of 6 matches the enumeration, the product of 8 (40320
    # orderings) is a twin pair
    rng = np.random.default_rng(2808)
    state = from_pure(np.eye(9).ravel() / 3, 9, 9)
    pairs = [ObservablePair(H, H.T) for H in (random_hermitian(rng, 9) for _ in range(8))]
    six = symmetric_polynomial(pairs[:6], {(1,) * 6: 1.0}, state)
    want = reference.enumerated_eval_side({(1,) * 6: 1.0}, [p.a_plus for p in pairs[:6]], 9)
    assert max_norm(six.a_plus - want) <= 1e-12 * max_norm(want)
    ok, residual = is_twin_pair(state, symmetric_polynomial(pairs, {(1,) * 8: 1.0}, state))
    assert ok, residual


@pytest.mark.parametrize("coefficient", [np.nan, np.inf, -np.inf, 1 + 0j, 1j, np.complex128(1.0),
                                         "1.0"])
def test_coefficient_that_is_not_a_finite_real_is_rejected(example1, coefficient):
    # NaN raised NotSymmetricError naming the identity permutation, a
    # complex coefficient a bare TypeError from math.isclose
    pair = ObservablePair(np.diag([0.5, -0.5]), np.diag([-0.5, 0.5]))
    with pytest.raises(ValueError, match="finite real"):
        symmetric_polynomial([pair, pair], {(1, 0): coefficient, (0, 1): coefficient}, example1)


def test_single_precision_coefficient_scales_in_double_precision():
    # the mean's weight 1/3 multiplies the complex128 result, not the
    # float32 coefficient, so it is not rounded to single precision
    state = from_pure(np.eye(2).ravel() / np.sqrt(2), 2, 2)
    pair = ObservablePair(np.diag([1.0, 2.0]), np.diag([1.0, 2.0]))
    poly = {(2, 1): np.float32(1.0), (1, 2): np.float32(1.0)}
    out = symmetric_polynomial([pair, pair], poly, state)
    np.testing.assert_allclose(out.a_plus, np.diag([2.0, 16.0]), rtol=1e-15, atol=0)


def test_non_transitive_closeness_within_an_orbit():
    # 1 and 1 + 1.8e-9 are not isclose, though each is isclose to
    # 1 + 0.9e-9: the verdict compares every two coefficients of an orbit,
    # a rearrangement left out (fewer than six values) as 0.0
    state = from_pure(np.eye(2).ravel() / np.sqrt(2), 2, 2)
    pair = ObservablePair(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    orbit = sorted(itertools.permutations((0, 1, 2)))
    cases = [([1.0, 1.0 + 0.9e-9] + [1.0 + 1.8e-9] * 4, False),
             ([1.0, 1.0 + 0.45e-9] + [1.0 + 0.9e-9] * 4, True),
             ([0.9e-12] * 5, True),
             ([-0.6e-12] + [0.6e-12] * 4, False),
             ([1.0] * 5, False)]
    for values, symmetric in cases:
        poly = dict(zip(orbit, values))
        assert enumerated_verdict(poly, 3) is symmetric
        if symmetric:
            symmetric_polynomial([pair] * 3, poly, state)
        else:
            with pytest.raises(NotSymmetricError):
                symmetric_polynomial([pair] * 3, poly, state)


def test_symmetry_check_walks_each_orbit_once():
    # every rearrangement of (0, 1, ..., 6), with the last coefficient off
    # by 1e-6, or followed by an orbit of which only one tuple is listed:
    # comparing each tuple with each rearrangement of the listing took
    # 103.5 s before the second
    state = from_pure(np.eye(2).ravel() / np.sqrt(2), 2, 2)
    pair = ObservablePair(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    listing = dict.fromkeys(itertools.permutations(range(7)), 1.0)
    off = dict(listing)
    off[tuple(range(6, -1, -1))] += 1e-6
    for poly in (off, {**listing, (7, 0, 0, 0, 0, 0, 0): 1.0}):
        start = time.perf_counter()
        with pytest.raises(NotSymmetricError):
            symmetric_polynomial([pair] * 7, poly, state)
        assert time.perf_counter() - start < 10.0
