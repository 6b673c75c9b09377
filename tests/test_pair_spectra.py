"""A state remembers the split and detectable spectra of the last twin
pair it was asked about, so the complete-twin search, the matched
bases, the measurement report and the Schmidt form eigendecompose a
pair's detectable blocks once per state.

A hit must give what a fresh state computes, the memo must follow the
pair it was filled for (never another pair or another state), and a
pair's arrays must be read-only so that an identity key cannot go
stale."""

import numpy as np
import pytest

from twinobs import (
    BipartiteState,
    ObservablePair,
    distant_measurement_report,
    find_complete_twins,
    from_pure,
    matched_bases_from_pair,
    pure_schmidt,
    solve_twin_space,
)
from twinobs import linops, spectral


def isometry(rng, n, m):
    Z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return np.linalg.qr(Z)[0]


def schmidt_state(U, V, lam):
    """Pure state sum_a lam_a |u_a, v_a> over the first len(lam) columns."""
    r = len(lam)
    lam = np.asarray(lam, dtype=float) / np.linalg.norm(lam)
    return from_pure(np.einsum("ia,ja,a->ij", U[:, :r], V[:, :r], lam).ravel(),
                     len(U), len(V))


def block_state(rng, d, rank):
    """A rank-`rank` state on span{|u_a, v_a>}: complete twins exist."""
    U, V = isometry(rng, d, d), isometry(rng, d, d)
    D = np.einsum("ia,ja->ija", U, V).reshape(d * d, d)
    X = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = D @ (X @ X.conj().T) @ D.conj().T
    return BipartiteState(d, d, rho / np.trace(rho).real)


def user_pair(pair):
    """A pair built by the user from copies of the arrays of `pair`."""
    return ObservablePair(np.array(pair.a_plus), np.array(pair.a_minus))


def column_projectors(B):
    """|b_a><b_a| for each column: a basis vector up to its phase."""
    return np.einsum("ia,ja->aij", B, B.conj())


def outputs(state, pair, pure):
    mb = matched_bases_from_pair(pair, state)
    report = distant_measurement_report(state, pair)
    out = [mb.sigma_prime, column_projectors(mb.basis_plus), column_projectors(mb.basis_minus),
           [o.value for o in report.outcomes],
           [o.probability_plus for o in report.outcomes],
           [o.probability_minus for o in report.outcomes],
           report.max_collapse_gap]
    if pure:
        coeffs, basis_plus, basis_minus = pure_schmidt(state, pair)
        out.extend([coeffs, column_projectors(basis_plus), column_projectors(basis_minus)])
    return out


def assert_outputs_close(got, ref, atol):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        np.testing.assert_allclose(g, r, rtol=0, atol=atol)


def forbid_decompositions(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition of a remembered pair")

    for module, name in ((linops, "eigh"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, forbidden)


def count_splits(monkeypatch):
    calls = []
    split = spectral.split_detectable
    monkeypatch.setattr(spectral, "split_detectable",
                        lambda *args: calls.append(1) or split(*args))
    return calls


@pytest.mark.parametrize("kind, d", [("pure", 4), ("pure", 7), ("block2", 5), ("block2", 8)])
def test_the_found_pair_needs_no_decomposition(kind, d, monkeypatch):
    """After the search, the matched bases, the report and the Schmidt
    form of the pair it returned make no eigh and no split, and agree
    within 1e-12 with a fresh state that splits the lifted pair."""
    rng = np.random.default_rng(40 + d)
    if kind == "pure":
        U, V = isometry(rng, d, d), isometry(rng, d, d)
        state = schmidt_state(U, V, np.arange(1, d + 1) + 0.4 * rng.uniform(size=d))
    else:
        state = block_state(rng, d, 2)
    pair, mb = find_complete_twins(solve_twin_space(state), state)

    forbid_decompositions(monkeypatch)
    splits = count_splits(monkeypatch)
    got = outputs(state, pair, kind == "pure")
    assert splits == []
    again = matched_bases_from_pair(pair, state)
    for field in ("sigma_prime", "basis_plus", "basis_minus"):
        assert np.array_equal(getattr(again, field), getattr(mb, field))
    monkeypatch.undo()

    fresh = BipartiteState(state.d_plus, state.d_minus, state.rho)
    assert_outputs_close(got, outputs(fresh, pair, kind == "pure"), 1e-12)


def test_two_pairs_in_alternation_each_equal_a_fresh_computation():
    """Asking one state about two pairs in turn replaces the memo each
    time; every answer is bitwise that of a state that never saw the
    other pair."""
    rng = np.random.default_rng(52)
    state = block_state(rng, 5, 2)
    space = solve_twin_space(state)
    scratch = BipartiteState(5, 5, state.rho)
    first = user_pair(find_complete_twins(space, scratch, seed=0)[0])
    second = user_pair(find_complete_twins(space, scratch, seed=1)[0])
    assert not np.allclose(first.a_plus, second.a_plus)

    refs = {id(p): outputs(BipartiteState(5, 5, state.rho), p, False) for p in (first, second)}
    for pair in (first, second, first, second, first):
        got = outputs(state, pair, False)
        for g, r in zip(got, refs[id(pair)]):
            assert np.array_equal(g, r)


def test_one_pair_on_two_states_shows_no_cross_talk():
    """A complete twin of a Schmidt rank-3 state is a twin of the rank-2
    state on the first two Schmidt terms, with one characteristic value
    fewer; each state answers for its own ranges."""
    rng = np.random.default_rng(53)
    U, V = isometry(rng, 4, 4), isometry(rng, 4, 4)
    big = schmidt_state(U, V, [1.0, 2.1, 3.3])
    small = schmidt_state(U, V, [1.0, 2.1])
    pair, _ = find_complete_twins(solve_twin_space(big), big)

    refs = {id(st): outputs(BipartiteState(4, 4, st.rho), pair, True) for st in (big, small)}
    assert len(refs[id(big)][0]) == 3 and len(refs[id(small)][0]) == 2
    for st in (small, big, small, big):
        assert_outputs_close(outputs(st, pair, True), refs[id(st)], 1e-12)


def test_re_split_pair_keeps_its_matched_phases():
    """The found pair of the case above, split again as the lifted pair on
    a fresh state, gives the matched basis vectors of the search with
    their phases, not only their projectors."""
    rng = np.random.default_rng(53)
    U, V = isometry(rng, 4, 4), isometry(rng, 4, 4)
    big = schmidt_state(U, V, [1.0, 2.1, 3.3])
    pair, mb = find_complete_twins(solve_twin_space(big), big)
    again = matched_bases_from_pair(pair, BipartiteState(4, 4, big.rho))
    np.testing.assert_allclose(again.basis_minus, mb.basis_minus, rtol=0, atol=1e-12)
    np.testing.assert_allclose(again.basis_plus, mb.basis_plus, rtol=0, atol=1e-12)


def test_pair_arrays_are_read_only():
    rng = np.random.default_rng(54)
    state = block_state(rng, 4, 2)
    space = solve_twin_space(state)
    found, _ = find_complete_twins(space, state)
    built = ObservablePair(np.eye(4), np.eye(4))
    for pair in (built, space.basis[0], found, ObservablePair._trusted(built.a_plus, built.a_minus)):
        for A in (pair.a_plus, pair.a_minus):
            with pytest.raises(ValueError, match="read-only"):
                A[0, 0] = 7.0


def test_report_then_schmidt_on_a_user_pair_splits_once(monkeypatch):
    rng = np.random.default_rng(55)
    U, V = isometry(rng, 5, 5), isometry(rng, 5, 5)
    state = schmidt_state(U, V, [1.0, 1.7, 2.6, 3.2])
    found, _ = find_complete_twins(solve_twin_space(state), BipartiteState(5, 5, state.rho))
    pair = user_pair(found)
    splits = count_splits(monkeypatch)
    assert distant_measurement_report(state, pair).passed
    pure_schmidt(state, pair)
    assert splits == [1]


def test_cli_spectrum_report_reads_the_remembered_spectra(monkeypatch):
    """The detectable spectrum that `verify` and `analyze` print comes
    from the pair's remembered spectra: after the measurement report of
    (S_z, -S_z) on example2_ms0 it makes no split and no eigh, and it
    equals the report of a fresh state."""
    from twinobs import cli
    from twinobs.spin import SpinScenario, build_scenario, spin_z

    state = build_scenario(SpinScenario("example2_ms0"))
    pair = ObservablePair(spin_z(1), -spin_z(1))
    assert distant_measurement_report(state, pair).passed

    forbid_decompositions(monkeypatch)
    splits = count_splits(monkeypatch)
    report = cli._detectable_spectrum_report(state, pair)
    assert splits == []
    monkeypatch.undo()

    fresh = BipartiteState(state.d_plus, state.d_minus, state.rho)
    assert report == cli._detectable_spectrum_report(fresh, pair)
    assert report == {"detectable_spectrum": [-1.0, 0.0, 1.0],
                      "multiplicities_plus": [1, 1, 1], "multiplicities_minus": [1, 1, 1]}
