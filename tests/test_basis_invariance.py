"""The complete-twin search depends on the twin space and the seed, not
on the orthonormal basis of the space that the solver returns.

The search projects one seeded Gaussian pair onto the space, so rotating
the basis by an orthogonal Q must leave the found pair, its
characteristic values and its matched bases unchanged up to rounding,
and with them everything `analyze` and `schmidt` print about complete
twins."""

import json

import numpy as np
import pytest

from twinobs import (
    SCENARIO_NAMES,
    ObservablePair,
    SpinScenario,
    TwinSpace,
    build_scenario,
    cli,
    find_complete_twins,
    serialize,
    solve_twin_space,
)


def rotated(space: TwinSpace, seed: int) -> TwinSpace:
    """The same twin space over the basis B'_j = sum_k Q[k, j] B_k, Q a
    seeded random orthogonal matrix."""
    n = len(space.basis)
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    a_plus = np.tensordot(Q.T, np.array([p.a_plus for p in space.basis]), 1)
    a_minus = np.tensordot(Q.T, np.array([p.a_minus for p in space.basis]), 1)
    return TwinSpace(basis=tuple(ObservablePair(ap, am) for ap, am in zip(a_plus, a_minus)),
                     dim_total=space.dim_total, dim_detectable=space.dim_detectable,
                     dim_undetectable_plus=space.dim_undetectable_plus,
                     dim_undetectable_minus=space.dim_undetectable_minus)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_search_ignores_a_rotation_of_the_basis(name, seed):
    state = build_scenario(SpinScenario(name))
    space = solve_twin_space(state)
    found = find_complete_twins(space, state, seed=seed)
    again = find_complete_twins(rotated(space, 100 + seed), state, seed=seed)
    assert (found is None) == (again is None) == (name == "example1_range10_1m1")
    if found is None:
        return
    (pair, mb), (pair2, mb2) = found, again
    for got, ref in ((pair2.a_plus, pair.a_plus), (pair2.a_minus, pair.a_minus),
                     (mb2.sigma_prime, mb.sigma_prime), (mb2.basis_plus, mb.basis_plus),
                     (mb2.basis_minus, mb.basis_minus)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def assert_documents_close(got, ref, atol):
    if isinstance(ref, dict):
        assert isinstance(got, dict) and got.keys() == ref.keys()
        for key in ref:
            assert_documents_close(got[key], ref[key], atol)
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_documents_close(g, r, atol)
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        assert abs(got - ref) <= atol
    else:
        assert got == ref


@pytest.mark.parametrize("command", ["analyze", "schmidt"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_cli_output_ignores_a_rotation_of_the_basis(name, command, tmp_path, capsys,
                                                    monkeypatch):
    path = tmp_path / "state.json"
    path.write_text(serialize.dump_json(serialize.state_to_document(
        build_scenario(SpinScenario(name)))))
    argv = ["--seed", "3", command, str(path)]
    code = cli.main(argv)
    ref = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(cli, "solve_twin_space",
                        lambda state: rotated(solve_twin_space(state), 7))
    assert cli.main(argv) == code
    got = json.loads(capsys.readouterr().out)
    if command == "analyze":
        # the twin-space basis and its per-pair spectra are the basis itself
        for doc in (got, ref):
            del doc["twin_space"]["basis"], doc["basis_spectra"]
    assert_documents_close(got, ref, 1e-12)
