"""The CLI contract: an input error exits 2 with stderr starting
``input error:``, a failed check exits 1, and each command hands its
report back to ``main``, which renders and prints it once.

Also the paths behind it that the other CLI tests do not reach (no
complete twins, a pure state, an error raised by the computation), the
trace rule of ``BipartiteState``, and identity equality of the records
that hold arrays."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from twinobs import (
    BipartiteState,
    ObservablePair,
    SpinScenario,
    find_complete_twins,
    from_pure,
    serialize,
    solve_twin_space,
)
from twinobs import cli
from twinobs.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFICATION, main
from twinobs.errors import InputError, NotNormalizedError
from twinobs.linops import Tolerances
from twinobs.spectral import SpectralData
from twinobs.states import PureDecomposition


def write_state(path, state):
    path.write_text(serialize.dump_json(serialize.state_to_document(state)))
    return str(path)


def write_decomposition(path, dec):
    path.write_text(serialize.dump_json(serialize.decomposition_to_document(dec)))
    return str(path)


@pytest.fixture()
def state_file(tmp_path, example1):
    return write_state(tmp_path / "state.json", example1)


@pytest.fixture()
def no_complete_twins_file(tmp_path, example1_insufficient):
    return write_state(tmp_path / "insufficient.json", example1_insufficient)


@pytest.fixture()
def pure_file(tmp_path):
    phi = np.array([np.sqrt(0.7), 0, 0, np.sqrt(0.3)])
    return write_state(tmp_path / "pure.json", from_pure(phi, 2, 2))


def input_error(capsys):
    return capsys.readouterr().err.startswith("input error:")


class TestMalformedInputExit2:
    @pytest.mark.parametrize("command", ["analyze", "schmidt"])
    def test_negative_seed(self, state_file, command, capsys):
        assert main(["--seed", "-1", command, state_file]) == EXIT_INPUT
        assert input_error(capsys)

    def test_negative_seed_is_rejected_before_the_state_is_read(self, capsys):
        assert main(["--seed", "-1", "solve", "/nonexistent/state.json"]) == EXIT_INPUT
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", [["0.5", "0.5"], ["nan", "0.5", "0.5"],
                                         ["0", "0.5", "0.5"], ["-0.5", "1", "0.5"],
                                         ["inf", "0.5", "0.5"]])
    def test_bad_example_weights(self, weights, capsys):
        assert main(["example", "example2_ms0", "--weights", *weights]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "weights" in err

    @pytest.mark.parametrize("command", ["verify", "measure"])
    def test_pair_dims_differ_from_the_state(self, tmp_path, state_file, command, capsys):
        path = tmp_path / "pair3.json"
        path.write_text(serialize.dump_json(serialize.pair_to_document(
            ObservablePair(np.diag([1.0, 0.0, -1.0]), np.diag([-1.0, 0.0, 1.0])))))
        assert main([command, state_file, str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "(3,3)" in err and "(2,2)" in err

    def test_decomposition_vector_of_the_wrong_length(self, tmp_path, state_file, capsys):
        dec = PureDecomposition(weights=(1.0,), vectors=(np.array([0.6, 0.0, 0.8]),))
        path = write_decomposition(tmp_path / "short.json", dec)
        assert main(["schmidt", state_file, "--decomposition", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "vectors[0]" in err

    @pytest.mark.parametrize("content", [None, "{bad"], ids=["missing", "malformed"])
    def test_decomposition_is_read_before_the_search(self, tmp_path, no_complete_twins_file,
                                                     content, capsys):
        # the state has no complete twins, so a late read would never happen
        path = tmp_path / "dec.json"
        if content is not None:
            path.write_text(content)
        assert main(["schmidt", no_complete_twins_file, "--decomposition", str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error:") and "decomposition file" in err

    def test_trace_off_by_more_than_1e_6(self, tmp_path, example1, capsys):
        doc = serialize.state_to_document(example1)
        doc["rho"] = serialize.matrix_to_json(example1.rho * (1 + 2e-6))
        path = tmp_path / "trace.json"
        path.write_text(serialize.dump_json(doc))
        assert main(["solve", str(path)]) == EXIT_INPUT
        assert input_error(capsys)


class TestUnreachedPaths:
    def test_analyze_without_complete_twins(self, no_complete_twins_file, capsys):
        assert main(["analyze", no_complete_twins_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["complete_twins"] == "not found"

    def test_schmidt_without_complete_twins_exit_1(self, no_complete_twins_file, capsys):
        assert main(["schmidt", no_complete_twins_file]) == EXIT_VERIFICATION
        assert json.loads(capsys.readouterr().out) == {"complete_twins": "not found"}

    def test_schmidt_of_a_pure_state(self, pure_file, capsys):
        assert main(["schmidt", pure_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(sorted(report["schmidt_coefficients"]),
                                   np.sqrt([0.3, 0.7]), atol=1e-10)
        assert "simplified_matrix" not in report

    def test_computation_error_exit_1(self, tmp_path, state_file, capsys):
        # |00> lies outside the range of the state, so it leaks outside
        # the diagonal span of the matched bases
        dec = PureDecomposition(weights=(1.0,), vectors=(np.array([1.0, 0, 0, 0]),))
        path = write_decomposition(tmp_path / "leak.json", dec)
        assert main(["schmidt", state_file, "--decomposition", path]) == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "leaks" in err

    def test_no_complete_twins_for_unequal_subsystem_ranks(self):
        state = BipartiteState(2, 2, np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
        assert state.subsystems.range_plus.shape[1] == 1
        assert state.subsystems.range_minus.shape[1] == 2
        assert find_complete_twins(solve_twin_space(state), state) is None

    def test_trace_within_1e_6_is_renormalized(self, example1):
        state = BipartiteState(2, 2, example1.rho * (1 + 9e-7))
        assert abs(np.trace(state.rho).real - 1.0) <= 1e-14

    def test_trace_2e_6_away_is_rejected(self, example1):
        with pytest.raises(NotNormalizedError):
            BipartiteState(2, 2, example1.rho * (1 + 2e-6))


class TestOnePath:
    def test_handlers_return_their_report_without_printing(self, example1, capsys):
        args = SimpleNamespace(seed=0, decomposition=None)
        for handler in (cli.cmd_solve, cli.cmd_analyze, cli.cmd_schmidt):
            report, code = handler(example1, args)
            assert isinstance(report, dict) and code == EXIT_OK
        assert capsys.readouterr() == ("", "")

    def test_example_stays_json_under_text_format(self, capsys):
        assert main(["--format", "text", "example", "example1_range10_00"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["dims"] == [2, 2]

    def test_tolerance_flags_go_through_the_document_reader(self, capsys):
        assert main(["--rank-tol", "nan", "example", "example2_ms0"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: tolerances: rank_tol")

    @pytest.mark.parametrize("reader", [serialize.state_from_document,
                                        serialize.pair_from_document,
                                        serialize.decomposition_from_document,
                                        serialize.tolerances_from_json])
    def test_document_readers_share_the_object_check(self, reader):
        with pytest.raises(InputError, match="expected a JSON object"):
            reader([1, 2])

    @pytest.mark.parametrize("reader, missing", [
        (serialize.state_from_document, "'rho'"),
        (serialize.pair_from_document, "'a_minus'"),
        (serialize.decomposition_from_document, "'vectors'"),
    ])
    def test_document_readers_name_the_missing_field(self, reader, missing):
        doc = {"dims": [1, 1], "a_plus": [[[1, 0]]], "weights": [1.0]}
        with pytest.raises(InputError, match=f"missing field {missing}"):
            reader(doc)

    def test_memo_holds_the_spectra_only(self, example1):
        state = BipartiteState(2, 2, example1.rho)
        pair, mb = find_complete_twins(solve_twin_space(state), state)
        memo = state.__dict__["_pair_spectra"]
        assert len(memo) == 3 and memo[0] is pair
        assert all(isinstance(data, SpectralData) for data in memo[1:])
        assert np.array_equal(mb.basis_plus, state.subsystems.range_plus @ memo[1].vectors)
        assert np.array_equal(mb.basis_minus, state.subsystems.range_minus @ memo[2].vectors)


class TestIdentityEquality:
    def test_array_records_compare_and_hash_by_identity(self, example1):
        space = solve_twin_space(example1)
        pair = space.basis[0]
        copy = ObservablePair(np.array(pair.a_plus), np.array(pair.a_minus))
        state = BipartiteState(2, 2, example1.rho)
        for record, twin in ((pair, copy), (example1, state), (space, solve_twin_space(state))):
            assert record == record and record != twin
            assert hash(record) == hash(record)
        assert {pair: 1}[pair] == 1

    def test_value_records_keep_value_equality(self):
        assert Tolerances(rank_tol=1e-6) == Tolerances(rank_tol=1e-6)
        assert SpinScenario("example2_ms0", (0.25, 0.25, 0.5)) == SpinScenario(
            "example2_ms0", [0.25, 0.25, 0.5])
