import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twinobs import (
    BipartiteState,
    ObservablePair,
    SCENARIO_NAMES,
    SpinScenario,
    build_scenario,
    serialize,
)
from twinobs.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFICATION, _tolerances, build_parser, main
from twinobs.errors import InputError
from twinobs.linops import Tolerances
from twinobs.states import PureDecomposition

SZ_HALF = np.diag([0.5, -0.5]).astype(complex)


class TestSerializeRoundTrip:
    def test_state_round_trip_exact(self, example1):
        doc = json.loads(serialize.dump_json(serialize.state_to_document(example1)))
        back = serialize.state_from_document(doc)
        assert np.array_equal(back.rho, example1.rho)
        assert back.tol == example1.tol

    def test_random_state_full_precision(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = M @ M.conj().T
        rho /= np.trace(rho).real
        st = BipartiteState(2, 3, rho)
        # the serializer itself is bitwise-exact
        parsed = serialize.matrix_from_json(
            json.loads(serialize.dump_json(serialize.matrix_to_json(st.rho)))
        )
        assert np.array_equal(parsed, st.rho)
        # and a serialized state re-parses to the same document
        doc = serialize.state_to_document(st)
        back = serialize.state_from_document(json.loads(serialize.dump_json(doc)))
        assert serialize.state_to_document(back) == doc

    def test_pair_round_trip(self):
        pair = ObservablePair(SZ_HALF, -SZ_HALF + 0.25j * np.array([[0, 1], [-1, 0]]))
        doc = json.loads(serialize.dump_json(serialize.pair_to_document(pair)))
        back = serialize.pair_from_document(doc)
        assert np.array_equal(back.a_plus, pair.a_plus)
        assert np.array_equal(back.a_minus, pair.a_minus)

    def test_decomposition_round_trip(self):
        rng = np.random.default_rng(9)
        v1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v2 /= np.linalg.norm(v2)
        dec = PureDecomposition(weights=(0.25, 0.75), vectors=(v1, v2))
        doc = json.loads(serialize.dump_json(serialize.decomposition_to_document(dec)))
        back = serialize.decomposition_from_document(doc)
        assert back.weights == dec.weights
        for a, b in zip(back.vectors, dec.vectors):
            assert np.array_equal(a, b)

    def test_tolerance_override(self, example1):
        doc = serialize.state_to_document(example1)
        back = serialize.state_from_document(doc, tol_override=Tolerances(rank_tol=1e-6))
        assert back.tol.rank_tol == 1e-6

    def test_bad_documents_raise_input_error(self):
        with pytest.raises(InputError):
            serialize.state_from_document({"rho": []})
        with pytest.raises(InputError):
            serialize.state_from_document({"dims": [2, 2], "rho": "nope"})
        with pytest.raises(InputError):
            serialize.state_from_document({"dims": [2, 0], "rho": []})
        with pytest.raises(InputError):
            serialize.pair_from_document({"a_plus": [[[1, 0]]]})
        with pytest.raises(InputError):
            serialize.tolerances_from_json({"bogus": 1e-8})

    def test_json_bytes_equal_to_the_per_entry_loops(self):
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                   1e-300, -1e-300, 0.1, 1 / 3]
        rng = np.random.default_rng(8)
        M = np.array(special * 2).reshape(2, 11) + 1j * np.array(special[::-1] * 2).reshape(2, 11)
        M = np.vstack([M, rng.standard_normal((3, 11)) + 1j * rng.standard_normal((3, 11))])
        loop_matrix = [[[float(z.real), float(z.imag)] for z in row] for row in M]
        loop_vector = [[float(z.real), float(z.imag)] for z in M.ravel()]
        for got, ref in ((serialize.matrix_to_json(M), loop_matrix),
                         (serialize.vector_to_json(M), loop_vector)):
            assert serialize.dump_json(got) == serialize.dump_json(ref)


@pytest.fixture()
def state_file(tmp_path, example1):
    path = tmp_path / "state.json"
    path.write_text(serialize.dump_json(serialize.state_to_document(example1)))
    return str(path)


@pytest.fixture()
def twin_pair_file(tmp_path):
    pair = ObservablePair(SZ_HALF, -SZ_HALF)
    path = tmp_path / "pair.json"
    path.write_text(serialize.dump_json(serialize.pair_to_document(pair)))
    return str(path)


@pytest.fixture()
def non_twin_pair_file(tmp_path):
    pair = ObservablePair(SZ_HALF, SZ_HALF)
    path = tmp_path / "bad_pair.json"
    path.write_text(serialize.dump_json(serialize.pair_to_document(pair)))
    return str(path)


class TestCli:
    def test_solve(self, state_file, capsys):
        assert main(["solve", state_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["dim_total"] == 2
        assert "warning" not in report

    def test_solve_nonsingular_warns(self, tmp_path, capsys):
        st = BipartiteState(2, 2, np.eye(4) / 4)
        path = tmp_path / "mixed.json"
        path.write_text(serialize.dump_json(serialize.state_to_document(st)))
        assert main(["solve", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["dim_total"] == 1
        assert "nonsingular" in report["warning"]

    def test_verify_twin(self, state_file, twin_pair_file, capsys):
        assert main(["verify", state_file, twin_pair_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["twin"] is True
        assert report["residual"] <= 1e-10

    def test_verify_non_twin_exit_1(self, state_file, non_twin_pair_file, capsys):
        assert main(["verify", state_file, non_twin_pair_file]) == EXIT_VERIFICATION
        report = json.loads(capsys.readouterr().out)
        assert report["twin"] is False

    def test_analyze(self, state_file, capsys):
        assert main(["analyze", state_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["geometry"]["passed"] is True
        assert report["twin_space"]["dim_total"] == 2
        assert report["complete_twins"] != "not found"

    def test_measure(self, state_file, twin_pair_file, capsys):
        assert main(["measure", state_file, twin_pair_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        probs = sorted(o["probability_plus"] for o in report["outcomes"])
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-10)

    def test_measure_non_twin_exit_1(self, state_file, non_twin_pair_file, capsys):
        assert main(["measure", state_file, non_twin_pair_file]) == EXIT_VERIFICATION

    def test_measure_leaves_the_twin_test_to_the_report(self, state_file, twin_pair_file,
                                                         monkeypatch, capsys):
        from twinobs import cli

        calls = []
        monkeypatch.setattr(cli, "is_twin_pair", lambda *args: calls.append(args))
        assert main(["measure", state_file, twin_pair_file]) == EXIT_OK
        assert calls == []

    def test_measure_non_twin_tests_the_pair_once(self, state_file, non_twin_pair_file,
                                                  monkeypatch, capsys):
        from twinobs import twins

        calls = []
        witness = twins._twin_witness
        monkeypatch.setattr(twins, "_twin_witness",
                            lambda *args: calls.append(1) or witness(*args))
        assert main(["measure", state_file, non_twin_pair_file]) == EXIT_VERIFICATION
        assert len(calls) == 1

    def test_measure_non_twin_prints_the_residual_on_rho(self, example1, state_file,
                                                         non_twin_pair_file, capsys):
        from twinobs import is_twin_pair

        assert main(["measure", state_file, non_twin_pair_file]) == EXIT_VERIFICATION
        residual = is_twin_pair(example1, ObservablePair(SZ_HALF, SZ_HALF))[1]
        assert json.loads(capsys.readouterr().out) == {"twin": False, "residual": residual}

    def test_schmidt(self, state_file, capsys):
        assert main(["schmidt", state_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        M = serialize.matrix_from_json(report["simplified_matrix"])
        np.testing.assert_allclose(M, np.eye(2) / 2, atol=1e-10)

    def test_schmidt_with_decomposition(self, state_file, tmp_path, capsys):
        from twinobs.spin import SpinScenario, scenario_decomposition

        dec, _, _ = scenario_decomposition(SpinScenario("example1_range10_00"))
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(
            serialize.dump_json(serialize.decomposition_to_document(dec))
        )
        assert main(["schmidt", state_file, "--decomposition", str(dec_path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["expansion"]["alphas"]) == 2
        assert max(report["compatibility_residuals"].values()) <= 1e-9

    def test_example_pipes_into_solve(self, capsys, monkeypatch, tmp_path):
        assert main(["example", "example2_ms0"]) == EXIT_OK
        doc = capsys.readouterr().out
        path = tmp_path / "ms0.json"
        path.write_text(doc)
        assert main(["solve", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["dim_total"] == 3

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["solve", "/nonexistent/state.json"]) == EXIT_INPUT

    def test_invalid_state_exit_2(self, tmp_path, capsys):
        # negative eigenvalue: not a density matrix
        doc = {
            "dims": [2, 2],
            "rho": serialize.matrix_to_json(np.diag([1.5, -0.5, 0, 0])),
        }
        path = tmp_path / "bad.json"
        path.write_text(serialize.dump_json(doc))
        assert main(["solve", str(path)]) == EXIT_INPUT

    def test_tolerance_flags_override(self, state_file, capsys):
        assert main(["--residual-tol", "1e-4", "solve", state_file]) == EXIT_OK
        json.loads(capsys.readouterr().out)

    def test_text_format(self, state_file, capsys):
        assert main(["--format", "text", "solve", state_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "dim_total: 2" in out


TOLERANCE_FLAGS = [("--rank-tol", "rank_tol"), ("--residual-tol", "residual_tol"),
                   ("--cluster-tol", "cluster_tol"), ("--herm-tol", "herm_tol")]


@pytest.mark.parametrize("flag, name", TOLERANCE_FLAGS)
class TestToleranceFields:
    def test_flag_sets_only_its_field(self, flag, name):
        args = build_parser().parse_args([flag, "3e-5", "solve"])
        assert _tolerances(args) == Tolerances(**{name: 3e-5})
        assert serialize.tolerances_from_json({name: 3e-5}) == Tolerances(**{name: 3e-5})
        assert Tolerances(**{name: 3e-5}) != Tolerances()

    @pytest.mark.parametrize("value", [-1e-12, float("nan"), float("inf")])
    def test_negative_value_raises(self, flag, name, value):
        with pytest.raises(ValueError, match=name):
            Tolerances(**{name: value})


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("flag, name", TOLERANCE_FLAGS)
def test_negative_tolerance_flag_exit_2(flag, name, value, capsys):
    assert main([flag, value, "example", "example2_ms0"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and name in err


@pytest.mark.parametrize("value", [-1, float("nan"), float("inf")])
def test_negative_document_tolerance_exit_2(tmp_path, example1, value, capsys):
    doc = serialize.state_to_document(example1)
    doc["tolerances"]["herm_tol"] = value
    path = tmp_path / "negative_tol.json"
    path.write_text(serialize.dump_json(doc))
    assert main(["solve", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "herm_tol" in err


def test_non_object_document_tolerances_exit_2(tmp_path, example1, capsys):
    doc = serialize.state_to_document(example1)
    doc["tolerances"] = 5
    path = tmp_path / "scalar_tol.json"
    path.write_text(serialize.dump_json(doc))
    assert main(["solve", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "tolerances" in err


def test_no_tolerance_flags_keep_the_document_tolerances():
    assert _tolerances(build_parser().parse_args(["solve"])) is None
    assert {f for _, f in TOLERANCE_FLAGS} == set(serialize.state_to_document(
        BipartiteState(1, 1, np.eye(1)))["tolerances"])


def _child_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_import_does_not_load_scipy():
    """NumPy is the only runtime dependency; SciPy is for the tests."""
    code = "import sys, twinobs; assert 'scipy' not in sys.modules, 'scipy imported'"
    result = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# The public names of the package, each loaded on first access.
PUBLIC_NAMES = {
    "BipartiteState", "DEFAULT_TOL", "EventPair", "MatchedBases", "ObservablePair",
    "PureDecomposition", "SCENARIO_NAMES", "SpectralData", "SpinScenario", "Tolerances",
    "TwinSpace", "additive_twins", "apply_function", "build_scenario", "certainty_test",
    "characteristic_projector_twins", "commutation_check", "compatibility_report",
    "coupled_basis", "detectable_spectra", "distant_measurement_report", "errors",
    "event_equivalence", "find_complete_twins", "from_pure", "is_twin_pair", "linops",
    "luders_collapse", "matched_bases_from_pair", "measurement", "mix", "pure_schmidt",
    "restrict_to_relevant", "scalar_pair", "schmidt", "simplified_matrix",
    "simultaneous_expansion", "solve_twin_space", "spectral", "spectral_data", "spin",
    "split_detectable", "states", "states_admitting_twins", "symmetric_polynomial", "twins",
    "twins_restrict_to_range_vectors", "verify_subspace_geometry",
}


def _run_child(*args):
    result = subprocess.run([sys.executable, *args], env=_child_env(),
                            capture_output=True, text=True, timeout=120)
    return result


def test_additive_twins_loads_no_measurement_module():
    """additive_twins decides on the twin test of its own module."""
    code = ("import sys, numpy as np, twinobs; "
            "st = twinobs.from_pure(np.array([0, 1, -1, 0]) / np.sqrt(2), 2, 2); "
            "sz = np.diag([0.5, -0.5]); "
            "assert twinobs.additive_twins(st, sz, sz) is not None; "
            "assert 'twinobs.measurement' not in sys.modules, sorted(sys.modules)")
    result = _run_child("-c", code)
    assert result.returncode == 0, result.stderr


def test_import_loads_no_submodule():
    code = ("import sys, twinobs; loaded = [m for m in sys.modules if m.startswith('twinobs.')]; "
            "assert not loaded, loaded")
    result = _run_child("-c", code)
    assert result.returncode == 0, result.stderr


def test_every_public_name_is_listed_and_resolves():
    code = ("import json, twinobs; names = list(twinobs.__all__); "
            "[getattr(twinobs, n) for n in names]; "
            "print(json.dumps([names, [n for n in dir(twinobs) if not n.startswith('_')]]))")
    result = _run_child("-c", code)
    assert result.returncode == 0, result.stderr
    names, listed = json.loads(result.stdout)
    assert len(names) == len(PUBLIC_NAMES) == 48 and set(names) == PUBLIC_NAMES
    assert set(listed) == PUBLIC_NAMES


def _loaded_modules(argv) -> tuple:
    """(exit code, names of the modules a `python -m twinobs.cli` call imports),
    read off -X importtime."""
    result = _run_child("-X", "importtime", "-m", "twinobs.cli", *argv)
    names = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
             if line.startswith("import time:")}
    return result.returncode, names


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A state file of example2_ms0 and a twin pair (s_z, -s_z) of it."""
    root = tmp_path_factory.mktemp("startup")
    state = root / "state.json"
    pair = root / "pair.json"
    state.write_text(serialize.dump_json(serialize.state_to_document(
        build_scenario(SpinScenario("example2_ms0")))))
    sz = np.diag([1.0, 0.0, -1.0])
    pair.write_text(serialize.dump_json(serialize.pair_to_document(ObservablePair(sz, -sz))))
    return str(state), str(pair)


@pytest.mark.parametrize("command", ["solve", "example"])
def test_solve_and_example_load_no_spectral_module(command, cli_files):
    argv = ["solve", cli_files[0]] if command == "solve" else ["example", "example2_ms0"]
    code, names = _loaded_modules(argv)
    assert code == EXIT_OK and "twinobs.serialize" in names
    assert not names & {"twinobs.spectral", "twinobs.measurement", "twinobs.schmidt"}


@pytest.mark.parametrize("command", ["solve", "verify", "analyze", "measure", "schmidt"])
def test_only_example_loads_spin(command, cli_files):
    """The example parser's scenario choices come from spin, which is
    loaded only when that parser parses."""
    state, pair = cli_files
    argv = {"solve": [state], "verify": [state, pair], "analyze": [state],
            "measure": [state, pair], "schmidt": [state]}[command]
    code, names = _loaded_modules([command, *argv])
    assert code == EXIT_OK and "twinobs.serialize" in names
    assert "twinobs.spin" not in names


def test_example_loads_spin():
    code, names = _loaded_modules(["example", "example2_ms0"])
    assert code == EXIT_OK and "twinobs.spin" in names


@pytest.mark.parametrize("argv", [["example", "nope"], ["example"], ["example", "--help"]])
def test_example_parser_errors_and_help_list_the_scenarios(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    out = capsys.readouterr()
    assert "{" + ",".join(SCENARIO_NAMES) + "}" in out.out + out.err


@pytest.mark.parametrize("command", ["solve", "verify", "analyze", "measure", "schmidt",
                                     "example"])
def test_no_command_loads_numpy_random_or_dataclasses(command, cli_files):
    state, pair = cli_files
    argv = {"solve": [state], "verify": [state, pair], "analyze": [state],
            "measure": [state, pair], "schmidt": [state], "example": ["example2_ms0"]}[command]
    code, names = _loaded_modules([command, *argv])
    assert code == EXIT_OK and "twinobs.serialize" in names
    assert not names & {"numpy.random", "dataclasses"}


NON_FINITE = ["NaN", "Infinity", "-Infinity"]


@pytest.mark.parametrize("literal", NON_FINITE)
def test_non_finite_state_entry_exit_2(tmp_path, example1, literal, capsys):
    text = serialize.dump_json(serialize.state_to_document(example1))
    doc = json.loads(text)
    doc["rho"][1][2][0] = 0.125  # a unique marker to replace by the literal
    path = tmp_path / "non_finite_state.json"
    path.write_text(serialize.dump_json(doc).replace("0.125", literal, 1))
    assert main(["solve", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "rho" in err and "non-finite" in err


@pytest.mark.parametrize("literal", NON_FINITE)
def test_non_finite_pair_entry_exit_2(tmp_path, state_file, literal, capsys):
    path = tmp_path / "non_finite_pair.json"
    doc = serialize.pair_to_document(ObservablePair(np.diag([0.5, 0.25]), np.eye(2)))
    path.write_text(serialize.dump_json(doc).replace("0.25", literal, 1))
    assert main(["verify", state_file, str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "a_plus" in err and "non-finite" in err


@pytest.mark.parametrize("entry, locus", [("0.6", "vectors[0]"), ("1.0", "weights")])
def test_non_finite_decomposition_entry_exit_2(tmp_path, state_file, entry, locus, capsys):
    dec = PureDecomposition(weights=(1.0,), vectors=(np.array([0.6, 0, 0, 0.8]),))
    path = tmp_path / "non_finite_dec.json"
    path.write_text(serialize.dump_json(serialize.decomposition_to_document(dec))
                    .replace(entry, "NaN", 1))
    assert main(["schmidt", state_file, "--decomposition", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and locus in err


def test_directory_as_state_file_exit_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


def test_undecodable_state_file_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["solve", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


def test_boolean_dims_exit_2(tmp_path, capsys):
    path = tmp_path / "bool_dims.json"
    path.write_text(json.dumps({"dims": [True, True], "rho": [[[1.0, 0.0]]]}))
    assert main(["solve", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "dims" in err


@pytest.mark.parametrize("field, value", [("weights", "ab"), ("vectors", 5)])
def test_malformed_decomposition_lists_exit_2(tmp_path, state_file, field, value, capsys):
    dec = PureDecomposition(weights=(1.0,), vectors=(np.array([0.6, 0, 0, 0.8]),))
    doc = serialize.decomposition_to_document(dec)
    doc[field] = value
    path = tmp_path / "malformed_dec.json"
    path.write_text(json.dumps(doc))
    assert main(["schmidt", state_file, "--decomposition", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and field in err
