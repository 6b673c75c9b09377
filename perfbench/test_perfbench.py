"""Smoke test of the benchmark.  From the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402  (pins the BLAS threads before NumPy does work)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _result(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _result(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                   "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for x in obj for a in _arrays(x)]
    if dataclasses.is_dataclass(obj):
        return _arrays([getattr(obj, f.name) for f in dataclasses.fields(obj)])
    return []


@pytest.mark.parametrize("make", [workloads.solve_inputs, workloads.pipeline_inputs,
                                  workloads.spin_scenarios])
def test_same_seed_gives_identical_inputs(make):
    first, again, other = _arrays(make(7)), _arrays(make(7)), _arrays(make(8))
    assert len(first) == len(again) and first
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_same_seed_gives_identical_cli_files(tmp_path):
    workloads.cli_calls(7, tmp_path / "a")
    workloads.cli_calls(7, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names and names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("workload, generator, corrupt", [
    ("solve-highrank", "solve_input",
     lambda out: (out[0], out[1], (out[2][0] + 1,) + out[2][1:])),
    ("pipeline-lowrank", "pipeline_input", lambda out: (out[0], out[1] + 1e-3, out[2])),
    ("cli-spin", "spin_scenario",
     lambda sc: dataclasses.replace(sc, rho=sc.rho * 0.5, dims=(sc.dims[0] + 1,) + sc.dims[1:],
                                    populations=sc.populations + 0.1,
                                    expectation=sc.expectation + 1.0)),
])
def test_wrong_ground_truth_shows_in_error_rate(monkeypatch, workload, generator, corrupt):
    original = getattr(workloads, generator)
    monkeypatch.setattr(workloads, generator, lambda *args: corrupt(original(*args)))
    build = workloads.BUILDERS[workload]
    ops = build(3, tiny=True, inprocess=True) if workload == "cli-spin" else build(3, tiny=True)
    probe = bench.SpeedProbe(workload)
    loops = [bench.Loop([op], seconds=0.0, probe=probe) for op in ops]  # one run of each op
    assert [len(loop.failures) for loop in loops] == [1] * len(ops)


def test_tracer_survives_missing_targets_and_restores_originals():
    from twinobs import linops

    original = linops.eigh
    targets = [
        ("linops.eigh", "twinobs.linops", "eigh", None),
        ("linops.gone", "twinobs.linops", "no_such_function", None),
        ("gone.module", "twinobs.no_such_module", "f", None),
        ("states.gone", "twinobs.states", "BipartiteState.no_such_method", None),
    ]
    tracer = Tracer(targets)
    with tracer:
        assert linops.eigh is not original
        linops.range_basis(np.diag([1.0, 0.0]))
    assert linops.eigh is original
    totals = tracer.totals()
    assert totals["linops.eigh"]["calls"] == 1
    assert tracer.missing == ["linops.gone", "gone.module", "states.gone"]
    assert all(totals[name]["calls"] == 0 for name in tracer.missing)


def test_importtime_parser_takes_outermost_scipy_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        700 |   scipy.linalg",
        "import time:        50 |         50 |   numpy.x",
        "import time:        10 |        760 | twinobs",
    ])
    assert bench.parse_importtime(stderr) == pytest.approx((760e-6, 700e-6))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _result(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
