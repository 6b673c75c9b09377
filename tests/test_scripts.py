"""Smoke tests of the scripts under scripts/: each runs as a subprocess
and exits 0, the survey prints the rows the theory fixes, and the
per-class timing prints a row per input class, with its minor page
faults per op.  The aggregation of bench_pairs.py is tested on
synthetic run records, without running the benchmark."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_run_examples():
    out = run_script("run_examples.py")
    assert out.count("== example") == 4
    assert "complete twins: characteristic values" in out


@pytest.fixture(scope="module")
def survey():
    """{dims: {rank: (totals, detectable, undetectable)}} of a two-sample
    survey, each column as printed: 'value:count' entries."""
    out = run_script("twin_dimension_survey.py", "--samples", "2", "--dims", "2x2", "2x3")
    rows, dims = {}, None
    for line in out.splitlines():
        if line.startswith("== "):
            dims = line.split()[1]
            rows[dims] = {}
        elif line.strip() and line.strip()[0].isdigit():
            # fixed-width columns: rank, totals, detectable, undetectable
            rows[dims][int(line[:6])] = (line[8:32].strip(), line[33:49].strip(),
                                         line[50:].strip())
    return rows


def test_survey_covers_every_rank(survey):
    assert sorted(survey["2x2"]) == [1, 2, 3, 4]
    assert sorted(survey["2x3"]) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("dims,rank", [("2x2", 4), ("2x3", 6)])
def test_full_rank_has_only_scalar_twins(survey, dims, rank):
    """The no-go result: a nonsingular state has the pair (1, 1) alone."""
    assert survey[dims][rank] == ("1:2", "1:2", "(0, 0):2")


def test_pure_two_by_three_state(survey):
    """Schmidt rank 2: two detectable twins and one undetectable one on
    the null space of rho_minus."""
    assert survey["2x3"][1] == ("3:2", "2:2", "(0, 1):2")


def test_class_ab_tiny():
    """Both sides of a per-class timing of one checkout against itself:
    every tiny class has a row, and no op fails its check."""
    out = run_script("class_ab.py", "--parent", str(ROOT), "--change", str(ROOT),
                     "--workload", "solve-highrank", "--tiny", "--repeats", "2")
    assert "failed ops parent 0 change 0" in out
    lines = out.splitlines()
    labels = [line.split("  ")[0] for line in lines[2:]]
    assert labels[:3] == ["generic d=3 r=3", "block d=3 r=3", "embedded d=3 r=2"]
    assert any(line.startswith("weighted p90") for line in lines)
    # minor page faults per op, each side's median per class and the cycle mean
    assert lines[1].split()[-4:] == ["flt", "par", "flt", "chg"]
    for row in lines[2:5]:
        faults = [float(x) for x in row.split()[-2:]]
        assert all(f >= 0 for f in faults)
    summary = [line for line in lines if line.startswith("minor faults/op")]
    assert len(summary) == 1 and len(summary[0].split()[2:]) == 2


def test_class_ab_cli_spin_tiny():
    """The CLI mode: every call is a child process of its side, checked
    once, and the rows are per command."""
    out = run_script("class_ab.py", "--parent", str(ROOT), "--change", str(ROOT),
                     "--workload", "cli-spin", "--tiny", "--repeats", "1")
    assert "failed ops parent 0 change 0" in out
    rows = out.splitlines()[2:7]
    assert [row.split()[0] for row in rows] == ["example", "solve", "analyze", "schmidt",
                                                "measure"]
    # a child's faults count: no interpreter starts without faulting
    assert all(float(row.split()[-1]) > 0 for row in rows)


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_record(p50, ops, failed=0, attempted=100):
    """A result record as perfbench/run.py prints it last."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"latency_p50_s": {"value": p50, "unit": "s"},
                        "throughput_ops_per_s": {"value": ops, "unit": "ops/s"},
                        "unlisted": {"value": 1.0, "unit": "s"}}}


class TestBenchPairsAggregation:
    BETTER = {"latency_p50_s": "lower", "throughput_ops_per_s": "higher"}

    def pairs(self):
        # change p50 lower in pairs 0, 1, 3; equal in pair 2 (a tie)
        parent = [(5.0, 100.0), (6.0, 110.0), (4.0, 90.0), (7.0, 120.0)]
        change = [(4.0, 101.0), (5.0, 100.0), (4.0, 95.0), (3.0, 130.0)]
        return [{"seed": 10 + i, "parent": run_record(*p, failed=i == 1, attempted=50),
                 "change": run_record(*c, attempted=60)}
                for i, (p, c) in enumerate(zip(parent, change))]

    def test_quartiles_wins_and_counts(self):
        summary = load_bench_pairs().aggregate(self.pairs(), self.BETTER)
        assert summary["failed/attempted"] == {"parent": "1/200", "change": "0/240"}
        p50 = summary["metrics"]["latency_p50_s"]
        assert p50["parent"] == {"median": 5.5, "q1": 4.75, "q3": 6.25}
        assert p50["change"] == {"median": 4.0, "q1": 3.75, "q3": 4.25}
        assert (p50["change_wins"], p50["pairs"], p50["unit"]) == (3, 4, "s")
        ops = summary["metrics"]["throughput_ops_per_s"]
        assert ops["change_wins"] == 3  # higher is better: pair 1 is a loss
        assert ops["parent"]["median"] == 105.0

    def test_metrics_without_direction_are_left_out(self):
        summary = load_bench_pairs().aggregate(self.pairs(), self.BETTER)
        assert set(summary["metrics"]) == set(self.BETTER)
        assert summary["runs"][3] == {"seed": 13,
                                      "parent": {"latency_p50_s": 7.0,
                                                 "throughput_ops_per_s": 120.0},
                                      "change": {"latency_p50_s": 3.0,
                                                 "throughput_ops_per_s": 130.0}}

    def test_directions_from_the_benchmark_file(self):
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        better = load_bench_pairs().directions(benchmark)
        assert better["latency_p50_s"] == "lower"
        assert better["throughput_ops_per_s"] == "higher"
        assert better["linops.kron.calls_per_op"] == "lower"

    def test_single_pair(self):
        summary = load_bench_pairs().aggregate(self.pairs()[:1], self.BETTER)
        assert summary["metrics"]["latency_p50_s"]["change"] == {"median": 4.0, "q1": 4.0,
                                                                  "q3": 4.0}


def test_cli_diff_of_one_checkout_against_itself():
    out = run_script("cli_diff.py", "--parent", str(ROOT), "--change", str(ROOT))
    first = out.splitlines()[0]
    assert first.endswith("cases, 0 differ in stdout or exit code, 0 in stderr only")
    assert int(first.split()[0]) >= 70


def test_cli_diff_prints_the_first_and_the_largest_difference():
    """Two documents that differ first by 1e-17 and later by 2.5: the
    first-difference line names the tiny one, the largest line the
    large one.  The functions run in a child, since cli_diff's import of
    class_ab sets the BLAS thread variables of its process."""
    a = {"dims": [3, 3], "rho": [[0.5, 0.0], [0.25, 1.0]], "dim_total": 2, "name": "x"}
    b = {"dims": [3, 3], "rho": [[0.5, 1e-17], [0.25, 3.5]], "dim_total": 2, "name": "y"}
    code = ("import sys, cli_diff; a, b = sys.argv[1:]; "
            "print(cli_diff.first_difference(a, b)); print(cli_diff.largest_difference(a, b)); "
            "print(cli_diff.largest_difference(a, a)); print(cli_diff.largest_difference(a, 'x'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "scripts"), str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code, json.dumps(a), json.dumps(b)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["$.rho[0][1]: 0.0 | 1e-17",
                                          "2.5 at $.rho[1][1]",
                                          "none in a numeric leaf",
                                          "none: not JSON"]
