"""Smoke tests of the scripts under scripts/: each runs as a subprocess
and exits 0, and the survey prints the rows the theory fixes."""

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
