#!/usr/bin/env python3
"""Run one matrix of `twinobs` CLI calls in two checkouts and list the
cases whose stdout or exit code differ.

    python3 scripts/cli_diff.py --parent ../parent --change .

Both ``twinobs`` trees are imported into this one process under
distinct names, as in class_ab.py, and every case goes through each
side's ``cli.main`` with stdout and stderr captured.  A call that
argparse rejects keeps its exit code; an exception that escapes
``main`` counts as exit 1, as in a fresh interpreter, with "uncaught"
and its last traceback line as stderr.  The input files are written once, to a
temporary directory, from the change checkout's perfbench/workloads.py
(read as a file).  The matrix:

- the argv of ``cli_calls`` in perfbench/workloads.py for two seeds
- the five commands of that list under ``--format text``
- ``verify`` with each scenario's twin pair, so that a change in the
  twin test's witness shows up
- ``verify`` and ``measure`` with a pair that is not a twin pair
- ``schmidt --decomposition`` with the eigen-decomposition of each state
- ``analyze`` and ``schmidt`` on each scenario under ``--seed`` 0-3, so
  that a complete-twin verdict that depends on the seed shows up
- one override per tolerance flag
- input errors: a negative ``--seed``, bad ``--weights``, a pair or a
  decomposition of the wrong dimension, a NaN tolerance flag, malformed,
  missing and non-object documents, a missing and a malformed
  decomposition on a state without complete twins; and a decomposition
  that leaks outside the diagonal span (an error of the computation)

Each differing case is printed with both sides' exit code and first
stderr line, and the first place where the two stdouts differ: the
JSON path and both values when both parse as JSON, else the first
differing line.  When both parse as JSON, the largest absolute
difference over the numeric leaves at the same path follows, with its
path.  Cases whose stderr alone differs are listed apart, as changed
wordings.  Exits 1 when a stdout or an exit code differs.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from class_ab import SIDES, load_package, load_workloads

SEEDS = (1201, 1202)


def matrix_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return str(path)


def eigen_decomposition(rho) -> dict:
    """rho = sum_i w_i |v_i><v_i| over its eigenvalues above 1e-12."""
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > 1e-12
    return {"weights": (vals[keep] / vals[keep].sum()).tolist(),
            "vectors": [matrix_json(v) for v in vecs[:, keep].T]}


def cases(workloads, tmp: Path) -> list:
    """[(label, argv)] of the whole matrix, input files written under tmp."""
    out = []
    for seed in SEEDS:
        calls = workloads.cli_calls(seed, tmp / f"seed{seed}")
        out += [(f"seed {seed}: {label}", argv) for label, argv, _ in calls]
    out += [(f"text: {label}", ["--format", "text", *argv])
            for label, argv, _ in calls[:len(workloads.COMMANDS)]]

    scenarios = workloads.spin_scenarios(SEEDS[0])
    states = {sc.name: str(tmp / f"seed{SEEDS[0]}" / f"{sc.name}.state.json") for sc in scenarios}
    for sc in scenarios:
        twin = str(tmp / f"seed{SEEDS[0]}" / f"{sc.name}.pair.json")
        out.append((f"twin pair: verify {sc.name}", ["verify", states[sc.name], twin]))
        A = np.diag(np.arange(sc.d, dtype=float))
        pair = write(tmp / f"{sc.name}.nontwin.json", {"a_plus": matrix_json(A),
                                                        "a_minus": matrix_json(A)})
        out += [(f"non-twin pair: {cmd} {sc.name}", [cmd, states[sc.name], pair])
                for cmd in ("verify", "measure")]
        dec = write(tmp / f"{sc.name}.dec.json", eigen_decomposition(sc.rho))
        out.append((f"decomposition: {sc.name}", ["schmidt", states[sc.name],
                                                  "--decomposition", dec]))
        out += [(f"--seed {seed}: {cmd} {sc.name}", ["--seed", str(seed), cmd, states[sc.name]])
                for seed in range(4) for cmd in ("analyze", "schmidt")]

    name = scenarios[0].name  # a 2 x 2 state with complete twins
    state = states[name]
    out += [
        ("tolerance: --rank-tol", ["--rank-tol", "1e-8", "solve", state]),
        ("tolerance: --residual-tol", ["--residual-tol", "1e-6", "analyze", state]),
        ("tolerance: --cluster-tol", ["--cluster-tol", "1e-6", "schmidt", state]),
        ("tolerance: --herm-tol", ["--herm-tol", "1e-6", "example", name]),
    ]

    pair3 = write(tmp / "pair3.json", {"a_plus": matrix_json(np.diag([1.0, 0.0, -1.0])),
                                       "a_minus": matrix_json(np.diag([-1.0, 0.0, 1.0]))})
    short = write(tmp / "short.json", {"weights": [1.0], "vectors": [matrix_json([0.6, 0, 0.8])]})
    leak = write(tmp / "leak.json", {"weights": [1.0], "vectors": [matrix_json([1.0, 0, 0, 0])]})
    broken = write(tmp / "broken.json", "{not json")
    listed = write(tmp / "list.json", [1, 2])
    scalar_only = states["example1_range10_1m1"]  # no complete twins
    out += [
        ("error: negative seed analyze", ["--seed", "-1", "analyze", state]),
        ("error: negative seed schmidt", ["--seed", "-1", "schmidt", state]),
        ("error: weight count", ["example", "example2_ms0", "--weights", "0.5", "0.5"]),
        ("error: NaN weight", ["example", "example2_ms0", "--weights", "nan", "0.5", "0.5"]),
        ("error: zero weight", ["example", "example2_ms0", "--weights", "0", "0.5", "0.5"]),
        ("error: pair dims verify", ["verify", state, pair3]),
        ("error: pair dims measure", ["measure", state, pair3]),
        ("error: decomposition length", ["schmidt", state, "--decomposition", short]),
        ("error: decomposition leak", ["schmidt", state, "--decomposition", leak]),
        ("error: missing decomposition, no complete twins",
         ["schmidt", scalar_only, "--decomposition", str(tmp / "missing.json")]),
        ("error: malformed decomposition, no complete twins",
         ["schmidt", scalar_only, "--decomposition", broken]),
        ("error: NaN tolerance flag", ["--rank-tol", "nan", "solve", state]),
        ("error: malformed JSON", ["solve", broken]),
        ("error: missing file", ["solve", str(tmp / "missing.json")]),
        ("error: non-object state", ["solve", listed]),
        ("error: non-object pair", ["verify", state, listed]),
    ]
    return out


def first_json_difference(a, b, path="$"):
    """(path, a's value, b's value) at the first place, in document
    order, where two JSON values differ; None when they do not."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            if key not in a or key not in b:
                return f"{path}.{key}", a.get(key, "<absent>"), b.get(key, "<absent>")
            found = first_json_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_json_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None if len(a) == len(b) else (f"{path} length", len(a), len(b))
    # compared as text, so that 1 and 1.0 differ and NaN equals NaN
    return None if json.dumps(a) == json.dumps(b) else (path, a, b)


def first_difference(out_a: str, out_b: str) -> str:
    """Where two stdouts first differ: a JSON path with both values, or
    the first differing line when either side is not JSON."""
    try:
        found = first_json_difference(json.loads(out_a), json.loads(out_b))
    except ValueError:
        found = None
        lines_a, lines_b = out_a.splitlines(), out_b.splitlines()
        for i in range(max(len(lines_a), len(lines_b))):
            a, b = (lines[i] if i < len(lines) else "<absent>" for lines in (lines_a, lines_b))
            if a != b:
                return f"line {i + 1}: {a!r} | {b!r}"
    if found is None:
        return "same values, different text" if out_a != out_b else "same stdout"
    path, a, b = found
    return f"{path}: {clip(a)} | {clip(b)}"


def largest_json_difference(a, b, path="$"):
    """(path, |a - b|) of the largest absolute difference, the first in
    document order among equals, over the numeric leaves that two JSON
    values hold at the same path; None when none differs.  A NaN against
    a number counts as an infinite difference."""
    if isinstance(a, dict) and isinstance(b, dict):
        found = [largest_json_difference(a[k], b[k], f"{path}.{k}") for k in a if k in b]
    elif isinstance(a, list) and isinstance(b, list):
        found = [largest_json_difference(x, y, f"{path}[{i}]")
                 for i, (x, y) in enumerate(zip(a, b))]
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        diff = abs(a - b)
        if json.dumps(a) == json.dumps(b) or diff == 0:
            return None
        return path, diff if diff == diff else math.inf
    else:
        return None
    return max(filter(None, found), key=lambda f: f[1], default=None)


def largest_difference(out_a: str, out_b: str) -> str:
    """The largest absolute difference over the numeric leaves of two
    JSON stdouts, with its path."""
    try:
        found = largest_json_difference(json.loads(out_a), json.loads(out_b))
    except ValueError:
        return "none: not JSON"
    return "none in a numeric leaf" if found is None else f"{found[1]:.3g} at {found[0]}"


def clip(value, width: int = 60) -> str:
    text = json.dumps(value)
    return text if len(text) <= width else text[:width - 3] + "..."


def run(cli, argv: list) -> tuple:
    """(exit code, stdout, first stderr line) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # a fresh interpreter prints a traceback, exit 1
            code = 1
            err.write("uncaught " + traceback.format_exception_only(exc)[-1])
    return code, out.getvalue(), (err.getvalue().splitlines() or [""])[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = parser.parse_args(argv)

    clis = {side: importlib.import_module(
        load_package(getattr(args, side).resolve() / "src", f"twinobs_{side}").__name__ + ".cli")
        for side in SIDES}
    differ, worded = [], []
    with tempfile.TemporaryDirectory() as tmp:
        matrix = cases(load_workloads(args.change), Path(tmp))
        for label, argv in matrix:
            got = {side: run(clis[side], argv) for side in SIDES}
            (pc, pout, perr), (cc, cout, cerr) = got["parent"], got["change"]
            if (pc, pout) != (cc, cout):
                differ.append((label, got))
            elif perr != cerr:
                worded.append((label, got))
    print(f"{len(matrix)} cases, {len(differ)} differ in stdout or exit code, "
          f"{len(worded)} in stderr only")
    for title, rows in (("differ", differ), ("stderr only", worded)):
        for label, got in rows:
            print(f"{title}: {label}")
            for side in SIDES:
                code, _, err = got[side]
                print(f"  {side:<6} exit {code}  {err}")
            if title == "differ":
                outs = got["parent"][1], got["change"][1]
                print(f"  stdout {first_difference(*outs)}")
                print(f"  largest |difference| {largest_difference(*outs)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
