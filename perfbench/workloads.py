"""Seeded inputs, operations and ground-truth checks of the benchmark workloads.

Every input is built from the seed with NumPy alone, together with the answer
the program must give for it; no expected value comes from twinobs itself.
An op's ``check`` returns None when the output is right and a short
description of the mismatch otherwise.

Within a workload the seed changes only the random matrices and weights.
The list of input classes (kind, d, rank) and their order is fixed, so the
traffic mix, and with it the latency distribution, is the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
OUT = Path(__file__).resolve().parent / "out"

SUBSPACE_TOL = 1e-8   # largest principal-angle sine between solved and analytic twin spaces
VALUE_TOL = 1e-8      # Schmidt coefficients, populations, expectations
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One operation of a closed-loop client: ``run`` is timed, ``check`` is not."""

    label: str                         # input class, e.g. "generic d=6 r=24"
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    rows: int = 0                      # constraint-matrix rows 2*d^2*r; 0 for CLI calls


# ---------------------------------------------------------------- generators

def _isometry(rng, n: int, m: int) -> np.ndarray:
    """Haar-random n x m matrix with orthonormal columns."""
    Z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _density(rng, n: int, r: int) -> np.ndarray:
    """Generic rank-r density matrix on C^n."""
    X = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rho = X @ X.conj().T
    return rho / np.trace(rho).real


def _diagonal_pairs(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Columns |u_a> ⊗ |v_a>, composite index i_plus * d + i_minus."""
    d = U.shape[0]
    return np.einsum("ia,ja->ija", U, V).reshape(d * d, U.shape[1])


def _pair_vector(a_plus, a_minus) -> np.ndarray:
    """Real vector whose dot product is the summed Hilbert-Schmidt product of pairs."""
    parts = [np.ascontiguousarray(a, dtype=complex).ravel().view(float) for a in (a_plus, a_minus)]
    return np.concatenate(parts)


def _projector(B: np.ndarray) -> np.ndarray:
    return B @ B.conj().T


def _hermitian_units(d: int):
    """A real basis of the Hermitian d x d matrices (not normalised)."""
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            if i == j:
                E[i, i] = 1
            elif i < j:
                E[i, j] = E[j, i] = 1
            else:
                E[i, j], E[j, i] = 1j, -1j
            yield E


def subspace_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Largest principal-angle sine between the column spans of A and B."""
    Qa, _ = np.linalg.qr(A)
    Qb, _ = np.linalg.qr(B)
    return float(np.linalg.norm(Qb - Qa @ (Qa.T @ Qb), 2))


# -------------------------------------------------------- solve-highrank

# (kind, d, rank of rho, rank k of the reductions) in run order.  Sorted by
# cost, a cycle is 8 light classes, 4 x generic d=6 r=12, 4 middle classes,
# 3 x generic d=6 r=24 and generic d=6 r=36: the median and the 90th
# percentile fall inside a run of copies of one class, not between classes.
SOLVE_CLASSES = [
    ("generic", 6, 36, 6), ("embedded", 5, 3, 3), ("generic", 6, 12, 6),
    ("generic", 5, 25, 5), ("embedded", 6, 4, 4), ("generic", 6, 24, 6),
    ("generic", 5, 5, 5), ("generic", 6, 12, 6), ("block", 8, 8, 8),
    ("embedded", 5, 9, 3), ("generic", 6, 24, 6), ("generic", 6, 6, 6),
    ("generic", 6, 12, 6), ("embedded", 6, 16, 4), ("generic", 5, 10, 5),
    ("generic", 6, 24, 6), ("generic", 5, 15, 5), ("generic", 6, 12, 6),
    ("generic", 6, 18, 6), ("embedded", 6, 8, 4),
]
SOLVE_CLASSES_TINY = [("generic", 3, 3, 3), ("block", 3, 3, 3), ("embedded", 3, 2, 2)]


def solve_input(rng, kind: str, d: int, r: int, k: int):
    """rho and the analytic twin space: (pair vectors as columns, dims).

    dims is (total, detectable, undetectable plus, undetectable minus).
    - generic: rank r >= d random state; only the scalar pair (1, 1).
    - block: rank-r state on span{|u_a, v_a>}; the d pairs (|u_a><u_a|, |v_a><v_a|).
    - embedded: a generic rank-r state on C^k ⊗ C^k carried into C^d ⊗ C^d by
      random isometries W_±; the pair (W+W+†, W-W-†) plus every pair with
      one side zero and the other supported on the complement of W_±.
    """
    if kind == "generic":
        rho = _density(rng, d * d, r)
        basis = [_pair_vector(np.eye(d), np.eye(d))]
        dims = (1, 1, 0, 0)
    elif kind == "block":
        U, V = _isometry(rng, d, d), _isometry(rng, d, d)
        D = _diagonal_pairs(U, V)
        rho = D @ _density(rng, d, r) @ D.conj().T
        basis = [_pair_vector(_projector(U[:, [a]]), _projector(V[:, [a]])) for a in range(d)]
        dims = (d, d, 0, 0)
    elif kind == "embedded":
        W = _isometry(rng, d, d)
        Z = _isometry(rng, d, d)
        Wp, Np = W[:, :k], W[:, k:]
        Wm, Nm = Z[:, :k], Z[:, k:]
        E = np.kron(Wp, Wm)
        rho = E @ _density(rng, k * k, r) @ E.conj().T
        zero = np.zeros((d, d))
        basis = [_pair_vector(_projector(Wp), _projector(Wm))]
        basis += [_pair_vector(Np @ H @ Np.conj().T, zero) for H in _hermitian_units(d - k)]
        basis += [_pair_vector(zero, Nm @ H @ Nm.conj().T) for H in _hermitian_units(d - k)]
        n = (d - k) ** 2
        dims = (1 + 2 * n, 1, n, n)
    else:
        raise ValueError(kind)
    return rho, np.column_stack(basis), dims


def _space_dims(space):
    return (space.dim_total, space.dim_detectable,
            space.dim_undetectable_plus, space.dim_undetectable_minus)


def solve_inputs(seed: int, tiny: bool = False) -> list:
    rng = np.random.default_rng([seed, 1])
    return [(cls, *solve_input(rng, *cls)) for cls in (SOLVE_CLASSES_TINY if tiny else SOLVE_CLASSES)]


def build_solve(seed: int, tiny: bool = False) -> list[Op]:
    import twinobs

    ops = []
    for (kind, d, r, k), rho, truth, dims in solve_inputs(seed, tiny):

        def run(rho=rho, d=d):
            return twinobs.solve_twin_space(twinobs.BipartiteState(d, d, rho))

        def check(space, truth=truth, dims=dims):
            if _space_dims(space) != dims:
                return f"dims {_space_dims(space)} != {dims}"
            got = np.column_stack([_pair_vector(p.a_plus, p.a_minus) for p in space.basis])
            dist = subspace_distance(truth, got)
            return None if dist <= SUBSPACE_TOL else f"subspace distance {dist:.2e}"

        ops.append(Op(f"{kind} d={d} r={r}", run, check, rows=2 * d * d * r))
    return ops


# -------------------------------------------------------- pipeline-lowrank

PIPELINE_CLASSES = [("pure", 6), ("block2", 8), ("pure", 10), ("block2", 6),
                    ("pure", 12), ("pure", 8), ("block2", 10)]
PIPELINE_CLASSES_TINY = [("pure", 3), ("block2", 3)]


def pipeline_input(rng, kind: str, d: int):
    """rho on span{|u_a, v_a>} and the populations <a,a|rho|a,a> (ascending).

    pure: Schmidt coefficients lambda_a = ((a+1) + u_a/2)/norm with u_a in
    [0, 0.9), so consecutive values differ by at least 0.55/norm; the
    populations are lambda_a^2.  block2: a rank-2 state on the same span.
    Returns (rho, populations, Schmidt coefficients or None).
    """
    U, V = _isometry(rng, d, d), _isometry(rng, d, d)
    D = _diagonal_pairs(U, V)
    if kind == "pure":
        lam = np.arange(1, d + 1) + 0.5 * rng.uniform(0, 0.9, d)
        lam /= np.linalg.norm(lam)
        phi = D @ lam
        return np.outer(phi, phi.conj()), np.sort(lam**2), np.sort(lam)
    M = _density(rng, d, 2)
    return D @ M @ D.conj().T, np.sort(np.diag(M).real), None


def pipeline_inputs(seed: int, tiny: bool = False) -> list:
    rng = np.random.default_rng([seed, 2])
    classes = PIPELINE_CLASSES_TINY if tiny else PIPELINE_CLASSES
    return [(cls, *pipeline_input(rng, *cls)) for cls in classes]


def build_pipeline(seed: int, tiny: bool = False) -> list[Op]:
    import twinobs

    ops = []
    for (kind, d), rho, populations, schmidt in pipeline_inputs(seed, tiny):
        r = 1 if schmidt is not None else 2

        def run(rho=rho, d=d, pure=schmidt is not None):
            state = twinobs.BipartiteState(d, d, rho)
            space = twinobs.solve_twin_space(state)
            found = twinobs.find_complete_twins(space, state)
            if found is None:
                return space, None, None, None, None
            pair, mb = found
            M, sparsity = twinobs.simplified_matrix(state, mb)
            report = twinobs.distant_measurement_report(state, pair)
            coeffs = twinobs.pure_schmidt(state, pair)[0] if pure else None
            return space, M, sparsity, report, coeffs

        def check(out, d=d, populations=populations, schmidt=schmidt):
            space, M, sparsity, report, coeffs = out
            if _space_dims(space) != (d, d, 0, 0):
                return f"dims {_space_dims(space)} != {(d, d, 0, 0)}"
            if M is None:
                return "complete twins not found"
            if not sparsity.passed or not report.passed:
                return "sparsity or measurement report failed"
            probs = np.sort([o.probability_plus for o in report.outcomes])
            if probs.shape != populations.shape or np.max(np.abs(probs - populations)) > VALUE_TOL:
                return "outcome probabilities differ from the populations"
            if np.max(np.abs(np.sort(np.diag(M).real) - populations)) > VALUE_TOL:
                return "simplified-matrix diagonal differs from the populations"
            if schmidt is not None and np.max(np.abs(np.sort(coeffs) - schmidt)) > VALUE_TOL:
                return "Schmidt coefficients differ from the constructed ones"
            return None

        ops.append(Op(f"{kind} d={d} r={r}", run, check, rows=2 * d * d * r))
    return ops


# ---------------------------------------------------------------- cli-spin

_R2, _R3, _R6 = np.sqrt(2), np.sqrt(3), np.sqrt(6)


def _ket(d: int, entries: dict) -> np.ndarray:
    """Two-spin vector from {(i_plus, i_minus): amplitude}, m-descending order."""
    v = np.zeros(d * d, dtype=complex)
    for (i, j), amp in entries.items():
        v[i * d + j] = amp
    return v


# Coupled states |S, M> from the Clebsch-Gordan tables (index 0 is m = +j).
_SPIN_HALF = {
    (1, 0): _ket(2, {(0, 1): 1 / _R2, (1, 0): 1 / _R2}),
    (0, 0): _ket(2, {(0, 1): 1 / _R2, (1, 0): -1 / _R2}),
    (1, -1): _ket(2, {(1, 1): 1}),
}
_SPIN_ONE = {
    (2, 0): _ket(3, {(0, 2): 1 / _R6, (1, 1): 2 / _R6, (2, 0): 1 / _R6}),
    (1, 0): _ket(3, {(0, 2): 1 / _R2, (2, 0): -1 / _R2}),
    (0, 0): _ket(3, {(0, 2): 1 / _R3, (1, 1): -1 / _R3, (2, 0): 1 / _R3}),
    (2, 1): _ket(3, {(0, 1): 1 / _R2, (1, 0): 1 / _R2}),
    (1, 1): _ket(3, {(0, 1): 1 / _R2, (1, 0): -1 / _R2}),
}

# name -> (d, components, sharp total M or None, twin-space dims, complete twins exist).
# dims follow from the range: a sharp total M gives the twin (s_z - M/2, -s_z + M/2),
# and every product state |m, M-m> in the range adds one detectable dimension;
# example2_ms1 leaves m = -1 out of both reductions, one undetectable dimension a side.
# range10_1m1 mixes M = 0 and M = -1 with equal reduced ranks and has scalar twins only.
SCENARIOS = {
    "example1_range10_00": (2, [_SPIN_HALF[1, 0], _SPIN_HALF[0, 0]], 0, (2, 2, 0, 0), True),
    "example1_range10_1m1": (2, [_SPIN_HALF[1, 0], _SPIN_HALF[1, -1]], None, (1, 1, 0, 0), False),
    "example2_ms0": (3, [_SPIN_ONE[2, 0], _SPIN_ONE[1, 0], _SPIN_ONE[0, 0]], 0, (3, 3, 0, 0), True),
    "example2_ms1": (3, [_SPIN_ONE[2, 1], _SPIN_ONE[1, 1]], 1, (4, 2, 1, 1), True),
}
COMMANDS = ("example", "solve", "analyze", "schmidt", "measure")


def _matrix_json(M) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def _matrix_from_json(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


@dataclass
class Scenario:
    name: str
    d: int
    weights: np.ndarray
    rho: np.ndarray
    dims: tuple
    complete: bool
    pair: tuple              # (A_plus, A_minus): a twin pair known from the construction
    outcomes: list           # [(value, probability)] of measuring A_plus, ascending
    expectation: float
    populations: np.ndarray  # <a,a|rho|a,a> over the matched product basis, ascending


def spin_scenario(rng, name: str) -> Scenario:
    """Seeded mixture weights of one scenario and every answer the CLI must give."""
    d, comps, M_sharp, dims, complete = SCENARIOS[name]
    w = rng.uniform(0.2, 1.0, len(comps))
    w /= w.sum()
    rho = sum(wi * np.outer(v, v.conj()) for wi, v in zip(w, comps))
    j = (d - 1) / 2
    m = j - np.arange(d)
    if M_sharp is None:
        pair = (np.eye(d), np.eye(d))
    else:
        pair = (np.diag(m - M_sharp / 2), np.diag(-m + M_sharp / 2))
    p_plus = np.einsum("ijij->i", rho.reshape(d, d, d, d)).real
    values = np.diag(pair[0]).real
    outcomes = {}
    for v, p in zip(values, p_plus):
        outcomes[round(float(v), 9)] = outcomes.get(round(float(v), 9), 0.0) + p
    outcomes = sorted((v, p) for v, p in outcomes.items() if p > 1e-12)
    # rho lives on product basis states, so the matched |a, a> are basis states
    pops = np.diag(rho).real
    return Scenario(
        name=name, d=d, weights=w, rho=rho, dims=dims, complete=complete, pair=pair,
        outcomes=outcomes, expectation=float(np.dot(values, p_plus)),
        populations=np.sort(pops[pops > 1e-12]),
    )


def spin_scenarios(seed: int) -> list[Scenario]:
    rng = np.random.default_rng([seed, 3])
    return [spin_scenario(rng, name) for name in SCENARIOS]


def _check_square(M, populations, locus: str):
    M = _matrix_from_json(M)
    if M.shape != (len(populations),) * 2:
        return f"{locus}: shape {M.shape}"
    if np.max(np.abs(np.sort(np.diag(M).real) - populations)) > VALUE_TOL:
        return f"{locus}: diagonal differs from the populations"
    return None


def _check_cli(command: str, sc: Scenario, code: int, stdout: str):
    """Ground truth of one CLI call: exit code plus the parsed JSON output."""
    expected_code = 1 if command == "schmidt" and not sc.complete else 0
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if command == "example":
        if doc["dims"] != [sc.d, sc.d]:
            return f"dims {doc['dims']}"
        diff = np.max(np.abs(_matrix_from_json(doc["rho"]) - sc.rho))
        return None if diff <= 1e-10 else f"rho differs by {diff:.2e}"
    if command in ("solve", "analyze"):
        space = doc if command == "solve" else doc["twin_space"]
        got = (space["dim_total"], space["dim_detectable"],
               space["dim_undetectable_plus"], space["dim_undetectable_minus"])
        if got != sc.dims:
            return f"dims {got} != {sc.dims}"
        if command == "solve":
            return None
        if not doc["geometry"]["passed"]:
            return "geometry check failed"
        twins = doc["complete_twins"]
        if not sc.complete:
            return None if twins == "not found" else "complete twins reported where none exist"
        if twins == "not found":
            return "complete twins not found"
        return _check_square(twins["simplified_matrix"], sc.populations, "simplified matrix")
    if command == "schmidt":
        if not sc.complete:
            return None if doc == {"complete_twins": "not found"} else "unexpected output"
        if doc["max_forbidden_element"] > VALUE_TOL:
            return "forbidden element above tolerance"
        return _check_square(doc["simplified_matrix"], sc.populations, "simplified matrix")
    # measure
    if not doc["passed"]:
        return "measurement report failed"
    got = sorted((o["value"], o["probability_plus"]) for o in doc["outcomes"])
    if len(got) != len(sc.outcomes) or any(
        abs(v - ev) > VALUE_TOL or abs(p - ep) > VALUE_TOL
        for (v, p), (ev, ep) in zip(got, sc.outcomes)
    ):
        return f"outcomes {got} != {sc.outcomes}"
    for key in ("expectation_plus", "expectation_minus"):
        if abs(doc[key] - sc.expectation) > VALUE_TOL:
            return f"{key} {doc[key]} != {sc.expectation}"
    return None


def child_env() -> dict:
    """Environment of a CLI child: the checkout's sources and the pinned threads."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One `twinobs` call as a fresh interpreter, as a user runs it."""
    proc = subprocess.run([sys.executable, "-m", "twinobs.cli", *argv], env=child_env(),
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    """The same call through cli.main in this process, output captured."""
    from twinobs import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


def cli_calls(seed: int, workdir: Path, tiny: bool = False):
    """Write the state and pair files; return [(label, argv, check)] in run order."""
    workdir.mkdir(parents=True, exist_ok=True)
    scenarios = spin_scenarios(seed)
    files = {}
    for sc in scenarios:
        state = workdir / f"{sc.name}.state.json"
        pair = workdir / f"{sc.name}.pair.json"
        state.write_text(json.dumps({"dims": [sc.d, sc.d], "rho": _matrix_json(sc.rho)}))
        pair.write_text(json.dumps({"a_plus": _matrix_json(sc.pair[0]),
                                    "a_minus": _matrix_json(sc.pair[1])}))
        files[sc.name] = (str(state), str(pair))
    # 5 commands x 4 scenarios, interleaved so that every prefix mixes them
    n = len(COMMANDS) if tiny else len(COMMANDS) * len(scenarios)
    calls = []
    for i in range(n):
        command = COMMANDS[i % len(COMMANDS)]
        sc = scenarios[i % len(scenarios)] if not tiny else scenarios[-1]
        state, pair = files[sc.name]
        argv = {
            "example": ["example", sc.name, "--weights", *map(repr, map(float, sc.weights))],
            "solve": ["solve", state],
            "analyze": ["--seed", str(seed), "analyze", state],
            "schmidt": ["--seed", str(seed), "schmidt", state],
            "measure": ["measure", state, pair],
        }[command]

        def check(out, command=command, sc=sc):
            return _check_cli(command, sc, *out)

        calls.append((f"{command} {sc.name}", argv, check))
    return calls


def build_cli(seed: int, tiny: bool = False, inprocess: bool = False) -> list[Op]:
    runner = run_cli_inprocess if inprocess else run_cli
    calls = cli_calls(seed, OUT / f"cli-spin-seed{seed}", tiny)
    return [Op(label, lambda argv=argv: runner(argv), check) for label, argv, check in calls]


BUILDERS = {
    "solve-highrank": build_solve,
    "pipeline-lowrank": build_pipeline,
    "cli-spin": build_cli,
}
