#!/usr/bin/env python3
"""Per-class interleaved timing of two checkouts on one benchmark workload.

    python3 scripts/class_ab.py --parent ../parent --change . \\
        --workload solve-highrank --seed 9931 --repeats 30

A workload's percentiles are set by a few of its input classes, so a
change that speeds up most classes can still move p90 through one
class it slows.  This script shows each class on its own.  Both
``twinobs`` trees are imported into this one process under distinct
names (``twinobs_parent``, ``twinobs_change``), and the ops of the
workload, built from the change checkout's ``perfbench/workloads.py``
for the given seed, run once per repeat on each side, alternating
which side goes first from op to op.  Every output is checked against
the workload's ground truth once, untimed.

With ``--workload cli-spin`` an op is one ``python -m twinobs.cli``
call in a fresh child, run for each side with PYTHONPATH set to that
side's src/, on the argv and input files of ``cli_calls`` in
perfbench/workloads.py (written once, to a temporary directory), and
the rows are per command: the four scenarios of a command form one
class.

Like the benchmark, the process and its children are pinned to one
CPU and BLAS to one thread.  Times are raw wall-clock milliseconds.
The table gives, per input class, each side's median, the median of
the paired ratios change/parent and their quartiles (the interleaved
noise), and each side's median count of minor page faults per op
(``getrusage`` ru_minflt of this process and its waited-for children,
read around each timed op); then the weighted p50 and p90 and the
throughput of the whole cycle, every position of the cycle weighing the
same, as in perfbench/run.py, and the mean minor faults per op.
"""

import os
import resource

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
WORKLOADS = ("solve-highrank", "pipeline-lowrank", "cli-spin")


def package_init(src: Path) -> Path:
    init = src / "twinobs" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no twinobs sources under {src}")
    return init


def load_package(src: Path, name: str):
    """Import the twinobs package under src/ as the top-level module `name`."""
    init = package_init(src)
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(checkout: Path):
    path = checkout / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("class_ab_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def build_ops(workloads, workload: str, package, seed: int, tiny: bool) -> list:
    """The workload's ops, built while `import twinobs` resolves to package."""
    saved = sys.modules.get("twinobs")
    sys.modules["twinobs"] = package
    try:
        return workloads.BUILDERS[workload](seed, tiny)
    finally:
        if saved is None:
            del sys.modules["twinobs"]
        else:
            sys.modules["twinobs"] = saved


def cli_ops(workloads, calls: list, src: Path) -> list:
    """The cli-spin calls as ops, each a `python -m twinobs.cli` child that
    imports twinobs from src; an op's label is its command."""
    package_init(src)
    env = dict(os.environ, PYTHONPATH=str(src))
    ops = []
    for label, argv, check in calls:
        def run(argv=argv):
            proc = subprocess.run([sys.executable, "-m", "twinobs.cli", *argv], env=env,
                                  capture_output=True, text=True,
                                  timeout=workloads.CLI_TIMEOUT_S)
            return proc.returncode, proc.stdout

        ops.append(workloads.Op(label.split()[0], run, check))
    return ops


def minor_faults() -> int:
    """Minor page faults so far of this process and its waited-for children."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def time_ops(ops: dict, repeats: int) -> tuple:
    """({side: (repeats, n_ops) array of seconds}, the same of minor page
    faults); sides alternate op by op."""
    n = len(ops["parent"])
    times = {s: np.empty((repeats, n)) for s in SIDES}
    faults = {s: np.empty((repeats, n)) for s in SIDES}
    for rep in range(repeats):
        for i in range(n):
            order = SIDES if (rep + i) % 2 == 0 else SIDES[::-1]
            for side in order:
                f0 = minor_faults()
                t0 = perf_counter()
                ops[side][i].run()
                times[side][rep, i] = perf_counter() - t0
                faults[side][rep, i] = minor_faults() - f0
    return times, faults


def failures(ops: dict) -> dict:
    """{side: [(label, error)] of the ops whose output fails the workload's check}."""
    out = {}
    for side in SIDES:
        out[side] = []
        for op in ops[side]:
            try:
                error = op.check(op.run())
            except Exception as exc:  # a raising op is a failed op; the others still run
                error = f"raised {type(exc).__name__}: {exc}"
            if error:
                out[side].append((op.label, error))
    return out


def report(labels: list, times: dict, faults: dict) -> list:
    """Lines of the per-class table and the cycle summary (milliseconds,
    minor page faults per op)."""
    lines = [f"{'class':<22} {'n':>3} {'parent':>8} {'change':>8} {'ratio':>7} "
             f"{'q1':>7} {'q3':>7} {'flt par':>8} {'flt chg':>8}"]
    for label in dict.fromkeys(labels):
        cols = [i for i, lab in enumerate(labels) if lab == label]
        p, c = times["parent"][:, cols], times["change"][:, cols]
        q1, ratio, q3 = np.percentile(c / p, [25, 50, 75])
        fp, fc = (np.median(faults[s][:, cols]) for s in SIDES)
        lines.append(f"{label:<22} {len(cols):>3} {1e3 * np.median(p):>8.3f} "
                     f"{1e3 * np.median(c):>8.3f} {ratio:>7.3f} {q1:>7.3f} {q3:>7.3f} "
                     f"{fp:>8.1f} {fc:>8.1f}")
    for name, q in (("p50", 50), ("p90", 90)):
        p, c = (np.percentile(times[s], q) for s in SIDES)
        lines.append(f"weighted {name:<13} {'':>3} {1e3 * p:>8.3f} {1e3 * c:>8.3f} "
                     f"{c / p:>7.3f}")
    ops_s = {s: times[s].size / times[s].sum() for s in SIDES}
    lines.append(f"{'throughput ops/s':<22} {'':>3} {ops_s['parent']:>8.1f} "
                 f"{ops_s['change']:>8.1f} {ops_s['change'] / ops_s['parent']:>7.3f}")
    lines.append(f"{'minor faults/op':<22} {'':>3} {faults['parent'].mean():>8.1f} "
                 f"{faults['change'].mean():>8.1f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", choices=WORKLOADS, default="solve-highrank")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=30, help="timed passes over the cycle")
    parser.add_argument("--tiny", action="store_true", help="the tiny input classes (smoke run)")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seed < 0:
        parser.error("--repeats must be >= 1 and --seed >= 0")

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = load_workloads(args.change)
    with tempfile.TemporaryDirectory(prefix="class_ab_") as workdir:
        if args.workload == "cli-spin":
            calls = workloads.cli_calls(args.seed, Path(workdir), args.tiny)
            ops = {s: cli_ops(workloads, calls, getattr(args, s).resolve() / "src")
                   for s in SIDES}
        else:
            ops = {s: build_ops(workloads, args.workload,
                                load_package(getattr(args, s).resolve() / "src", f"twinobs_{s}"),
                                args.seed, args.tiny)
                   for s in SIDES}
        bad = failures(ops)  # also the warm-up pass
        times, faults = time_ops(ops, args.repeats)
    print(f"# {args.workload} seed {args.seed}, {args.repeats} repeats, raw ms, "
          f"failed ops parent {len(bad['parent'])} change {len(bad['change'])}")
    for side in SIDES:
        for label, error in bad[side][:5]:
            print(f"# FAILED {side} {label}: {error}")
    print("\n".join(report([op.label for op in ops["parent"]], times, faults)))
    return 1 if any(bad.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
