#!/usr/bin/env python3
"""Benchmark of twinobs: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload solve-highrank --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The workload's inputs are built from the seed, every op is checked against
the answer known from how its input was built, and ops run back to back for
--seconds.  Progress lines start with '#'; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics of BENCHMARK.json with --trace 0 and the per-layer ones
with --trace 1.  error_rate = failed / attempted.

Times are reported in normalised seconds.  The CPU is shared with other
tenants, whose load was seen to change its speed by up to 2x within
seconds, so after every op the loop times a fixed NumPy reference kernel (SpeedProbe), and
each measured time is scaled by the kernel's nominal time over its measured
times around it: a normalised second is a second on a machine where the
kernel takes exactly its nominal time.  Raw wall-clock figures are printed
on the '#' lines and kept in the run record.

--trace 1 runs the same ops untraced for half of --seconds, then traced
(see tracer.py) for the other half; cli-spin runs them in-process through
cli.main there.  Spans and a run record are written under perfbench/out/.
"""

import os

# BLAS must be pinned before NumPy is first imported, here and in CLI children:
# on 2 CPUs a threaded OpenBLAS measures the scheduler rather than twinobs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
REFERENCE_WINDOW = 2  # reference samples either side of an op that set its scale


class SpeedProbe:
    """A fixed NumPy kernel whose time tracks the CPU's current speed for the
    kind of work a workload does; nothing in twinobs can change it.

    Slow spells of the machine slow different code by different factors
    (seen: 2.4x for a full SVD whose U fits in L2, 1.8x for one whose U does
    not), so the probe resembles each workload: for solve-highrank, whose ops
    are about 90% full-U complex SVD of tall matrices, such an SVD with a
    5.8 MB U; small eigh, economy SVD, kron and dict/sort work for the others.
    """

    def __init__(self, workload: str):
        rng = np.random.default_rng(20001)
        self.large_svd = workload == "solve-highrank"
        # a normalised second is a second on a machine where one pass takes nominal_s
        self.nominal_s = 0.03 if self.large_svd else 0.002
        self.C = rng.standard_normal((600, 50)) + 1j * rng.standard_normal((600, 50))
        H = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.H = H + H.conj().T
        self.T = rng.standard_normal((288, 36))
        self.B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    def _kernel(self) -> float:
        t0 = perf_counter()
        if self.large_svd:
            np.linalg.svd(self.C)
            return perf_counter() - t0
        for _ in range(4):
            np.linalg.eigh(self.H)
            np.linalg.svd(self.T, full_matrices=False)
            np.kron(self.B, self.B) @ np.kron(self.B, self.B)
            sorted({i: str(i) for i in range(100)}.items(), key=lambda kv: kv[1])
        return perf_counter() - t0

    def __call__(self) -> float:
        """Seconds of one kernel pass: a first pass refills the caches an op
        evicted, and the faster of two more passes drops an interrupted one."""
        self._kernel()
        return min(self._kernel(), self._kernel())

    def scale(self) -> float:
        """Factor from measured to normalised seconds at this moment."""
        return self.nominal_s / statistics.median(self() for _ in range(2 * REFERENCE_WINDOW + 1))


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),  # not imported: twinobs' import is timed
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Loop:
    """Closed loop, one client: the next op starts when the previous one is checked."""

    def __init__(self, ops, seconds: float, probe: SpeedProbe, tracer: Tracer | None = None):
        self.latencies: list[float] = []
        self.references: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.labels: Counter = Counter()
        self.rows: list[int] = []
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            op = ops[i % len(ops)]
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # a raising op is a failed op; the loop goes on
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            self.latencies.append(perf_counter() - t0)
            if error is None:
                try:
                    error = op.check(out)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    error = f"malformed output: {type(exc).__name__}: {exc}"
            if error:
                self.failures.append((op.label, error))
            self.labels[op.label] += 1
            self.rows.append(op.rows)
            self.references.append(probe())
            i += 1
        ref = np.array(self.references)
        w = REFERENCE_WINDOW
        self.scales = probe.nominal_s / np.array(
            [np.median(ref[max(0, i - w): i + w + 1]) for i in range(len(ref))])
        self.normalised = np.array(self.latencies) * self.scales
        # every position of the op cycle weighs the same, so a partly run
        # last cycle does not tilt the workload's mix
        position = np.arange(len(ref)) % len(ops)
        self.weights = 1.0 / np.bincount(position)[position]

    def _times(self, raw: bool) -> np.ndarray:
        return np.array(self.latencies) if raw else self.normalised

    def percentile(self, q: float, raw: bool = False) -> float:
        """Weighted percentile, interpolated between the weights' midpoints."""
        times = self._times(raw)
        order = np.argsort(times)
        w = self.weights[order]
        mid = (np.cumsum(w) - w / 2) / w.sum()
        return float(np.interp(q / 100, mid, times[order]))

    def throughput(self, raw: bool = False) -> float:
        """Ops per second of op time over the mix; the loop's checks and probes left out."""
        return float(self.weights.sum() / np.dot(self.weights, self._times(raw)))


def import_times(probe: SpeedProbe) -> tuple[float, float]:
    """Normalised cumulative import time of twinobs and of the SciPy modules it
    pulls in, from `python -X importtime` (median of a few fresh interpreters)."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import twinobs"],
                              env=workloads.child_env(), capture_output=True, text=True,
                              timeout=workloads.CLI_TIMEOUT_S)
        scale = probe.scale()
        runs.append([t * scale for t in parse_importtime(proc.stderr)])
    return (statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs))


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(twinobs, outermost scipy modules) cumulative seconds; 0 when absent."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        name = parts[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(parts[1]) * 1e-6))
    total = scipy_total = 0.0
    ancestors: list[tuple[int, str]] = []
    # importtime lists children before parents; walk it backwards to see parents first
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] == "scipy" or a[1].startswith("scipy.") for a in ancestors):
            scipy_total += cumulative
        if depth == 0 and name == "twinobs":
            total = cumulative
        ancestors.append((depth, name))
    return total, scipy_total


def setup(workload: str, seed: int, tiny: bool, inprocess: bool, probe: SpeedProbe):
    """Build the inputs and warm up, SETUP_REPEATS times; (ops, median normalised seconds)."""
    build = workloads.BUILDERS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        if workload == "cli-spin":
            ops = build(seed, tiny, inprocess)
            warm = ops[:1]
        else:
            ops = build(seed, tiny)
            warm = build(seed, tiny=True)
        for op in warm:
            try:
                op.run()
            except Exception:  # a broken op is counted as failed by the timed loop
                pass
        times.append((perf_counter() - t0) * probe.scale())
    return ops, statistics.median(times)


def per_layer(tracer: Tracer, scales: np.ndarray) -> dict:
    t = tracer.totals(scales)
    n_ops = len(scales)

    def per_op(name, field):
        return t[name][field] / n_ops

    fcd = t["spectral.find_complete_twins"]
    return {
        "linops.kernel_basis.self_s_per_op": per_op("linops.kernel_basis", "self_s"),
        "linops.kernel_basis.input_elems_per_op": per_op("linops.kernel_basis", "size"),
        "linops.eigh.calls_per_op": per_op("linops.eigh", "calls"),
        "linops.eigh.self_s_per_op": per_op("linops.eigh", "self_s"),
        "linops.kron.calls_per_op": per_op("linops.kron", "calls"),
        "linops.kron.self_s_per_op": per_op("linops.kron", "self_s"),
        "linops.hermitize.self_s_per_op": per_op("linops.hermitize", "self_s"),
        "linops.hermitian_basis.calls_per_op": per_op("linops.hermitian_basis", "calls"),
        "linops.range_basis.calls_per_op": per_op("linops.range_basis", "calls"),
        "states.reduce.calls_per_op": per_op("states.reduce", "calls"),
        "states.BipartiteState.init_s_per_op": per_op("states.BipartiteState.init", "total_s"),
        "twins.solve_twin_space.self_s_per_op": per_op("twins.solve_twin_space", "self_s"),
        "twins.solve_twin_space.total_s_per_op": per_op("twins.solve_twin_space", "total_s"),
        "spectral.find_complete_twins.total_s_per_op":
            per_op("spectral.find_complete_twins", "total_s"),
        "spectral.find_complete_twins.success_ratio":
            fcd["not_none"] / fcd["calls"] if fcd["calls"] else 0.0,
        "spectral.split_detectable.calls_per_op": per_op("spectral.split_detectable", "calls"),
        "schmidt.simplified_matrix.self_s_per_op": per_op("schmidt.simplified_matrix", "self_s"),
        "schmidt.pure_schmidt.total_s_per_op": per_op("schmidt.pure_schmidt", "total_s"),
        "measurement.distant_measurement_report.self_s_per_op":
            per_op("measurement.distant_measurement_report", "self_s"),
        "measurement.luders_collapse.self_s_per_op":
            per_op("measurement.luders_collapse", "self_s"),
        "serialize.load_s_per_op": per_op("serialize.load_json", "total_s")
            + per_op("serialize.state_from_document", "total_s"),
        "serialize.dump_s_per_op": per_op("serialize.dump_json", "total_s"),
        "cli.main.total_s_per_op": per_op("cli.main", "total_s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs of every class (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (workloads.SRC / "twinobs" / "__init__.py").is_file():
        print(f"error: no twinobs sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    workloads.OUT.mkdir(exist_ok=True)
    # one CPU for this process and its CLI children, so the probe and the ops share it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    print("# env " + json.dumps(env), flush=True)
    probe = SpeedProbe(args.workload)

    cli = args.workload == "cli-spin"
    inprocess = cli and args.trace == 1
    import_s = 0.0
    if not cli or inprocess:
        t0 = perf_counter()
        import twinobs  # noqa: F401  (lazy set-up a library user pays once)
        import_s = (perf_counter() - t0) * probe.scale()
    ops, setup_s = setup(args.workload, args.seed, args.tiny, inprocess, probe)
    setup_s += import_s

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "reference_nominal_s": probe.nominal_s}
    if args.trace == 0:
        loop = Loop(ops, args.seconds, probe)
        loops = [loop]
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        metrics = {
            "latency_p50_s": (loop.percentile(50), "s"),
            "latency_p90_s": (loop.percentile(90), "s"),
            "throughput_ops_per_s": (loop.throughput(), "ops/s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        record["raw_wall_clock"] = {
            "latency_p50_s": loop.percentile(50, raw=True),
            "latency_p90_s": loop.percentile(90, raw=True),
            "throughput_ops_per_s": loop.throughput(raw=True),
            "reference_median_s": float(np.median(loop.references)),
        }
    else:
        untraced = Loop(ops, args.seconds / 2, probe)
        tracer = Tracer()
        with tracer:
            traced = Loop(ops, args.seconds / 2, probe, tracer)
        loops = [untraced, traced]
        tracer.write(workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        twinobs_s, scipy_s = import_times(probe)
        units = {"calls": "calls/op", "elems": "elems/op", "ratio": "ratio"}
        metrics = {
            name: (value, next((u for k, u in units.items() if k in name), "s/op"))
            for name, value in per_layer(tracer, traced.scales).items()
        }
        metrics["cli.import_s"] = (twinobs_s, "s")
        metrics["cli.import_scipy_s"] = (scipy_s, "s")
        metrics["trace.overhead_p50_s"] = (traced.percentile(50) - untraced.percentile(50), "s")
        record["trace_missing"] = tracer.missing
        record["untraced_p50_s"] = untraced.percentile(50)
        record["traced_p50_s"] = traced.percentile(50)

    attempted = sum(len(lp.latencies) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    error_rate = len(failures) / attempted
    record.update(
        attempted=attempted, failed=len(failures), error_rate=error_rate,
        samples=[len(lp.latencies) for lp in loops],
        input_classes=dict(sum((lp.labels for lp in loops), Counter())),
        constraint_rows=dict(Counter(r for lp in loops for r in lp.rows)),
        failures=failures[:20],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    (workloads.OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for label, error in failures[:5]:
        print(f"# FAILED {label}: {error}", flush=True)
    print(f"# samples {record['samples']}  error_rate {error_rate:.4g} ratio "
          f"({len(failures)}/{attempted})", flush=True)
    for name, value in record.get("raw_wall_clock", {}).items():
        print(f"# raw {name} {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
