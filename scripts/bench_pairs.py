#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, aggregated into BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr <n> \\
        --seed0 9601 --pairs 10 --trace 0 [--anchor ../anchor]

For every workload and every pair i, perfbench/run.py runs once in each
checkout on seed seed0 + i, for the run_seconds of the change's
BENCHMARK.json and with the same --trace; which side runs first
alternates from pair to pair, so a slow spell of the machine hits both
sides alike.  Each run's last stdout line is its result record, and
each side is named by a sha256 of its src/ tree.  The result goes to
BENCH_<pr>.json in the change checkout.

With --anchor <checkout>, scripts/class_ab.py also times a fixed anchor
tree (the parent side) against the change on solve-highrank and
pipeline-lowrank, interleaved in one process, on seed seed0 and at
class_ab.py's own number of repeats; the weighted p50 and p90 and the
throughput of each, with their ratios change/anchor, and the number of
ops that failed their check on each side go under the file's "anchor"
key.  A run in which some op fails still counts, as in the pairs, and
its failures stand beside its ratios.  A ratio compares the change
with the same old tree in every PR, so losses too small for one
parent/change gate add up where the files show them.  --pairs 0 runs
the anchor alone, and --tiny takes the anchor's tiny input classes (a
smoke run).

The output file keeps one section per --trace value, so a trace-0 and a
trace-1 invocation can write to the same file.  Per workload it holds
failed/attempted for each side and, per metric, each side's median and
quartiles, and in how many pairs the change was better (ties count for
neither side), in the direction BENCHMARK.json gives for the metric;
the raw metric values of every run are kept under "runs".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ANCHOR_WORKLOADS = ("solve-highrank", "pipeline-lowrank")
# class_ab.py's header line and its exit status when some op failed its check
CLASS_AB_HEADER = re.compile(
    r"^# \S+ seed \d+, (\d+) repeats, raw ms, failed ops parent (\d+) change (\d+)$", re.M)
CLASS_AB_FAILED_OPS = 1
# the cycle-summary rows of a class_ab.py table, by the anchor key's names
CLASS_AB_ROWS = {"weighted p50": "p50_ms", "weighted p90": "p90_ms",
                 "throughput ops/s": "throughput_ops_per_s"}
SCRIPTS = Path(__file__).resolve().parent


def directions(benchmark: dict) -> dict:
    """Metric name -> "lower" or "higher", from a BENCHMARK.json document."""
    return {m["name"]: m["better"]
            for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])}


def summary(values: list) -> dict:
    """Median and quartiles (linear interpolation between order statistics)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def aggregate(pairs: list, better: dict) -> dict:
    """Summary of one workload from its pairs of run records.

    pairs: [{"seed": int, "parent": record, "change": record}], a record
    being the JSON object that perfbench/run.py prints last.  Metrics
    missing from any record, or without a direction in `better`, are left
    out."""
    records = [p[s] for p in pairs for s in SIDES]
    names = [n for n in records[0]["metrics"]
             if n in better and all(n in r["metrics"] for r in records)]
    metrics = {}
    for name in names:
        sign = 1 if better[name] == "higher" else -1
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            "unit": records[0]["metrics"][name]["unit"],
            "better": better[name],
            **{s: summary(values[s]) for s in SIDES},
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return {
        "failed/attempted": {
            s: f"{sum(p[s]['failed'] for p in pairs)}/{sum(p[s]['attempted'] for p in pairs)}"
            for s in SIDES
        },
        "metrics": metrics,
        "runs": [{"seed": p["seed"],
                  **{s: {n: p[s]["metrics"][n]["value"] for n in names} for s in SIDES}}
                 for p in pairs],
    }


def source_digest(checkout: Path) -> str:
    """sha256 over the package sources, naming the code a side ran."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_checked(cmd: list, cwd: Path, allowed: tuple = (0,)) -> str:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode not in allowed:
        raise RuntimeError(f"{' '.join(cmd)} in {cwd} exited {proc.returncode}:\n"
                           f"{proc.stdout[-1000:]}{proc.stderr[-2000:]}")
    return proc.stdout


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return json.loads(run_checked(cmd, checkout).strip().splitlines()[-1])


def class_ab_summary(out: str) -> dict:
    """The header and cycle summary of a class_ab.py table: its repeats, the
    number of ops that failed their check on each side and, per quantity,
    the anchor (parent) and change values and their ratio change/anchor."""
    header = CLASS_AB_HEADER.search(out)
    if header is None:
        raise RuntimeError(f"no header in the class_ab.py output:\n{out[-2000:]}")
    repeats, failed_anchor, failed_change = (int(x) for x in header.groups())
    summary = {"repeats": repeats, "failed_ops": {"anchor": failed_anchor,
                                                  "change": failed_change}}
    for line in out.splitlines():
        for prefix, name in CLASS_AB_ROWS.items():
            if line.startswith(prefix):
                anchor, change, ratio = (float(x) for x in line.split()[-3:])
                summary[name] = {"anchor": anchor, "change": change, "ratio": ratio}
    if not set(CLASS_AB_ROWS.values()) <= set(summary):
        raise RuntimeError(f"no cycle summary in the class_ab.py output:\n{out[-2000:]}")
    return summary


def anchor_ratios(anchor: Path, change: Path, seed: int, tiny: bool) -> dict:
    """class_ab.py of the anchor tree against the change on each of
    ANCHOR_WORKLOADS: {workload: class_ab_summary}.  A run that exits
    because some op failed its check is kept, with its failed-op counts."""
    out = {}
    for workload in ANCHOR_WORKLOADS:
        cmd = [sys.executable, str(SCRIPTS / "class_ab.py"), "--parent", str(anchor),
               "--change", str(change), "--workload", workload, "--seed", str(seed)]
        cmd += ["--tiny"] * tiny
        summary = out[workload] = class_ab_summary(
            run_checked(cmd, change, (0, CLASS_AB_FAILED_OPS)))
        ratios = {name: summary[name]["ratio"] for name in CLASS_AB_ROWS.values()}
        print(f"# anchor {workload} seed {seed}: {ratios} failed ops {summary['failed_ops']}",
              flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", help="default: all of BENCHMARK.json")
    parser.add_argument("--anchor", type=Path,
                        help="checkout of the anchor tree, timed against the change by class_ab.py")
    parser.add_argument("--tiny", action="store_true",
                        help="the anchor run on the tiny input classes (smoke run)")
    args = parser.parse_args(argv)
    if args.pairs < 0:
        parser.error("--pairs must be >= 0")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    better = directions(benchmark)
    names = args.workloads or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    out = args.change / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text()) if out.is_file() else {"pr": args.pr}
    sources = {s: source_digest(getattr(args, s)) for s in SIDES}

    if args.anchor is not None:
        doc["anchor"] = {
            "sources": {"anchor": source_digest(args.anchor), "change": sources["change"]},
            "seed": args.seed0, "tiny": args.tiny,
            **anchor_ratios(args.anchor.resolve(), args.change.resolve(), args.seed0,
                            args.tiny),
        }
        out.write_text(json.dumps(doc, indent=1) + "\n")

    for workload in names if args.pairs else ():
        pairs = []
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, seconds, args.trace)
            pairs.append(pair)
            p50 = {s: pair[s]["metrics"].get("latency_p50_s", {}).get("value") for s in SIDES}
            print(f"# {workload} seed {seed} first {order[0]} p50 {p50}", flush=True)
        doc.setdefault(f"trace{args.trace}", {})[workload] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed <seed> "
                       f"--seconds {seconds:g} --trace {args.trace}",
            "sources": sources,
            "seeds": [p["seed"] for p in pairs],
            **aggregate(pairs, better),
        }
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
