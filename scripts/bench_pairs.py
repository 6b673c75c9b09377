#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, aggregated into BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr <n> \\
        --seed0 9601 --pairs 10 --trace 0

For every workload and every pair i, perfbench/run.py runs once in each
checkout on seed seed0 + i, for the run_seconds of the change's
BENCHMARK.json and with the same --trace; which side runs first
alternates from pair to pair, so a slow spell of the machine hits both
sides alike.  Each run's last stdout line is its result record, and
each side is named by a sha256 of its src/ tree.  The result goes to
BENCH_<pr>.json in the change checkout.

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
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


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


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", help="default: all of BENCHMARK.json")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    better = directions(benchmark)
    names = args.workloads or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    out = args.change / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text()) if out.is_file() else {"pr": args.pr}
    sources = {s: source_digest(getattr(args, s)) for s in SIDES}
    section = doc.setdefault(f"trace{args.trace}", {})

    for workload in names:
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
        section[workload] = {
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
