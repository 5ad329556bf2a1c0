#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

The spread is the distance between the first and third quartile of the
runs' values (Python's statistics.quantiles, n=4) as a share of their
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload hit_direct --seeds 1-10
    python3 perfbench/spread.py --workload compute_mix --seeds 1-5 --bin .bench_build/release/perfbench

Run it from the repository root. Without --bin it runs the command in
BENCHMARK.json, which builds the benchmark first.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--bin", help="run this built binary instead of the BENCHMARK.json command")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    command = [args.bin] if args.bin else bench["command"]

    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            command
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace],
            capture_output=True, text=True, timeout=900,
        )
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        host = [l for l in run.stdout.splitlines() if l.startswith("host:")]
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
            if k in bounds) + (f"  [{host[0]}]" if host else ""), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {len(args.seeds)} runs")
    for name, vals in values.items():
        if name not in bounds:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else
                                         ("  WITHIN BOUND" if spread <= bound else "  OVER BOUND"))
        print(f"  {name:24s} median {med:12.6g}  spread {spread:7.2%}"
              + ("" if bound is None else f"  bound {bound:.0%}") + flag)


if __name__ == "__main__":
    main()
