#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fig7-paper --seeds 1-10 [--trace 0]

Runs the command declared in BENCHMARK.json once per seed, from the
repository root, one run at a time. For every metric it prints the median
and the interquartile range as a share of the median (quartiles by
statistics.quantiles(values, n=4)), next to the metric's bound; a spread
above a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        runs.append(result["metrics"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}",
              file=sys.stderr)

    print(f"{'metric':<26} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " <-- above bound/3" if bound and name != "setup_s" and spread > bound / 3 else ""
        print(f"{name:<26} {med:>14.6g} {spread:>8.4f} {bound if bound else '':>6}{flag}")
        print(" " * 27 + " ".join(f"{v:.4g}" for v in values))


if __name__ == "__main__":
    main()
