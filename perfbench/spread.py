#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload W [--seeds 1,2,3] [--seconds S]

Runs the benchmark once per seed (one after another, never
concurrently) and prints, per end-to-end metric, the median, the
quartiles and the interquartile distance as a share of the median next
to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in args.seeds.split(","):
        start = time.time()
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", seed,
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        if not result["correct"]:
            print("seed %s: incorrect result %s" % (seed, result), file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %s (%.0f s): %s" % (seed, time.time() - start, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    for metric in bench["end_to_end"]:
        vs = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        print("%-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f  bound %.2f  %s" % (
            metric["name"], med, q1, q3, spread, metric["bound"],
            "ok" if spread < metric["bound"] / 3 else "WIDE"))


if __name__ == "__main__":
    main()
