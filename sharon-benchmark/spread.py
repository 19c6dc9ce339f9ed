#!/usr/bin/env python3
"""Run-to-run spread of the rig's end-to-end metrics, the way a driver judges it.

Runs each workload N times, each with another --seed, and prints for every
end-to-end metric the median and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)). Run it twice on one commit for
an A/A table: the two medians must agree within the metric's bound.

    python3 sharon-benchmark/spread.py [--runs 10] [--first-seed 100] [--workload NAME]...

Builds once through the command in BENCHMARK.json, from the repository root.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        values = {}
        took = []
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(args.first_seed + i),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            t = time.time()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            took.append(time.time() - t)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {args.first_seed + i}: exit {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {args.first_seed + i}: incorrect: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.runs} runs, {max(took):.1f} s the longest")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}"
            print(f"  {name:<46} median {med:<22.10g} IQR/median {spread:8.4f}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
