#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs every workload (or the ones named) in two interleaved sets of runs, each
run with its own seed, and prints for every end-to-end metric each set's
median and quartiles, its spread (interquartile range over median), and
whether the two sets agree within the metric's bound from BENCHMARK.json:

  * spread: each set's interquartile range must stay within the bound
    (setup_s excepted: it times one cold set-up per run);
  * shift: the second set's median may not be worse than the first's by more
    than the bound;
  * failures: both sets must fail exactly the same share of operations.

    python3 perfbench/steadiness.py --runs 10 [--workloads retrieval_thread ...]

Set A uses seeds 1..runs and set B seeds 101..100+runs; runs alternate
A, B, A, B so slow drifts of the host hit both sets alike. Each run's host
CPU steal share is printed next to the sets. Exits 1 when any check fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"steadiness: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    steal = re.search(r"cpu_steal_share=([0-9.]+)", proc.stdout)
    result["steal"] = float(steal.group(1)) if steal else 0.0
    return result


def worse(metric, first, second):
    """Relative amount by which `second` is worse than `first` (negative = better)."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    parser = argparse.ArgumentParser(description="two interleaved sets of benchmark runs")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, base in (("A", 1), ("B", 101)):
                result = run(workload, base + i, bench["run_seconds"])
                if not result["correct"]:
                    print(f"{workload}: set {name} seed {base + i} failed its output check")
                    ok = False
                sets[name].append(result)
        print(f"== {workload} ({args.runs} runs per set, {bench['run_seconds']} s each)")
        share = {name: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                 for name, rs in sets.items()}
        if share["A"] != share["B"]:
            ok = False
        print(f"   failed share: A {share['A']:.6f}  B {share['B']:.6f}")
        # The hypervisor's CPU steal over each run's timed phases: a run far
        # off its set's median with high steal was slowed by the host.
        for name, rs in sets.items():
            print(f"   host steal, set {name}: " + " ".join(f"{r['steal']:.3f}" for r in rs))
        for metric in bench["end_to_end"]:
            line = f"   {metric['name']:<18}"
            medians = {}
            spread_ok = True
            for name, rs in sets.items():
                values = [r["metrics"][metric["name"]]["value"] for r in rs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                medians[name] = statistics.median(values)
                spread = (q3 - q1) / medians[name]
                if metric["name"] != "setup_s" and spread > metric["bound"]:
                    spread_ok = False
                line += (f" {name}: median {medians[name]:10.4f} q1 {q1:10.4f} q3 {q3:10.4f}"
                         f" spread {spread:6.3f} |")
            shift = worse(metric, medians["A"], medians["B"])
            agree = spread_ok and shift <= metric["bound"]
            ok = ok and agree
            pooled = [r["metrics"][metric["name"]]["value"] for rs in sets.values() for r in rs]
            q1, _, q3 = statistics.quantiles(pooled, n=4)
            print(f"{line} shift {shift:+.3f} bound {metric['bound']} "
                  f"{'agree' if agree else 'DISAGREE'} | all {len(pooled)} runs: median "
                  f"{statistics.median(pooled):.4f} spread {(q3 - q1) / statistics.median(pooled):.3f}")
    print("steadiness:", "sets agree within every bound" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
