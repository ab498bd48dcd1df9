#!/usr/bin/env python3
"""Serving benchmark driver: builds serve_bench from source, runs it, and
prints the result as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload retrieval_thread --seed 1 --seconds 20 --trace 0

--trace 0 runs one untraced process and reports the end-to-end metrics.
--trace 1 runs the same seed twice, untraced then traced, and reports the
per-layer metrics of the traced run plus trace.overhead_ratio (traced over
untraced latency_p50_ms). Metric names and units come from BENCHMARK.json.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root. setup_s is measured from the moment this script
spawns serve_bench to its first timed submit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds serve_bench + vlora_executor; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: the repository sources (src/) are missing; nothing to build")
        sys.exit(1)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: cmake configure failed")
            sys.exit(1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("run.py: build failed")
        sys.exit(1)
    binary = os.path.join(out, "bin", "serve_bench")
    if not os.access(binary, os.X_OK):
        log("run.py: build produced no serve_bench")
        sys.exit(1)
    return binary


def run_once(binary, args, trace):
    """Runs serve_bench once; echoes its report lines and returns its JSON."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    spawn_ns = time.monotonic_ns()
    command += ["--spawn-ns", str(spawn_ns)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: serve_bench exited with {proc.returncode}")
        sys.exit(1)
    for line in lines[:-1]:
        print(("[traced] " if trace else "") + line)
    return json.loads(lines[-1])


def pick(result, specs):
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in result["metrics"]:
            log(f"run.py: serve_bench did not report {name}")
            sys.exit(1)
        metrics[name] = {"value": result["metrics"][name]["value"], "unit": spec["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = build()

    untraced = run_once(binary, args, trace=0)
    if not args.trace:
        out = {"correct": untraced["correct"], "attempted": untraced["attempted"],
               "failed": untraced["failed"], "metrics": pick(untraced, bench["end_to_end"])}
    else:
        traced = run_once(binary, args, trace=1)
        base = untraced["metrics"]["latency_p50_ms"]["value"]
        traced["metrics"]["trace.overhead_ratio"] = {
            "value": traced["metrics"]["latency_p50_ms"]["value"] / base if base > 0 else 0.0}
        out = {"correct": untraced["correct"] and traced["correct"],
               "attempted": traced["attempted"], "failed": traced["failed"],
               "metrics": pick(traced, bench["per_layer"])}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
