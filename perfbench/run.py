#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload pr-bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the root of a checkout. It builds perfbench/ (and through it the
library in src/) into .bench_build/ with CMake, runs the tests of the
benchmark's own helpers, then runs the workload binary with its output
directory under .bench_out/. For each workload it prints every metric of
BENCHMARK.json by name with its unit, and then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where metrics are the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1. With one workload that line is the last line. It exits nonzero when the build fails, a helper test
fails, an output check or the determinism tripwire fails, or the metrics do
not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return 124


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if run_quiet(configure, 120) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs], 840) == 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload; prints its metrics and result line. Returns the exit code."""
    cmd = [os.path.join(BUILD, "perfbench_workloads"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace), "--out", OUT]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    log_lines = [line for line in proc.stdout.splitlines() if not line.startswith("RESULT ")]
    result_lines = [line for line in proc.stdout.splitlines() if line.startswith("RESULT ")]
    for line in log_lines:
        print(line)
    if not result_lines:
        log("the workload printed no result (exit code %d)" % proc.returncode)
        return 2
    raw = json.loads(result_lines[-1][len("RESULT "):])

    # The end-to-end metrics of the untraced pass always; the per-layer
    # metrics of the traced pass with --trace 1. The result line carries
    # one of the two sets.
    sections = [("end_to_end", "end-to-end, untraced")]
    if trace:
        sections.append(("per_layer", "per-layer, traced"))
    metrics = {}
    for key, title in sections:
        wanted = spec[key]
        measured = raw[key]
        if set(measured) != {m["name"] for m in wanted}:
            log("%s metrics differ from BENCHMARK.json: %s"
                % (key, sorted(set(measured) ^ {m["name"] for m in wanted})))
            return 2
        print("%s seed %d, %s:" % (workload, seed, title))
        metrics = {}
        for m in wanted:
            value = measured[m["name"]]
            if not math.isfinite(value):
                log("metric %s is not finite" % m["name"])
                return 2
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("  %-30s %14.6g %s" % (m["name"], value, m["unit"]))
    correct = bool(raw["correct"]) and proc.returncode == 0
    result = {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    # Keep the result with the machine stamp and the checks beside the trace.
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "log": log_lines, "result": result}
    name = "result-%s-%d-trace%d.json" % (workload, seed, trace)
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log("unknown workload %r; choose from %s or 'all'" % (args.workload, names))
        return 2
    if not build():
        log("build failed")
        return 2
    os.makedirs(OUT, exist_ok=True)
    if run_quiet([os.path.join(BUILD, "perfbench_helpers_test"), "--gtest_brief=1"], 60) != 0:
        log("the benchmark's helper tests failed")
        return 2
    return max(run_workload(spec, w, args.seed, args.seconds, args.trace) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
