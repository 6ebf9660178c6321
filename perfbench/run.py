#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the kodan libraries from src/ plus the
benchmark) into .bench_build/perfbench; later runs rebuild only what
changed. The benchmark's human-readable output is passed through. Its
last line holds the values it measured, keyed by metric name; this
script turns them into the result line, with the metrics and units
BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1). A per-layer metric of a layer the workload
does not reach reads 0. The run fails, printing no result, when the
build fails, an end-to-end metric was not measured, or the benchmark
reports a metric BENCHMARK.json does not declare.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "kodan_perfbench")
# Seconds one benchmark process may take once built.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring an up-to-date tree is a no-op, so it always runs.
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "kodan_perfbench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))


def result_line(measured, trace):
    """The result line for the benchmark's values line, or the reason
    it cannot be built."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured["values"]) - declared)
    if unknown:
        return None, f"metrics not in BENCHMARK.json: {unknown}"
    metrics = {}
    for metric in spec["per_layer"] if trace else spec["end_to_end"]:
        name = metric["name"]
        if name in measured["values"]:
            value = measured["values"][name]
        elif trace:
            value = 0.0
        else:
            return None, f"end-to-end metric {name} was not measured"
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": measured["correct"],
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": metrics}, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The benchmark itself rejects an unknown workload.
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    # Knobs the library reads from the environment would change what is
    # measured; the benchmark sets everything it needs itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("KODAN_")}
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    try:
        measured = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"no values line (exit code {proc.returncode})")
    result, problem = result_line(measured, args.trace == 1)
    if problem:
        fail(problem)
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
