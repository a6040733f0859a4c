#!/usr/bin/env python3
"""Builds and runs the solver benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program is compiled from source into
.bench_build/perfbench (a no-op once built). With --trace 0 the end-to-end
metrics are printed, with --trace 1 the per-layer ones, and the Chrome trace
of the traced jobs is written to .bench_build/traces/. The last line of the
output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("cold_2d", "cold_3d", "service", "tight_budget")
# Set-up is measured in fresh processes (the process-wide worker pool starts
# once per process); the median of these probes is setup_s.
SETUP_PROBES = 9
# Every run must end within this many seconds of the build finishing.
RUN_DEADLINE_S = 170


def build():
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, env=env)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            sys.exit("perfbench: build failed")


def run_binary(arguments, deadline):
    """Runs the benchmark program and returns its stdout lines."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        sys.exit("perfbench: out of time")
    try:
        result = subprocess.run([BINARY] + arguments, stdout=subprocess.PIPE,
                                text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded its deadline")
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        sys.exit(result.returncode)
    return result.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    parser.add_argument("--perturb-every", type=int, default=0,
                        help="perturb every n-th solution before checking it")
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S

    setup = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            probe = run_binary(["--setup-probe", args.workload], deadline)
            setup.append(json.loads(probe[-1])["setup_s"])

    arguments = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(TRACE_DIR, exist_ok=True)
        arguments += ["--trace-out", os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        arguments.append("--smoke")
    if args.perturb_every > 0:
        arguments += ["--perturb-every", str(args.perturb_every)]
    lines = run_binary(arguments, deadline)

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if setup:
        print(f"note: setup_s is the median of {len(setup)} probe processes: "
              + ", ".join(f"{s:.6f}" for s in setup))
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            **result["metrics"]}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
