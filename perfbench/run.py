#!/usr/bin/env python3
"""Builds and runs the PIER benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Configures and builds perfbench/ (which builds the PIER library from the
enclosing tree) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs the benchmark binary. Its report goes to standard output; the last
line is one JSON object with the keys correct, attempted, failed, metrics.
Traced runs write their spans to <build dir>/traces/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("storm", "serial", "table1", "monitor_lossy")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; build output goes to a log."""
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "pierbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build step failed: %s (%s)" % (" ".join(step), err))
            if rc != 0:
                fail("build step failed: %s (see %s)" % (" ".join(step),
                                                          log_path))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench",
                                                         "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of the PIER source tree (%s missing)"
                 % needed)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "pierbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("benchmark did not finish: %s" % err)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("benchmark printed no result line")


if __name__ == "__main__":
    main()
