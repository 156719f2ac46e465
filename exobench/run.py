#!/usr/bin/env python3
"""ExoBench entry point: build the benchmark from source, then run one workload.

    python3 exobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
exobench/ (which compiles ../src) into the build directory named by
CARGO_TARGET_DIR, default .bench_build; later runs rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Exits non-zero, printing no result, when the build fails, the
workload's correctness check fails, or the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table2-1dev", "table2-4dev", "serve-open", "serve-faults")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the exobench target; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "exobench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("exobench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "exobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, "exobench-trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("exobench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        print("exobench: no result printed", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
