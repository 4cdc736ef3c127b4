#!/usr/bin/env python3
"""Build and run the PhiGraph host wall-clock benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload pagerank|traversal|serve|cluster \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the
library from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr. The benchmark's own output goes to stdout, and its last line
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is the benchmark's: non-zero on a wrong output, a void run, or
a failed build.
"""
import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("pagerank", "traversal", "serve", "cluster")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no PhiGraph sources next to perfbench/ "
              "(expected src/CMakeLists.txt in %s)" % root, file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build = os.path.join(build_root, "perfbench")
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench_run")

    # One build at a time per build tree.
    with open(os.path.join(build, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            steps.append(["cmake", "-S", bench_dir, "-B", build,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build, "-j",
                      str(min(3, os.cpu_count() or 1))])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print("perfbench: build timed out", file=sys.stderr)
                return 2
            if r.returncode != 0:
                print("perfbench: build failed: %s" % " ".join(cmd),
                      file=sys.stderr)
                return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
