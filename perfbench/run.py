#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload cpd-nell2 --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) under .bench_build/perfbench; later runs only rebuild what
changed. Build output goes to stderr; the last stdout line is the result
JSON. Artifacts (detailed reports, Chrome traces) land in
.bench_build/perfbench/out.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("cpd-nell2", "cpd-deli4d", "mttkrp-hetero", "service-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test switches (perfbench/selftest.py), not part of a measured run.
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(root, 'src')}; run from a "
             "full checkout of the repository")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    # One malloc arena: with glibc's per-thread arenas, where a worker
    # thread's allocations land moved peak RSS by up to 13% between runs
    # of the same input; wall times are unaffected.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
