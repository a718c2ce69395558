#!/usr/bin/env python3
"""Build and run the L-Store end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload htap --seed 1 --seconds 10 --trace 0

Builds perfbench/ (engine library from src/ plus the `lbench` binary)
into .bench_build/ on first use, then runs one workload. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md). Build output goes to
standard error. Any failure to build or run exits non-zero without a
result line.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("htap", "durable", "cold", "wire")
BUILD_DIR = ".bench_build"
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))


def build():
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "lbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(BUILD_DIR, "lbench")
    return binary if os.path.exists(binary) else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    data = os.path.join(BUILD_DIR, "data-%d" % os.getpid())
    try:
        return subprocess.run([
            binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--dir", data]).returncode
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
