#!/usr/bin/env python3
"""Builds and runs the xee serving benchmark for one workload and seed.

    python3 xeebench/run.py --workload hot_fit --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package (this directory) into .bench_build/xeebench; later runs
only rebuild what changed. Build output goes to stderr; stdout carries the
client's report lines and, last, its one-line JSON result. See README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "xeebench")
WORKLOADS = ("hot_fit", "zipf_overflow", "live_churn")


def build():
    for needed in ("src/CMakeLists.txt", "examples/estimation_server.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit("xeebench: %s not found; run from an xee checkout" % needed)
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    if subprocess.call(configure, stdout=sys.stderr) != 0:
        # A cache from another source path cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            sys.exit("xeebench: cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        "xeebench", "estimation_server"],
                       stdout=sys.stderr) != 0:
        sys.exit("xeebench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    build()
    return subprocess.call([
        os.path.join(BUILD, "xeebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server", os.path.join(BUILD, "estimation_server"),
    ])


if __name__ == "__main__":
    sys.exit(main())
