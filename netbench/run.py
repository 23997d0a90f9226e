#!/usr/bin/env python3
"""Build and run one NetPack benchmark workload.

    python3 netbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds netbench/ (which compiles the library tree under src/) in Release
mode into .bench_build/netbench on first use, then runs the benchmark
binary. Its last stdout line is the result object; build output goes to
stderr. See netbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "netbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("sim-philly", "place-scale", "serve-churn")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then (re)build the benchmark binary."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line for line in f if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(BUILD)
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "netbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "netbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("netbench: no NetPack source tree next to the benchmark "
              "(expected src/CMakeLists.txt)", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"netbench: build failed: {err}", file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    try:
        run = subprocess.run([binary, "--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace),
                              "--workdir", WORKDIR],
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"netbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
