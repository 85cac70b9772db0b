#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload zone_scan|serve_check|db_build \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/ (which compiles the
program from ../src) into .bench_build/perfbench, generates or reuses the
seeded inputs in .bench_build/perfbench-inputs, and runs one workload. The
last line of standard output is the result JSON; build and progress output
go to standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("zone_scan", "serve_check", "db_build")
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 300
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Run `cmd` with its output on stderr; raise on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build(source_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(source_dir), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not (build_dir / "CMakeCache.txt").exists():
        run_quiet(configure, BUILD_TIMEOUT_S)
    try:
        run_quiet(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                   "shambench"], BUILD_TIMEOUT_S)
    except subprocess.CalledProcessError:
        # A cache configured elsewhere (another checkout path) cannot be
        # reused; start the build tree over once.
        shutil.rmtree(build_dir)
        run_quiet(configure, BUILD_TIMEOUT_S)
        run_quiet(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                   "shambench"], BUILD_TIMEOUT_S)
    return build_dir / "shambench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    source_dir = Path(__file__).resolve().parent
    out = source_dir.parent / ".bench_build"
    try:
        binary = build(source_dir, out / "perfbench")
        cache = str(out / "perfbench-inputs")
        run_quiet([str(binary), "prepare", "--seed", str(args.seed), "--cache",
                   cache], PREPARE_TIMEOUT_S)
        result = subprocess.run(
            [str(binary), "run", "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--cache", cache, "--work",
             str(out / "perfbench-work")],
            stderr=sys.stderr, check=False, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
