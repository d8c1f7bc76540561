#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Usage (from the repository root):
    python3 perfbench/run.py --workload point|range|churn|hotspot \
        [--seed N] [--seconds X] [--trace 0|1]

The program is configured and compiled (Release) under .bench_build/perfbench
on first use; later runs only re-check it. All arguments go to the program,
which validates them strictly (exit code 2 on a bad command line). Build
output goes to stderr, so the last line of stdout is the program's JSON
result. A traced run also writes its span log to
.bench_build/perfbench/spans.tsv.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        code = run_quiet(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return code
    return run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", "4"])


def main():
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--trace-out", os.path.join(BUILD, "spans.tsv")]
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
