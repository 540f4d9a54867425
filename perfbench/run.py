#!/usr/bin/env python3
"""Build and run the feio end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
feio libraries and the benchmark program from source into .bench_build/
(RelWithDebInfo, the repository's default build type); later calls only
rebuild what changed. Build output goes to stderr, so the last stdout line
is the benchmark's JSON result. perfbench/README.md documents the workloads
and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "feio_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no feio sources at %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "feio_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    build()
    work_dir = os.path.join(ROOT, ".bench_build")
    # A relative socket directory keeps unix socket paths short.
    if os.path.abspath(os.getcwd()) == ROOT:
        work_dir = ".bench_build"
    cmd = [BINARY] + sys.argv[1:] + ["--work-dir", work_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
