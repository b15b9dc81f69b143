#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload phoenix_dense --seed 1 --seconds 10 --trace 0

Every argument is passed through to the binary. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The
build tree is .bench_build/ at the repository root.
"""
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")
    return subprocess.call([binary, "--workdir", BUILD_DIR] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
