#!/usr/bin/env python3
"""Builds bench_e2e from source and runs it with the given arguments.

    python3 bench/e2e/run.py --workload serve_warm --seed 1 --seconds 15 --trace 0

The build tree is .bench_build/ at the repository root (Release). Build
output goes to stderr, so the last line of stdout is bench_e2e's result
object. Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "bench_e2e")
    args = [binary] + sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", os.path.join(BUILD, "work")]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
