#!/usr/bin/env python3
"""Build perfbench from source (Release) and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload mp-splash --seed 1 --seconds 20 --trace 0

Every argument is passed on to the perfbench binary (see README.md).
The build lives in .bench_build/perfbench; build output goes to
standard error, so the last line of standard output is the result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the simulator sources (src/) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        r = subprocess.run(cmd, stdout=sys.stderr)
        if r.returncode != 0:
            return r.returncode
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr)
    return r.returncode


def main():
    rc = build()
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(ROOT, ".bench_build",
                                           "perfbench-out")]
    return subprocess.run([os.path.join(BUILD, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
