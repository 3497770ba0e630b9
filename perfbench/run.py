#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload clone-storm --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Exits non-zero
without a result when the simulator sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from a checkout that holds the simulator sources (src/)",
              file=sys.stderr)
        return 2
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    steps = [["cmake", "--build", build, "--target", "perfbench", "-j", "4"]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    # Keep the compiler's temporary files inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(build, "tmp")))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    binary = os.path.join(build, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
