#!/usr/bin/env python3
"""Build the replication benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 replbench/run.py --workload sparse-dirty --seed 1 \
        --seconds 25 --trace 0

The build goes to .replbench/build (release profile, no shared dune
cache).  The benchmark's own progress goes to standard error; the last
line of standard output is the result object described in
replbench/README.md.  Exits non-zero, without a result, when the build
or the run fails.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.join(".replbench", "build")
TARGET = "./replbench/replbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "replbench", "replbench.exe")

# A cold build of the libraries takes about a minute; a run, under one.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    build = [
        "dune", "build", "--root", ".",
        "--build-dir", os.path.abspath(BUILD_DIR),
        "--profile", "release",
        # keep every build output inside the checkout
        "--cache=disabled",
        TARGET,
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"replbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("replbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"replbench: run failed: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
