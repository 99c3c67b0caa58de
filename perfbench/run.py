#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built inside the
repository's own CMake tree (its default build type and options) under
.bench_build/ (or $CARGO_TARGET_DIR), configured once and rebuilt
incrementally. Build output goes to stderr; the benchmark's stdout is passed
through unchanged, its last line being the result object. Exits non-zero,
without printing a result, when the build or the run fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        sys.stderr.write("perfbench: no CMakeLists.txt in %s; run from the "
                         "root of a checkout\n" % root)
        return 1
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"), "perfbench")
    hook = os.path.join(here, "cmake", "AddPerfbench.cmake")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", root, "-B", build,
                      "-DCMAKE_PROJECT_INCLUDE=" + hook])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return 1
    binary = os.path.join(build, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
