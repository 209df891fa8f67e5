#!/usr/bin/env python3
"""Build and run the standing benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload <nas_evolve|lcp_catalog|hub_zipf> \
      --seed N --seconds S --trace <0|1>

Configures and builds perfbench/ (the EvoStore libraries plus the
`perfbench` driver, Release) under .bench_build/perfbench, then runs the
driver with the same arguments. Build output goes to stderr; the driver's
stdout is passed through, so its last line is the JSON result. Exits
non-zero, without printing a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-scratch")


def build() -> bool:
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main() -> int:
    if not build():
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), *sys.argv[1:],
           "--scratch", SCRATCH]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
