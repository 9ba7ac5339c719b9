#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload serve_closed --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library sources plus the perfbench driver into .bench_build/perfbench
(Release); later runs rebuild only what changed. Build output goes to
stderr, so the driver's last stdout line stays its JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure (once) and build; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "service.h")):
        print("perfbench: no library sources next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
