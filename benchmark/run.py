#!/usr/bin/env python3
"""Builds gumbo_benchmark from this checkout, then runs it.

Run from the repository root; every argument goes to the binary:

  python3 benchmark/run.py --workload paper-uniform --seed 1 --seconds 10 --trace 0
  python3 benchmark/run.py --seed 42 --repeat 5 --out benchmark-results.json

The build goes to .bench_build/ in the repository root (RelWithDebInfo,
the repository's default). Build output goes to stderr, so the binary's
last line of standard output stays its JSON result.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = os.path.join(root, "benchmark")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print(f"run.py: {root} holds no gumbo sources to build", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    configure = ["cmake", "-S", bench, "-B", build,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", build, "--target", "gumbo_benchmark",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    binary = os.path.join(build, "gumbo_benchmark")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
