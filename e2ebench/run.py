#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark (see README.md).

    python3 e2ebench/run.py --workload olsq2-solve --seed 1 --seconds 35 --trace 0
    python3 e2ebench/run.py --selftest
    python3 e2ebench/run.py --pin        # regenerate e2ebench/pins.json

Run from the repository root. The benchmark binary is built from source into
.bench_build/e2ebench (CMake, Release); build output goes to stderr so the
last stdout line stays the result object.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no OLSQ2 sources next to the benchmark "
                 "(expected %s)" % os.path.join(ROOT, "src"))
    build_dir = os.path.join(BUILD_DIR, "build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "e2ebench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--pin", action="store_true")
    args = p.parse_args()

    binary = build()
    pins = os.path.join(BENCH_DIR, "pins.json")
    common = ["--root", ROOT, "--pins", pins]
    if args.selftest:
        cmd = [binary, "selftest"] + common
        timeout = RUN_TIMEOUT_S
    elif args.pin:
        cmd = [binary, "pin"] + common
        timeout = None
    else:
        if not args.workload:
            p.error("--workload is required")
        cmd = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--scratch", os.path.join(BUILD_DIR, "runs")] + common
        timeout = RUN_TIMEOUT_S
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
