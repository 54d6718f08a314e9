#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

    python3 perfbench/run.py --workload page-fig5 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --pin          # re-pin every workload's goldens

The driver is a CMake project of its own (perfbench/CMakeLists.txt)
that compiles the repository's src/ tree; it is built in Release mode
under .bench_build/perfbench at the checkout root. Build output goes to
.bench_build/perfbench/build.log. The last line of standard output is
the driver's JSON result. See perfbench/NOTES.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["page-fig5", "block-fig10", "timed-write"]


def build(target):
    """Configure (once) and build @target; exit 2 on any failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", target, "-j", jobs]]
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path) as f:
                    tail = f.readlines()[-30:]
                sys.stderr.write("".join(tail))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(2)
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the decorator/golden self-test")
    ap.add_argument("--pin", action="store_true",
                    help="re-pin the goldens of every workload (or of "
                         "--workload) from this checkout's code")
    args = ap.parse_args()

    if args.selftest:
        exe = build("perfbench_selftest")
        sys.exit(subprocess.run([exe]).returncode)

    exe = build("perfbench")
    if args.pin:
        for name in [args.workload] if args.workload else WORKLOADS:
            path = os.path.join(HERE, "goldens", name + ".txt")
            rc = subprocess.run([exe, "--workload", name, "--pin",
                                 path]).returncode
            if rc != 0:
                sys.exit(rc)
        return
    if args.workload is None:
        ap.error("--workload is required")

    goldens = os.path.join(HERE, "goldens", args.workload + ".txt")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--goldens", goldens]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
