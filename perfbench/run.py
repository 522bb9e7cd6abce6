#!/usr/bin/env python3
"""The scabd cluster benchmark: build, then run one workload.

    python3 perfbench/run.py --workload cp2-closed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds the repository's libraries, the
scabd daemons and the benchmark driver from source into $CARGO_TARGET_DIR
(default .bench_build) with perfbench/CMakeLists.txt, runs the driver's unit
tests, then runs perfbench's scab-perfbench driver.  Build output goes to
stderr; the driver's report goes to stdout and its last line is one JSON
object.  The exit code is non-zero when the build, the unit tests or any
correctness check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cp0-batched", "cp2-closed", "cp3-durable-open")
DRIVER_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no scab sources next to perfbench/ (src/ missing)")
    out = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    steps.append([os.path.join(out, "perfbench_tests"), "--gtest_brief=1"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: step failed: " + " ".join(cmd))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    out = build(build_dir)
    work = os.path.join(build_dir, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "scab-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--schema", os.path.join(ROOT, "bench", "metrics_schema.json"),
           "--work-dir", work]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # The driver's replicas die with it (PR_SET_PDEATHSIG).
        sys.exit("perfbench: driver timed out")
    sys.exit(rc)


if __name__ == "__main__":
    main()
