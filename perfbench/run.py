#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The ctdf libraries, the `ctdf` CLI and
the harness are built (Release) into .bench_build/perfbench; later runs
only re-check the build. The harness prints the result as one JSON
object on the last line of standard output; build output and the
harness's reference figures go to standard error. Traced runs
(--trace 1) also write their spans to .bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("kernels", "compile-stream", "serve-mix")


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        build(["perfbench_selftest", "ctdf"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest"),
                                 os.path.join(BUILD, "ctdf")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    build(["perfbench", "ctdf"])
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    # The default machine must not pick up a host-thread override.
    env = {k: v for k, v in os.environ.items() if k != "CTDF_HOST_THREADS"}
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--ctdf", os.path.join(BUILD, "ctdf"), "--trace-dir", traces]
    try:
        done = subprocess.run(cmd, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the run did not finish in 170 s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
