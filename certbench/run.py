#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

Run from the repository root:

    python3 certbench/run.py --workload stream-hot --seed 1 --seconds 20 --trace 0

It configures and builds certbench/ (Release) under the build directory
($CARGO_TARGET_DIR, default .bench_build), generates the workload's inputs
from the seed in one process, measures them in another, and passes the
measuring process's output through: its last line is the result JSON.
Build and generation logs go to stderr. Exits non-zero, printing no
result, if the program cannot be built or a step fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream-hot", "batch-cold", "durable-churn")
# Each step must end well inside the 180 s a run may take.
STEP_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary dir."""
    out = os.path.join(build_root(), "certbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            # A failed configure leaves a cache behind; drop it so the next
            # run configures afresh.
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("certbench: build failed: " + " ".join(cmd))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size multiplier for ladder studies "
                             "(named workloads run at 1)")
    parser.add_argument("--perturb-oracle", action="store_true",
                        help="change one output cell before the oracle "
                             "gate (checks that the gate trips)")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-test")
    args = parser.parse_args()

    bindir = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(bindir, "certbench_selftest")],
                                timeout=STEP_TIMEOUT_S, check=False).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    name = "%s-seed%d" % (args.workload, args.seed)
    work = os.path.join(build_root(), "runs", "%s-%d" % (name, os.getpid()))
    traces = os.path.join(build_root(), "traces")
    os.makedirs(traces, exist_ok=True)
    binary = os.path.join(bindir, "certbench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", os.path.join(work, "inputs")]
    try:
        gen = subprocess.run([binary, "gen", "--scale", repr(args.scale)] + common,
                             stdout=sys.stderr, timeout=STEP_TIMEOUT_S,
                             check=False)
        if gen.returncode != 0:
            sys.exit("certbench: input generation failed")
        cmd = [binary, "run", "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--work", os.path.join(work, "work"),
               "--trace-out", os.path.join(traces, name + ".json")] + common
        if args.perturb_oracle:
            cmd.append("--perturb-oracle")
        run = subprocess.run(cmd, timeout=STEP_TIMEOUT_S, check=False)
        sys.exit(run.returncode)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
