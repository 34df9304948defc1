#!/usr/bin/env python3
"""Build and run the Mondrian end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the repository (Release) plus the harness into .bench_build/; later
calls only rebuild what changed. Build output and the harness's progress
go to stderr; the last stdout line is the harness's JSON result, with
setup_s (--trace 0) taken from separate set-up-only harness processes
started before it. The exit
code is non-zero, with no result printed, when the build fails (for
example outside a source checkout), and 1 when the output check failed.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("smoke17", "pipeline-mondrian", "served-mix", "fleet")
# The coordinator logs each failed job attempt it retries on stderr.
RETRY_LINE = re.compile(r"coordinator: job \d+ attempt \d+ failed")
RUN_TIMEOUT_S = 150
# setup_s is the mean over this many fresh harness processes: one process
# reads one of a few levels of set-up time by its randomized memory layout.
SETUP_PROCESSES = 8


def build():
    """Configure once, then bring the harness and worker binary up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def harness(cmd, deadline):
    """Run the harness to completion; None (after saying why) if it is
    still running at time.monotonic() == deadline."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        err = e.stderr or b""
        sys.stderr.write(err.decode() if isinstance(err, bytes) else err)
        print("perfbench: timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    return proc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--worker-bin", os.path.join(BUILD, "mondrian", "mondrian_campaign")]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup = []
    for _ in range(0 if args.trace else SETUP_PROCESSES):
        proc = harness(cmd + ["--setup-only", "1"], deadline)
        if proc is None or proc.returncode != 0:
            return 2
        setup.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    proc = harness(cmd, deadline)
    if proc is None:
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"perfbench: harness exited {proc.returncode}", file=sys.stderr)
        return 2

    result = json.loads(lines[-1])
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.fmean(setup),
                                        "unit": "s"}
    if args.trace:
        retries = len(RETRY_LINE.findall(proc.stderr))
        result["metrics"]["coordinator.retries"] = {"value": retries,
                                                   "unit": "count"}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in declared):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
