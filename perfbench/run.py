#!/usr/bin/env python3
"""Build and run the repository's wall-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds perfbench/bench.exe and the
reference loop it runs, perfbench/refloop.exe, from source with dune into
.bench_build/, then runs bench.exe once for the named
workload in its own process and passes its output through; the last line
is the benchmark's JSON result.  The exit code is the benchmark's: 0 when
every instance passed its checks.  A failed build exits 3 and prints no
result.

On a shared host a core runs slow or fast for tens of seconds at a
time, so a run that stays on one core reads slow or fast as a whole.
Single-domain workloads therefore have their process moved to the next
of this machine's CPUs every 50 ms: one run, and most single instances
of sim-kk and abd-kk, sample every core instead of whichever one the
scheduler happened to pick.  mc-kk already occupies every CPU and is
left alone.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
REFLOOP = os.path.join(BUILD_DIR, "default", "perfbench", "refloop.exe")
WORKLOADS = ("sim-kk", "chaos-kk", "abd-kk", "mc-kk")
MULTI_DOMAIN = ("mc-kk",)
ROTATE_SECONDS = 0.05


def build():
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled",
        "./perfbench/bench.exe", "./perfbench/refloop.exe",
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return False
    if proc.returncode != 0 or not os.path.exists(EXE) \
            or not os.path.exists(REFLOOP):
        print("perfbench: build failed", file=sys.stderr)
        print(proc.stdout[-4000:], file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not build():
        return 3
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cpus = sorted(os.sched_getaffinity(0))
    rotate = args.workload not in MULTI_DOMAIN and len(cpus) > 1
    deadline = time.monotonic() + args.seconds * 3 + 120
    proc = subprocess.Popen(cmd, cwd=ROOT)
    turn = 0
    while proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            print("perfbench: benchmark timed out", file=sys.stderr)
            return 4
        if rotate:
            try:
                os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
            except OSError:
                pass  # the process ended between poll and here
            turn += 1
        try:
            proc.wait(timeout=ROTATE_SECONDS)
        except subprocess.TimeoutExpired:
            pass
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
