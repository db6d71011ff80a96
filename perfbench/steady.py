#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--first-seed 1]
                                [WORKLOAD ...]

Runs perfbench/run.py once per seed for each workload (one process per
run, one run at a time) and prints, per workload and metric, the median
of the runs and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of that median, next to the
same spread of the host's ALU-loop and reference-loop times, of the
wall-clock jobs/s and instance time the ref-unit metrics are made from,
and the metric's bound from BENCHMARK.json.  Exits 1 if a run fails or if a
spread other than setup_s's exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    return result, detail


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for w in args.workloads:
        runs = []
        for i in range(args.runs):
            try:
                runs.append(one_run(w, args.first_seed + i, args.seconds))
            except RuntimeError as e:
                print(f"FAILED {e}")
                return 1
        alu = [d["alu_loop_ms"] for _, d in runs]
        ref = [d["reference_ms"] for _, d in runs]
        print(f"{w}: {args.runs} runs of {args.seconds} s; host ALU loop "
              f"median {statistics.median(alu):.4g} ms, "
              f"spread {spread(alu):.3f}; reference loop (1 ref) median "
              f"{statistics.median(ref):.4g} ms, spread {spread(ref):.3f}")
        for name in ("jobs_per_s", "run_p50_ms", "setup_measured_s"):
            vals = [d[name] for _, d in runs]
            print(f"  {name:<20} median {statistics.median(vals):<12.6g} "
                  f"spread {spread(vals):.4f}  (wall clock, not in refs)")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r, _ in runs]
            s = spread(vals)
            flag = ""
            if name != "setup_s" and s > bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {name:<20} median {statistics.median(vals):<12.6g} "
                  f"spread {s:.4f}  bound {bound}{flag}")
            print("      runs: " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
