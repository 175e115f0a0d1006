#!/usr/bin/env python3
"""Run the benchmark repeatedly and keep every run's output.

    python3 perfbench/sample.py --out DIR [--runs 10] [--workload W ...] \\
        [--trace-runs 1] NAME=ROOT [NAME=ROOT]

Each NAME=ROOT is a checkout of the program (ROOT holds src/quatbound).
This benchmark's own run.py is used for every ROOT, so two commits are
measured with identical benchmark code.  Seed i (1..runs) runs once on each
ROOT; with two ROOTs the one that goes first alternates from seed to seed.
Output: DIR/NAME/<workload>/seed-<i>.out (and trace-<i>.out), the run's
stdout.  Compare with perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--trace-runs", type=int, default=0,
                    help="traced runs per workload and root, after the plain ones")
    ap.add_argument("roots", nargs="+", metavar="NAME=ROOT")
    args = ap.parse_args()
    roots = [r.split("=", 1) for r in args.roots]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = str(bench["run_seconds"])

    def run(name, root, workload, seed, trace):
        out_dir = os.path.join(args.out, name, workload)
        os.makedirs(out_dir, exist_ok=True)
        out = os.path.join(out_dir, f"{'trace' if trace else 'seed'}-{seed}.out")
        cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", str(trace)]
        with open(out, "w", encoding="utf-8") as fh:
            p = subprocess.run(cmd, cwd=os.path.abspath(root), stdout=fh, timeout=900,
                               check=False)
        with open(out, encoding="utf-8") as fh:
            last = (fh.read().strip().splitlines() or [""])[-1]
        print(f"{name} {workload} seed {seed} trace {trace}: exit {p.returncode} {last[:100]}",
              flush=True)

    for workload in workloads:
        for i in range(args.runs + args.trace_runs):
            seed = args.first_seed + i
            order = roots if i % 2 == 0 else roots[::-1]
            for name, root in order:
                run(name, root, workload, seed, int(i >= args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
