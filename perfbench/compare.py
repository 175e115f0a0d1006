#!/usr/bin/env python3
"""Judge a set of benchmark runs, or a change against its parent.

    python3 perfbench/compare.py RUNS              # spread of one set
    python3 perfbench/compare.py PARENT CHANGE     # verdict per metric

Each set is a directory as written by perfbench/sample.py:
<set>/<workload>/seed-<n>.out holds one run's stdout; runs of the two sets
are paired by file name.  trace-<n>.out files add per-layer medians.

Rules, per (end-to-end metric, workload):
- improved: the change wins at least 9/10 of the pairs (ties count for
  neither) and its median is better than the parent's by more than the
  parent's interquartile range;
- unresolved: otherwise, when either side's interquartile range exceeds the
  metric's bound as a share of its median, unless every change run reads
  better than every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound (by anything, for the exact counts certified_frac and failed_frac);
- no worse within bound: otherwise.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# End-to-end figures printed by run.py but not in BENCHMARK.json, because
# they can be 0 or exist only on runs of >= 100 requests.
EXTRA = {
    "certified_frac": ("higher", 0.0),
    "failed_frac": ("lower", 0.0),
}


def load_bounds() -> dict[str, tuple[str, float]]:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    bounds["req_p90_s"] = bounds["req_p50_s"]
    return {**bounds, **EXTRA}


def read_metrics(path: str) -> dict[str, float]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("metric "):
                _, name, value, *_ = line.split()
                out[name] = float(value)
    return out


def load_set(root: str, prefix: str) -> dict[str, dict[str, dict[str, float]]]:
    """{workload: {run file name: {metric: value}}}"""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(root, "*", f"{prefix}-*.out"))):
        workload = os.path.basename(os.path.dirname(path))
        runs.setdefault(workload, {})[os.path.basename(path)] = read_metrics(path)
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def share(iqr: float, median: float) -> float:
    return iqr / abs(median) if median else (0.0 if iqr == 0 else float("inf"))


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, str]:
    sign = 1 if better == "higher" else -1
    p1, mp, p3 = quartiles(parent)
    c1, mc, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    detail = (f"parent {mp:.6g} [{p1:.6g}, {p3:.6g}]  change {mc:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"wins {wins}/{len(pairs)}")
    if pairs and wins >= 0.9 * len(pairs) and sign * (mc - mp) > p3 - p1:
        return "improved", detail
    if bound == 0:
        return ("worse" if sign * (mc - mp) < 0 else "no worse within bound"), detail
    if max(share(p3 - p1, mp), share(c3 - c1, mc)) > bound:
        all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
        return ("no worse within bound" if all_better else "unresolved"), detail
    worse_by = sign * (mp - mc) / abs(mp) if mp else 0.0
    return ("worse" if worse_by > bound else "no worse within bound"), detail


def spread_report(runs, bounds) -> None:
    print("workload metric median iqr/median bound verdict")
    for workload, by_file in sorted(runs.items()):
        for name in bounds:
            xs = [m[name] for m in by_file.values() if name in m]
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            s, bound = share(q3 - q1, med), bounds[name][1]
            ok = ("steady" if s <= bound / 3
                  else "within bound" if s <= bound else "TOO WIDE")
            print(f"{workload} {name} {med:.6g} {s:.4f} {bound} {ok}  (n={len(xs)})")


def compare_report(parent, change, bounds) -> None:
    table: dict[str, dict[str, str]] = {}
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for name, (better, bound) in bounds.items():
            p = [m[name] for m in p_runs.values() if name in m]
            c = [m[name] for m in c_runs.values() if name in m]
            if not p or not c:
                continue
            pairs = [(p_runs[f][name], c_runs[f][name]) for f in sorted(set(p_runs) & set(c_runs))
                     if name in p_runs[f] and name in c_runs[f]]
            v, detail = verdict(p, c, pairs, better, bound)
            table.setdefault(workload, {})[name] = v
            print(f"{workload} {name}: {v}  ({detail})")
    names = [n for n in bounds if any(n in row for row in table.values())]
    print()
    print("| workload | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for workload, row in table.items():
        print(f"| {workload} | " + " | ".join(row.get(n, "-") for n in names) + " |")


def layer_report(parent, change) -> None:
    for workload in sorted(set(parent) & set(change)):
        names = sorted({k for m in parent[workload].values() for k in m})
        for name in names:
            p = statistics.median(m[name] for m in parent[workload].values() if name in m)
            c = [m[name] for m in change[workload].values() if name in m]
            if c:
                print(f"{workload} {name}: parent {p:.6g} change {statistics.median(c):.6g}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    bounds = load_bounds()
    sets = [load_set(d, "seed") for d in argv]
    if any(not s for s in sets):
        print("error: no seed-*.out runs found", file=sys.stderr)
        return 1
    if len(sets) == 1:
        spread_report(sets[0], bounds)
        return 0
    compare_report(sets[0], sets[1], bounds)
    traces = [load_set(d, "trace") for d in argv]
    if all(traces):
        print("\nper-layer medians (traced runs)")
        layer_report(*traces)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
