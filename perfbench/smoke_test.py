#!/usr/bin/env python3
"""Smoke test of the benchmark itself: one request per workload, plain and
traced, and every metric of BENCHMARK.json emitted with its unit.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

Run from the root of a quatbound checkout; takes about half a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, pass_orders  # noqa: E402

PRINTED_ONLY = {"certified_frac": "ratio", "failed_frac": "ratio",
                "fields_per_s_wall": "1/s", "req_p50_s_wall": "s"}


def bench() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cheap_seed(workload: str) -> int:
    """A seed whose first request is the workload's cheapest field (the
    one with the smallest |D|), so that one request stays short."""
    target = max(WORKLOADS[workload]["fields"])
    return next(s for s in range(1000) if next(pass_orders(workload, s))[0] == target)


def run(workload: str, trace: int) -> tuple[dict, dict[str, str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(cheap_seed(workload)), "--seconds", "0", "--trace", str(trace),
           "--max-requests", "1"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, _, unit, *_ = line.split()
            printed[name] = unit
    return json.loads(lines[-1]), printed


def check(result: dict, printed: dict, expected: list[dict], attempted: int) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == attempted
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (got, want)
    for name, unit in want.items():
        assert printed.get(name) == unit, (name, printed.get(name))
        assert isinstance(result["metrics"][name]["value"], (int, float))


def test_end_to_end_metrics():
    b = bench()
    for w in b["workloads"]:
        result, printed = run(w["name"], 0)
        check(result, printed, b["end_to_end"], attempted=1)
        for name, unit in PRINTED_ONLY.items():
            assert printed.get(name) == unit, (w["name"], name)
        assert result["metrics"]["setup_s"]["value"] > 0


def test_per_layer_metrics():
    b = bench()
    for w in b["workloads"]:
        result, printed = run(w["name"], 1)
        check(result, printed, b["per_layer"], attempted=2)


if __name__ == "__main__":
    test_end_to_end_metrics()
    test_per_layer_metrics()
    print("ok")
