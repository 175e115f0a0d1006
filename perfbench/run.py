#!/usr/bin/env python3
"""quatbound benchmark: the entry point.

    python3 perfbench/run.py --workload small_panel --seed 1 --seconds 20 --trace 0

Run from the root of a quatbound checkout; the program is imported from
./src.  One client in a closed loop, one thread: each request is
`quatbound.cli.main(argv)` in this process, sent when the previous one has
returned, and its report is checked against perfbench/reference.json.  A
run is whole passes over the workload's fields, each pass in an order drawn
from --seed, until --seconds have elapsed.

--trace 0 reports the end-to-end metrics.  --trace 1 runs untraced passes
for --seconds, then traced passes for --seconds, and reports the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it read `metric <name> <value> <unit> [note]` and `field ...`.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from tracer import LayerStats, Tracer
from workloads import (
    WARMUP_FIELD,
    WORK_DIR,
    WORKLOADS,
    SpeedSampler,
    call_cli,
    check_report,
    import_cli,
    load_reference,
    pass_orders,
    request_argv,
)

SETUP_SAMPLES = 5
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

# End-to-end metrics in the JSON line.  The others are printed lines only:
# certified_frac and failed_frac can be 0, req_p90_s needs >= 100 requests,
# and the wall-clock figures drift with the machine's speed.
JSON_METRICS = ("fields_per_s", "req_p50_s", "peak_rss_mb", "setup_s")
P90_MIN_REQUESTS = 100


@dataclass(frozen=True)
class Result:
    D: int
    wall_s: float  # wall-clock latency
    seconds: float  # latency at the reference machine speed
    ok: bool
    certified: bool
    problem: str = ""


def judge(code: int, out: str, err: str, ref: dict) -> tuple[bool, bool, str]:
    """(passed the check, certified, what went wrong)."""
    if code != 0:
        return False, False, f"exit {code}: {err.strip()[-500:]}"
    try:
        doc = json.loads(out)
        bad = check_report(doc, ref)
        certified = doc["bound"]["certified"] is True
    except (ValueError, KeyError, TypeError) as e:
        return False, False, f"malformed report: {e!r}"
    return not bad, certified, f"differs from reference in {', '.join(bad)}" if bad else ""


def run_loop(cli, workload, seed, seconds, reference, cache, max_requests,
             tracer=None) -> list[tuple]:
    """Whole seeded passes until `seconds` have elapsed (or `max_requests`
    requests have been sent).  Returns one (D, start, end, ok, certified,
    problem, spans) record per request."""
    records = []
    start = time.perf_counter()
    for order in pass_orders(workload, seed):
        for D in order:
            code, dt, out, err = call_cli(cli, request_argv(workload, D, cache))
            end = time.perf_counter()
            spans = tracer.take() if tracer is not None else None
            records.append((D, end - dt, end, *judge(code, out, err, reference[str(D)]),
                            spans))
            if len(records) == max_requests:
                return records
        if time.perf_counter() - start >= seconds:
            return records


def results_of(records: list[tuple], speed: SpeedSampler, stats: LayerStats | None = None):
    """Scale each request to the reference speed (folding its spans into
    `stats` with the same factor)."""
    results = []
    for D, start, end, ok, certified, problem, spans in records:
        scale = speed.scale(start, end)
        if stats is not None:
            stats.fold(spans, scale)
        results.append(Result(D, end - start, (end - start) * scale, ok, certified, problem))
    return results


def child(args: list[str], root: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, CHILD, *args], cwd=root, capture_output=True,
                          text=True, timeout=timeout, check=False)


def prime_cache(root: str, workload: str, fields: list[int]) -> tuple[str, bool]:
    """Cold pass over `fields` into a fresh cache file.  Returns the file and
    whether its bytes equal those of the first priming of the same requests
    by the same program sources in this checkout."""
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, f"{workload}-{os.getpid()}.cache")
    argvs = [request_argv(workload, D) for D in WORKLOADS[workload]["fields"] if D in fields]
    p = child(["prime", path, json.dumps(argvs)], root, timeout=150)
    if p.returncode != 0:
        raise SystemExit(f"error: priming the cache failed:\n{p.stderr}")
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    key = hashlib.sha256(json.dumps(argvs).encode())
    src = os.path.join(root, "src", "quatbound")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                key.update(name.encode() + fh.read())
    record = os.path.join(work, f"primed-{key.hexdigest()[:16]}.sha256")
    if os.path.exists(record):
        with open(record, encoding="ascii") as fh:
            return path, fh.read().strip() == digest
    tmp = f"{record}.{os.getpid()}"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(digest + "\n")
    os.replace(tmp, record)
    return path, True


def measure_setup(root: str, workload: str) -> list[float]:
    """Seconds (at the reference speed) to import quatbound and serve the
    warm-up request, each in a fresh interpreter."""
    argv = json.dumps(request_argv(workload, WARMUP_FIELD))
    samples = []
    for _ in range(SETUP_SAMPLES):
        p = child(["setup", argv], root, timeout=60)
        if p.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{p.stderr}")
        samples.append(float(p.stdout.split()[-1]))
    return samples


def throughput(results: list[Result], wall: bool = False) -> float:
    return sum(r.ok for r in results) / sum(r.wall_s if wall else r.seconds for r in results)


def end_to_end(results: list[Result], setup: list[float]) -> dict:
    n = len(results)
    lat = [r.seconds for r in results]
    wall = [r.wall_s for r in results]
    certified = sum(r.certified for r in results)
    failed = sum(not r.ok for r in results)
    m = {
        "fields_per_s": (throughput(results), "1/s", f"{n - failed} ok in {sum(lat):.3f} s"),
        "req_p50_s": (statistics.median(lat), "s", f"{n} requests"),
        "fields_per_s_wall": (throughput(results, wall=True), "1/s",
                              f"{n - failed} ok in {sum(wall):.3f} s wall clock"),
        "req_p50_s_wall": (statistics.median(wall), "s", f"{n} requests, wall clock"),
        "certified_frac": (certified / n, "ratio", f"{certified}/{n}"),
        "failed_frac": (failed / n, "ratio", f"{failed}/{n}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)}: " + " ".join(f"{s:.4f}" for s in setup)),
    }
    if n >= P90_MIN_REQUESTS:
        m["req_p90_s"] = (statistics.quantiles(lat, n=10)[-1], "s", f"{n} requests")
    return m


def per_layer(plain: list[Result], traced: list[Result], stats: LayerStats) -> dict:
    m = {k: (v, unit, "") for k, (v, unit) in stats.metrics().items()}
    untraced_fps, traced_fps = throughput(plain), throughput(traced)
    m["trace.request_s"] = (statistics.fmean(r.seconds for r in traced), "s",
                            f"{len(traced)} traced requests")
    m["trace.fields_per_s_untraced"] = (untraced_fps, "1/s", f"{len(plain)} requests")
    m["trace.fields_per_s_traced"] = (traced_fps, "1/s", f"{len(traced)} requests")
    m["trace.overhead_frac"] = (1 - traced_fps / untraced_fps if untraced_fps else 0.0,
                                "ratio", "1 - traced/untraced fields_per_s")
    return m


def print_fields(results: list[Result]) -> None:
    by_field: dict[int, list[Result]] = {}
    for r in results:
        by_field.setdefault(r.D, []).append(r)
    for D, rs in by_field.items():
        print(f"field {D} requests {len(rs)} median_s "
              f"{statistics.median(r.seconds for r in rs):.4f} "
              f"certified {sum(r.certified for r in rs)}/{len(rs)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-requests", type=int, default=None,
                    help="smoke testing: stop each loop after this many requests, "
                         "and prime the cache with only those fields")
    args = ap.parse_args(argv)

    root = os.getcwd()
    cli = import_cli(root)
    reference = load_reference()[args.workload]
    spec = WORKLOADS[args.workload]
    loop = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                reference=reference, max_requests=args.max_requests)

    cache, primed_same = None, True
    try:
        if spec["uses_cache"]:
            fields = next(pass_orders(args.workload, args.seed))[:args.max_requests]
            cache, primed_same = prime_cache(root, args.workload, fields)
        setup = [] if args.trace else measure_setup(root, args.workload)
        code, _, _, err = call_cli(cli, request_argv(args.workload, WARMUP_FIELD))
        if code != 0:
            raise SystemExit(f"error: warm-up request exited {code}:\n{err}")
        with SpeedSampler() as speed:
            plain = run_loop(cli, cache=cache, **loop)
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced = run_loop(cli, cache=cache, tracer=tracer, **loop)
                finally:
                    tracer.uninstall()
        plain = results_of(plain, speed)
        if args.trace:
            stats = LayerStats()
            traced = results_of(traced, speed, stats)
            results = plain + traced
            metrics = per_layer(plain, traced, stats)
            json_names = list(metrics)
        else:
            results = plain
            metrics = end_to_end(results, setup)
            json_names = JSON_METRICS
    finally:
        if cache is not None and os.path.exists(cache):
            os.unlink(cache)

    failed = [r for r in results if not r.ok]
    for r in failed[:5]:
        print(f"request D={r.D} failed: {r.problem}", file=sys.stderr)
    if not primed_same:
        print("primed cache differs from the first priming in this checkout", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {len(results)} requests")
    print_fields(results)
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} {value!r} {unit} {note}".rstrip())
    print(json.dumps({
        "correct": not failed and primed_same,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in json_names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
