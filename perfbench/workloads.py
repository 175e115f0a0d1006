"""Workload definitions and the output check shared by the benchmark scripts.

A workload is a fixed list of fields, one CLI request per field, all with
the same subcommand and flags.  Every flag set pins `--time-per-int-ms 0`,
so the rho iteration budget alone decides what gets factored and whether a
report is certified; the machine's speed cannot change an output.
"""

import contextlib
import io
import json
import os
import random
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# Working files of a run (cache files, the primed-cache hash), relative to
# the checkout root.
WORK_DIR = os.path.join(".bench_build", "perfbench")

# Every fundamental discriminant D in [-400, -3] with class number > 1.
SURVEY_FIELDS = (
    -15, -20, -23, -24, -31, -35, -39, -40, -47, -51, -52, -55, -56, -59,
    -68, -71, -79, -83, -84, -87, -88, -91, -95, -103, -104, -107, -111,
    -115, -116, -119, -120, -123, -127, -131, -132, -136, -139, -143, -148,
    -151, -152, -155, -159, -164, -167, -168, -179, -183, -184, -187, -191,
    -195, -199, -203, -211, -212, -215, -219, -223, -227, -228, -231, -232,
    -235, -239, -244, -247, -248, -251, -255, -259, -260, -263, -264, -267,
    -271, -276, -280, -283, -287, -291, -292, -295, -296, -299, -303, -307,
    -308, -311, -312, -319, -323, -327, -328, -331, -335, -339, -340, -344,
    -347, -355, -356, -359, -367, -371, -372, -376, -379, -383, -388, -391,
    -395, -399,
)

WORKLOADS = {
    "small_panel": {
        "subcommand": "verify",
        "fields": (-20, -23, -84, -71, -419, -3299),
        "flags": ("--time-per-int-ms", "0"),
        "uses_cache": False,
    },
    "large_h": {
        "subcommand": "bound",
        "fields": (-1151, -2999),
        "flags": ("--rho-iters", "1000000", "--time-per-int-ms", "0"),
        "uses_cache": False,
    },
    "survey_warm": {
        "subcommand": "bound",
        "fields": SURVEY_FIELDS,
        "flags": ("--mazur-bound", "100000", "--rho-iters", "1000000",
                  "--time-per-int-ms", "0"),
        "uses_cache": True,
    },
}

# Field of the untimed warm-up request that set-up ends with.
WARMUP_FIELD = -20

# Components that must always equal the reference, and those that must
# equal it when the reference report was certified (an uncertified report
# may later become certified with smaller, exact supports).
ALWAYS_EQUAL = ("ram", "small", "l_of_S", "mazur_primes")
EQUAL_IF_CERTIFIED = ("a1_intersection", "a2_intersection", "a3_support")


def import_cli(root: str):
    """Import `quatbound.cli` from `<root>/src` and from nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "quatbound", "cli.py")):
        raise SystemExit(f"error: no quatbound sources under {src}")
    sys.path.insert(0, src)
    from quatbound import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: quatbound imported from {cli.__file__}, not {src}")
    return cli


def call_cli(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """Run `cli.main(argv)` in this process: (exit code, seconds, stdout,
    stderr).  Only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # a crashed request is a failed request
            code = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


# Machine-speed calibration.  On a shared machine the speed of one core
# drifts by up to 1.7x over seconds to minutes, with the load of other
# tenants; wall-clock times of the same work then differ run to run by more
# than any useful regression bound.  A sampler thread times a fixed kernel
# (big-integer modular squaring, a small-integer loop and a bytearray sieve,
# the three kinds of work the program does) on its own thread CPU clock;
# a time measured while the kernel takes k seconds is scaled by
# KERNEL_REFERENCE_S / k, giving seconds at the reference speed.  The
# kernel runs no program code, so a program change is not scaled away.
KERNEL_REFERENCE_S = 0.0016
SAMPLE_INTERVAL_S = 0.1
SCALE_WINDOW_S = 0.5
_KERNEL_MODULUS = (1 << 607) - 1


def kernel() -> int:
    x = 3
    for _ in range(150):
        x = x * x % _KERNEL_MODULUS
    a, n = 987654321, 1000003
    for _ in range(2000):
        a = (a * a + 1) % n if a % 2 else a // 2 + n
    sieve = bytearray([1]) * 20000
    for p in (2, 3, 5, 7, 11, 13):
        sieve[p * p::p] = bytes(len(range(p * p, 20000, p)))
    return x + a + len([i for i, f in enumerate(sieve) if f])


class SpeedSampler:
    """Background thread timing `kernel()` every SAMPLE_INTERVAL_S."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, kernel s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        start = time.thread_time()
        kernel()
        self.samples.append((time.perf_counter(), time.thread_time() - start))

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self._sample()

    def scale(self, start: float, end: float) -> float:
        """Factor turning a time measured over [start, end] (perf_counter)
        into seconds at the reference speed: the reference kernel time over
        the mean kernel time of the samples within SCALE_WINDOW_S of it."""
        ks = [k for t, k in self.samples
              if start - SCALE_WINDOW_S <= t <= end + SCALE_WINDOW_S]
        if not ks:
            ks = [self.samples[-1][1]]
        return KERNEL_REFERENCE_S * len(ks) / sum(ks)


def request_argv(workload: str, D: int, cache_path: str | None = None) -> list[str]:
    spec = WORKLOADS[workload]
    argv = [spec["subcommand"], "--d", str(D), *spec["flags"]]
    if cache_path is not None:
        argv += ["--cache", cache_path]
    return argv


def pass_orders(workload: str, seed: int):
    """Endless sequence of passes; each is the workload's fields in an
    order drawn from the seed.  The field set itself never changes."""
    rng = random.Random(f"{workload}:{seed}")
    fields = list(WORKLOADS[workload]["fields"])
    while True:
        rng.shuffle(fields)
        yield list(fields)


def reference_entry(doc: dict) -> dict:
    """The part of a report document that the reference records."""
    b = doc["bound"]
    return {"components": b["components"], "union": b["union"],
            "certified": b["certified"]}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def check_report(doc: dict, ref: dict) -> list[str]:
    """Names of the report parts that disagree with the reference entry."""
    got = doc["bound"]["components"]
    want = ref["components"]
    bad = [k for k in ALWAYS_EQUAL if got.get(k) != want[k]]
    if ref["certified"]:
        bad += [k for k in EQUAL_IF_CERTIFIED if got.get(k) != want[k]]
        if doc["bound"]["union"] != ref["union"]:
            bad.append("union")
    return bad
