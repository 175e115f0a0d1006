#!/usr/bin/env python3
"""Fresh-interpreter helpers for perfbench/run.py.

    python3 perfbench/child.py setup '<argv as JSON>'
        Import quatbound, run one request, print the seconds both took
        at the reference machine speed.
    python3 perfbench/child.py prime CACHE '<list of argv as JSON>'
        Run each request in order with `--cache CACHE` (a cold pass).

Run from the root of a quatbound checkout.  Exits 1 if a request fails.
"""

import json
import os
import sys
import time

from workloads import SpeedSampler, call_cli, import_cli


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        argv = json.loads(sys.argv[2])
        with SpeedSampler() as speed:
            start = time.perf_counter()
            cli = import_cli(os.getcwd())
            code, _, _, err = call_cli(cli, argv)
            end = time.perf_counter()
        if code != 0:
            sys.stderr.write(err)
            return 1
        print(json.dumps((end - start) * speed.scale(start, end)))
        return 0
    if mode == "prime":
        cache, argvs = sys.argv[2], json.loads(sys.argv[3])
        cli = import_cli(os.getcwd())
        for argv in argvs:
            code, _, _, err = call_cli(cli, argv + ["--cache", cache])
            if code != 0:
                sys.stderr.write(f"priming request {argv} exited {code}\n{err}")
                return 1
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
