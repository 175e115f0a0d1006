#!/usr/bin/env python3
"""Record perfbench/reference.json: for every (workload, field), the
components, union and certified flag of the report.

    python3 perfbench/record_reference.py

Run from the root of the checkout whose outputs are the reference (the
reference was recorded from the seed commit).  The survey workload runs
with a cache file, cold, as the benchmark primes it.
"""

import json
import os
import sys

from workloads import (
    REFERENCE_PATH,
    WORK_DIR,
    WORKLOADS,
    call_cli,
    import_cli,
    reference_entry,
    request_argv,
)


def main() -> int:
    root = os.getcwd()
    cli = import_cli(root)
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    reference = {}
    for name, spec in WORKLOADS.items():
        cache = os.path.join(work, f"record-{name}.cache") if spec["uses_cache"] else None
        if cache is not None and os.path.exists(cache):
            os.unlink(cache)
        entries = {}
        for D in spec["fields"]:
            code, seconds, out, err = call_cli(cli, request_argv(name, D, cache))
            if code != 0:
                raise SystemExit(f"{name} D={D} exited {code}:\n{err}")
            entries[str(D)] = reference_entry(json.loads(out))
            print(f"{name} {D} {seconds:.3f} s certified {entries[str(D)]['certified']}",
                  file=sys.stderr)
        reference[name] = entries
        if cache is not None:
            os.unlink(cache)
    # one line per field, so a changed output shows as a one-line diff
    lines = []
    for name in sorted(reference):
        rows = [f"  {json.dumps(D)}: {json.dumps(e, sort_keys=True)}"
                for D, e in reference[name].items()]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(REFERENCE_PATH, "w", encoding="ascii") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
