#!/usr/bin/env python3
"""Survey the prime superset across a range of imaginary quadratic fields.

For every fundamental discriminant D from -3 down to --min whose field has
class number > 1, runs the full pipeline and prints one tab-separated row:
the class number h_k and the class-group exponent h, the chosen generators
S, the size of the union, whether it is certified, and the union.  The
time each field took goes to stderr as one "D<TAB>ms" line (wall clock, by
time.perf_counter), so that stdout is the same on every run.
h_k and h are read off the field context, which walks the class group
once, on first use: its greedy generating set is the report's S, and h is
the exponent of the group that walk builds.  Fields of class number 1 are
skipped.
After the table, one line per band of h (1-9, 10-39, 40-99, >= 100) counts
the certified fields of the band out of all its fields.
With --hash each row ends in one more column: the SHA-256 of the bytes that
`quatbound bound --d D --s0-count N --mazur-bound B` prints at the script's
N and B, written from the row's own report by the CLI's emitter.  Two trees
that give the same TSV give the same reports.

    python3 scripts/survey_fields.py --min -100 [--s0-count 4] [--mazur-bound 100000] [--hash]
"""

import argparse
import sys
import time
from hashlib import sha256

from quatbound import cli
from quatbound.bound import BoundParams, assemble_bound
from quatbound.quadfield import is_fundamental, make_field

H_BANDS = ((1, 9), (10, 39), (40, 99), (100, None))


def report_sha256(ctx, rep) -> str:
    """The SHA-256 of what `quatbound bound` prints for this field's report."""
    text = cli._json(cli._report_doc(cli._field_doc(ctx), rep, None)) + "\n"
    return sha256(text.encode("ascii")).hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--min", type=int, default=-100, help="most negative discriminant")
    ap.add_argument("--s0-count", type=int, default=BoundParams().s0_count)
    ap.add_argument("--mazur-bound", type=int, default=10**5)
    ap.add_argument("--hash", action="store_true", help="add each report's SHA-256 as a column")
    args = ap.parse_args()

    params = BoundParams(s0_count=args.s0_count, mazur_bound=args.mazur_bound)
    print("D\th_k\th\tS\t|union|\tcert\tunion" + ("\tsha256" if args.hash else ""))
    surveyed = []  # (h, certified) per field
    for D in range(-3, args.min - 1, -1):
        if not is_fundamental(D):
            continue
        ctx = make_field(D)
        if ctx.class_number == 1:
            continue
        t0 = time.perf_counter()
        rep = assemble_bound(ctx, params)
        ms = 1000 * (time.perf_counter() - t0)
        S = ",".join(str(q.l) for q in rep.S)
        union = ",".join(str(p) for p in sorted(rep.union))
        digest = f"\t{report_sha256(ctx, rep)}" if args.hash else ""
        print(f"{D}\t{ctx.class_number}\t{ctx.h}\t{S}\t{len(rep.union)}\t{rep.certified}\t{union}{digest}")
        print(f"{D}\t{ms:.1f}", file=sys.stderr)
        surveyed.append((ctx.h, rep.certified))
    for lo, hi in H_BANDS:
        band = [cert for h, cert in surveyed if lo <= h and (hi is None or h <= hi)]
        label = f"h {lo}-{hi}" if hi else f"h >= {lo}"
        print(f"{label:<9} certified {sum(band)}/{len(band)}")


if __name__ == "__main__":
    main()
