#!/usr/bin/env python3
"""Survey the prime superset across a range of imaginary quadratic fields.

For every fundamental discriminant D from -3 down to --min whose field has
class number > 1, runs the full pipeline and prints one row: the class
number h_k and the class-group exponent h, the chosen generators S, the
size of the union, whether it is certified, the time taken in milliseconds
(wall clock, by time.perf_counter), and the union.
h_k and h are read off the field context, which walks the class group
once, on first use: its greedy generating set is the report's S, and h is
the exponent of the group that walk builds.  Fields of class number 1 are
skipped.
After the table, one line per band of h (1-9, 10-39, 40-99, >= 100) counts
the certified fields of the band out of all its fields.

    python3 scripts/survey_fields.py --min -100 [--s0-count 4] [--mazur-bound 100000]
"""

import argparse
import time

from quatbound.bound import BoundParams, assemble_bound
from quatbound.quadfield import is_fundamental, make_field

H_BANDS = ((1, 9), (10, 39), (40, 99), (100, None))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--min", type=int, default=-100, help="most negative discriminant")
    ap.add_argument("--s0-count", type=int, default=BoundParams().s0_count)
    ap.add_argument("--mazur-bound", type=int, default=10**5)
    args = ap.parse_args()

    params = BoundParams(s0_count=args.s0_count, mazur_bound=args.mazur_bound)
    print(f"{'D':>6} {'h_k':>4} {'h':>3} {'S':<12} {'|union|':>7} "
          f"{'cert':>5} {'time':>8}  union")
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
        print(f"{D:>6} {ctx.class_number:>4} {ctx.h:>3} {S:<12} "
              f"{len(rep.union):>7} {str(rep.certified):>5} {ms:>6.1f}ms  {union}")
        surveyed.append((ctx.h, rep.certified))
    for lo, hi in H_BANDS:
        band = [cert for h, cert in surveyed if lo <= h and (hi is None or h <= hi)]
        label = f"h {lo}-{hi}" if hi else f"h >= {lo}"
        print(f"{label:<9} certified {sum(band)}/{len(band)}")


if __name__ == "__main__":
    main()
