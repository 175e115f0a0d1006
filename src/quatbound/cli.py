"""Command-line frontend: JSON reports and exit codes.

Exit codes: 0 success, 1 usage, domain or file error (an unwritable --cache
or --json path), 2 class number 1 (nothing to bound), 3 --require-certified
set but some support was not fully factored.
"""

import argparse
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .arith import FactorBudget
from .quadfield import FieldContext, make_field
from .classgroup import ClassNumberOne, check_s0_count, enumerate_S0, form_order
from .mazur import check_mazur_bound, mazur_prime_set
from .weilsets import ASet
from .bound import (MAX_FACTORS, BoundParams, BoundReport, FamilySets, assemble_bound,
                    assemble_sets, candidate_discriminants, check_max_factors, verify_claims)

SUBCOMMANDS = ("field", "classgroup", "s0", "sets", "mazur", "bound", "candidates", "verify")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit 1: exit 2 means class
    number 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# built once per process: parse_args leaves the parser unchanged and returns
# a fresh Namespace on every call
@cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="quatbound",
        description="Finite prime superset for quaternion discriminants whose "
        "Shimura curve can acquire a point over an imaginary quadratic field.",
    )
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--d", type=int, required=True,
                    help="squarefree d < 0 or fundamental discriminant")
    # the library's defaults, so that the two cannot drift apart
    defaults = BoundParams()
    ap.add_argument("--s0-count", type=int, default=defaults.s0_count)
    ap.add_argument("--mazur-bound", type=int, default=defaults.mazur_bound)
    ap.add_argument("--trial-bound", type=int, default=defaults.factor_budget.trial_bound)
    ap.add_argument("--rho-iters", type=int, default=defaults.factor_budget.rho_iterations)
    # factoring has no wall-clock cap; the flag is kept, accepting only 0
    # and read by nothing, because the benchmark workloads still pass 0
    ap.add_argument("--time-per-int-ms", type=int, choices=(0,), default=0,
                    help=argparse.SUPPRESS)
    # accepted, hidden and inert until the survey_warm benchmark workload
    # stops passing it (ROADMAP item 2); it only creates the file if missing
    ap.add_argument("--cache", type=str, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--require-certified", action="store_true")
    ap.add_argument("--S", type=str, default=None,
                    help="comma-separated override for the generating primes")
    ap.add_argument("--json", dest="json_path", type=str, default=None,
                    help="write the JSON report here instead of stdout")
    ap.add_argument("--max-factors", type=int, default=MAX_FACTORS,
                    help="candidates: largest (even) number of prime factors")
    return ap


# ---------------------------------------------------------------------------
# JSON emission: every integer as a decimal string, every set ascending.
# A report is a doc of dicts, lists and strings that holds each family as its
# ASet; _json writes the doc, and each family straight from its ASet.

def _decimal(n: int) -> str:
    """str(n), also above str()'s digit limit (CPython raises ValueError
    past 4300 digits by default, never under 640): there Decimal(n), exact
    and unlimited, prints n's plain digits at exponent 0.  decimal is
    imported only then, so that a report below the limit never loads it."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(n))


def _slist(xs) -> list[str]:
    return [str(x) for x in sorted(xs)]


def _field_doc(ctx: FieldContext) -> dict:
    return {
        "D": str(ctx.D),
        "ram": _slist(ctx.ram_primes),
        "h_k": str(ctx.class_number),
        "h": str(ctx.h),
    }


def _mazur_doc(mz) -> dict:
    return {"bound": str(mz.bound), "primes": _slist(mz.members)}


def _report_doc(field: dict, report: BoundReport, cands) -> dict:
    doc = {
        "field": field,
        "S": _slist(q.l for q in report.S),
        "s0_truncation": [str(q.l) for q in report.s0_truncation],
        "families": _all_families(report),
        "mazur": _mazur_doc(report.mazur),
        "bound": {
            "components": {k: _slist(v) for k, v in sorted(report.components.items())},
            "union": _slist(report.union),
            "certified": report.certified,
            "caveats": list(report.caveats),
            "intersections": [report.sets["A1"], report.sets["A2"]],
        },
    }
    if cands is not None:
        doc["candidates"] = [str(c) for c in cands]
    return doc


def _json(x, indent: str = "\n") -> str:
    """The bytes of json.dumps(x, indent=2, sort_keys=True) for str, bool,
    list, tuple, str-keyed dict and ASet (written by _family_json), by
    joins, one recursive call per dict value or list item: json.dumps runs
    its C encoder only without indent.  Any other type, as a value or a
    key, raises TypeError (encode_basestring_ascii does for keys)."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        # keys are distinct, so sorting the items compares keys only
        body = [encode_basestring_ascii(k) + ": " + _json(v, inner)
                for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(body) + indent + "}"
    if isinstance(x, ASet):  # a namedtuple, so tested before tuple
        return _family_json(x, indent)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        body = [_json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(body) + indent + "]"
    raise TypeError(f"_json: cannot write {type(x).__name__}")


def _family_json(aset: ASet, indent: str) -> str:
    """_json of {"family", "l": q_list ascending, "elements"} at this indent.
    An element is {"value"}, with "factors" ([p, e] pairs) and any
    "cofactor" if nonzero and factored, written as one formatted string."""
    i1, i2, i3, i4, i5 = (indent + "  " * k for k in range(1, 6))
    pair = f'[{i5}"%d",{i5}"%d"{i4}]'
    elements = []
    for v, f in zip(aset.elements, aset.factorizations or [None] * len(aset.elements)):
        head = ""
        if v != 0 and f is not None:
            pairs = ("," + i4).join(pair % pe for pe in f.prime_powers)
            head = f'"factors": [{i4}{pairs}{i3}],{i3}' if pairs else f'"factors": [],{i3}'
            if f.cofactor is not None:
                head = f'"cofactor": "{_decimal(f.cofactor)}",{i3}' + head
        elements.append(f'{{{i3}{head}"value": "{_decimal(v)}"{i2}}}')
    rows = "[" + i2 + ("," + i2).join(elements) + i1 + "]" if elements else "[]"
    return ("{" + i1 + '"elements": ' + rows + "," + i1 + '"family": '
            + encode_basestring_ascii(aset.family) + "," + i1 + '"l": '
            + _json(_slist(aset.q_list), i1) + indent + "}")


def _emit(doc: dict, path: str | None) -> None:
    text = _json(doc) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every subcommand checks them, before any class data is computed
        check_max_factors(args.max_factors)
        check_mazur_bound(args.mazur_bound)
        check_s0_count(args.s0_count)
        budget = FactorBudget(trial_bound=args.trial_bound, rho_iterations=args.rho_iters)
        doc, code = _run(args, make_field(args.d), budget)
        # an unwritable --cache path exits 1 before the report is written,
        # so that such a request leaves none
        if args.cache:
            with open(args.cache, "a"):
                pass
        _emit(doc, args.json_path)
    except ClassNumberOne as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


def _run(args, ctx, budget) -> tuple[dict, int]:
    """The JSON report of one request and its exit code."""
    sub = args.subcommand
    doc = {"field": _field_doc(ctx)}
    if sub == "field":
        return doc, 0
    if sub == "classgroup":
        doc["forms"] = [[str(f.a), str(f.b), str(f.c)] for f in sorted(ctx.classes)]
        return doc, 0
    if sub == "s0":
        doc["s0"] = [
            {"l": str(q.l), "form": [str(q.form.a), str(q.form.b), str(q.form.c)],
             "class_order": str(form_order(ctx.D, q.form))}
            for q in enumerate_S0(ctx, args.s0_count)
        ]
        return doc, 0
    if sub == "mazur":
        doc["mazur"] = _mazur_doc(mazur_prime_set(ctx, args.mazur_bound))
        return doc, 0

    params = BoundParams(
        s0_count=args.s0_count,
        mazur_bound=args.mazur_bound,
        factor_budget=budget,
        S_override=_parse_S(args.S),
    )
    if sub == "sets":
        doc["families"] = _all_families(assemble_sets(ctx, params))
        return doc, 0

    report = assemble_bound(ctx, params)

    cands = candidate_discriminants(ctx, report, args.max_factors) if sub == "candidates" else None
    if sub == "verify":
        verify_claims(ctx, report.union, report)
    code = 3 if args.require_certified and not report.certified else 0
    return _report_doc(doc["field"], report, cands), code


def _all_families(report: FamilySets) -> list[ASet]:
    # as assemble_sets holds them: A1/A2 raw (their gcds are bound.intersections),
    # A3 factored
    pairs = zip(report.families["A1"], report.families["A2"])
    return [f for pair in pairs for f in pair] + list(report.families["A3"])


def _parse_S(spec: str | None):
    if spec is None:
        return None
    try:
        return tuple(int(x) for x in spec.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"bad --S specification {spec!r}")


if __name__ == "__main__":
    sys.exit(main())
