"""Command-line frontend: JSON reports, factorization cache, exit codes.

Exit codes: 0 success, 1 usage or domain error, 2 class number 1 (nothing
to bound), 3 --require-certified set but some support was not fully
factored.
"""

import argparse
import json
import os
import sys
import tempfile

from .arith import FactorBudget, FactoredInteger, prime_status
from .quadfield import FieldContext, make_field
from .classgroup import enumerate_S0, fill_class_data, reduced_forms
from .mazur import mazur_prime_set
from .bound import BoundParams, BoundReport, assemble_bound, candidate_discriminants, verify_prime_membership

SUBCOMMANDS = ("field", "classgroup", "s0", "sets", "mazur", "bound", "candidates", "verify")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit 1: exit 2 means class
    number 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="quatbound",
        description="Finite prime superset for quaternion discriminants whose "
        "Shimura curve can acquire a point over an imaginary quadratic field.",
    )
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--d", type=int, required=True,
                    help="squarefree d < 0 or fundamental discriminant")
    ap.add_argument("--s0-count", type=int, default=4)
    ap.add_argument("--mazur-bound", type=int, default=10**6)
    ap.add_argument("--trial-bound", type=int, default=10**6)
    ap.add_argument("--rho-iters", type=int, default=10**7)
    # factoring has no wall-clock cap; the flag is kept, accepting only 0
    # and read by nothing, because the benchmark workloads still pass 0
    ap.add_argument("--time-per-int-ms", type=int, choices=(0,), default=0,
                    help=argparse.SUPPRESS)
    ap.add_argument("--cache", type=str, default=None)
    ap.add_argument("--require-certified", action="store_true")
    ap.add_argument("--S", type=str, default=None,
                    help="comma-separated override for the generating primes")
    ap.add_argument("--json", dest="json_path", type=str, default=None,
                    help="write the JSON report here instead of stdout")
    ap.add_argument("--max-factors", type=int, default=4,
                    help="candidates: largest (even) number of prime factors")
    return ap


# ---------------------------------------------------------------------------
# cache file format: `<value>=<p1>^<e1>*<p2>^<e2>[*...][*C<cofactor>]`

def cache_load(path: str) -> dict[int, FactoredInteger]:
    """Read a cache file.  Every entry must multiply back and list its
    primes in strictly ascending order, and every listed prime must be
    proven prime, not composite nor only BPSW-probable (each distinct
    prime is tested once)."""
    table: dict[int, FactoredInteger] = {}
    proven: set[int] = set()
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value, fac = _parse_cache_line(line)
                for p in fac.primes:
                    if p not in proven:
                        status = prime_status(p)
                        if status != "prime":
                            raise ValueError(f"listed prime {p} is {status}")
                        proven.add(p)
            except ValueError as e:
                raise ValueError(f"cache parse error at line {lineno}: {e}") from None
            table[value] = fac
    return table


def _parse_cache_line(line: str) -> tuple[int, FactoredInteger]:
    if "=" not in line:
        raise ValueError("missing '='")
    lhs, rhs = line.split("=", 1)
    try:
        value = int(lhs)
    except ValueError:
        raise ValueError(f"bad value {lhs!r}")
    powers = []
    cofactor = None
    last = 0
    for part in rhs.split("*") if rhs else []:
        if part.startswith("C"):
            cofactor = int(part[1:])
            continue
        if "^" in part:
            p, e = part.split("^", 1)
            p, e = int(p), int(e)
        else:
            p, e = int(part), 1
        if e < 1:
            raise ValueError(f"exponent {e} of {p} below 1")
        # the report prints the primes as listed, so they must be in the
        # order factor() gives them
        if p <= last:
            raise ValueError(f"prime {p} after {last}: primes not strictly ascending")
        last = p
        powers.append((p, e))
    fac = FactoredInteger(
        value=value,
        sign=-1 if value < 0 else 1,
        prime_powers=tuple(powers),
        cofactor=cofactor,
    )
    if fac.reconstruct() != value:
        raise ValueError(f"entry for {value} does not multiply back")
    return value, fac


def cache_store(path: str, table: dict[int, FactoredInteger]) -> None:
    lines = []
    for value in sorted(table):
        f = table[value]
        parts = [f"{p}^{e}" for p, e in f.prime_powers]
        if f.cofactor is not None:
            parts.append(f"C{f.cofactor}")
        lines.append(f"{value}={'*'.join(parts)}")
    payload = "\n".join(lines) + ("\n" if lines else "")
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".cache-")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# JSON emission: every integer as a decimal string, every set ascending

def _s(n: int) -> str:
    return str(n)


def _slist(xs) -> list[str]:
    return [str(x) for x in sorted(xs)]


def _field_doc(ctx: FieldContext) -> dict:
    return {
        "D": _s(ctx.D),
        "ram": _slist(ctx.ram_primes),
        "h_k": _s(ctx.class_number),
        "h": _s(ctx.exponent_h),
    }


def _fac_doc(f: FactoredInteger | None) -> dict:
    if f is None:
        return {"factors": [], "zero": True}
    doc = {"factors": [[_s(p), _s(e)] for p, e in f.prime_powers]}
    if f.cofactor is not None:
        doc["cofactor"] = _s(f.cofactor)
    return doc


def _family_doc(aset) -> dict:
    elements = []
    facs = aset.factorizations or (None,) * len(aset.elements)
    for v, f in zip(aset.elements, facs):
        entry = {"value": _s(v)}
        if v != 0 and f is not None:
            entry.update(_fac_doc(f))
        elements.append(entry)
    return {
        "family": aset.family,
        "l": _slist(aset.q_list),
        "elements": elements,
    }


def _report_doc(ctx, report: BoundReport, families: list[dict], cands) -> dict:
    mz = report.mazur
    doc = {
        "field": _field_doc(ctx),
        "S": _slist(q.l for q in report.S),
        "s0_truncation": [_s(q.l) for q in report.s0_truncation],
        "families": families,
        "mazur": {"bound": _s(mz.bound), "primes": _slist(mz.members)},
        "bound": {
            "components": {k: _slist(v) for k, v in sorted(report.components.items())},
            "union": _slist(report.union),
            "certified": report.certified,
            "caveats": list(report.caveats),
            "intersections": [_family_doc(report.a1_set), _family_doc(report.a2_set)],
        },
    }
    if cands is not None:
        doc["candidates"] = [_s(c) for c in cands]
    return doc


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cache = {}
    if args.cache and os.path.exists(args.cache):
        try:
            cache = cache_load(args.cache)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    try:
        budget = FactorBudget(trial_bound=args.trial_bound, rho_iterations=args.rho_iters)
        ctx = make_field(args.d)
        fill_class_data(ctx)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    loaded = dict(cache)
    try:
        code = _run(args, ctx, budget, cache)
    except ValueError as e:
        msg = str(e)
        if "class number is 1" in msg:
            print(f"error: {msg}", file=sys.stderr)
            return 2
        print(f"error: {msg}", file=sys.stderr)
        return 1
    if args.cache and cache != loaded:
        cache_store(args.cache, cache)
    return code


def _run(args, ctx, budget, cache) -> int:
    sub = args.subcommand
    if sub == "field":
        _emit({"field": _field_doc(ctx)}, args.json_path)
        return 0
    if sub == "classgroup":
        forms = reduced_forms(ctx.D)
        doc = {
            "field": _field_doc(ctx),
            "forms": [[_s(f.a), _s(f.b), _s(f.c)] for f in forms],
        }
        _emit(doc, args.json_path)
        return 0
    if sub == "s0":
        s0 = enumerate_S0(ctx, args.s0_count)
        doc = {
            "field": _field_doc(ctx),
            "s0": [
                {"l": _s(q.l), "form": [_s(q.form.a), _s(q.form.b), _s(q.form.c)],
                 "class_order": _s(q.class_order)}
                for q in s0
            ],
        }
        _emit(doc, args.json_path)
        return 0
    if sub == "mazur":
        mz = mazur_prime_set(ctx, args.mazur_bound)
        doc = {
            "field": _field_doc(ctx),
            "mazur": {"bound": _s(mz.bound), "primes": _slist(mz.members)},
        }
        _emit(doc, args.json_path)
        return 0

    params = BoundParams(
        s0_count=args.s0_count,
        mazur_bound=args.mazur_bound,
        factor_budget=budget,
        S_override=_parse_S(args.S),
        cache=cache,
    )
    report = assemble_bound(ctx, params)

    if sub == "sets":
        families = _all_families(report)
        doc = {"field": _field_doc(ctx), "families": families}
        _emit(doc, args.json_path)
        return 0

    cands = None
    if sub == "candidates":
        cands = candidate_discriminants(ctx, report, args.max_factors)
    if sub == "verify":
        for p in sorted(report.union):
            verify_prime_membership(ctx, p, report)
    families = _all_families(report)
    _emit(_report_doc(ctx, report, families, cands), args.json_path)
    if args.require_certified and not report.certified:
        return 3
    return 0


def _all_families(report: BoundReport) -> list[dict]:
    # A1/A2 families are emitted raw; their factored gcds are listed under
    # bound.intersections
    families = []
    for a1, a2 in zip(report.a1_families, report.a2_families):
        families += [_family_doc(a1), _family_doc(a2)]
    families.append(_family_doc(report.a3_set))
    return families


def _parse_S(spec: str | None):
    if spec is None:
        return None
    try:
        return tuple(int(x) for x in spec.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"bad --S specification {spec!r}")


if __name__ == "__main__":
    sys.exit(main())
