"""Assembly of the finite prime superset for discriminants of quaternion
algebras whose Shimura curve can have a point over k, evidence checks
and candidate discriminants.  For every generating set S of the class
group, every such prime lies in the union of the seven COMPONENTS; only
mazur_primes is complete solely up to mazur_bound, the report's caveat."""

from collections import namedtuple
from itertools import combinations
from math import gcd, prod

from .arith import FactorBudget, is_prime, primes_up_to
from .quadfield import FieldContext, splitting_type
from .classgroup import SplitPrime, enumerate_S0, generates, principal_form
from .weilsets import a3_family, intersection_set, trace_families
from .mazur import is_in_mazur, mazur_prime_set

SMALL_PRIME_CAP = 23
MAX_FACTORS = 4


BoundParams = namedtuple("BoundParams", "s0_count mazur_bound factor_budget S_override",
                         defaults=(4, 10**6, FactorBudget(), None))

# families maps "A1", "A2" and "A3" to their raw families, and sets each name to
# one factored family: the A1/A2 gcds, the A3 family itself
FamilySets = namedtuple("FamilySets", "S s0_truncation families sets")

# components maps each component's name to its primes; mazur is a MazurResult
BoundReport = namedtuple("BoundReport", FamilySets._fields
                         + ("components", "union", "certified", "mazur", "caveats"))


def _support(key: str):
    return lambda ctx, fs, mz: fs.sets[key].support


def _in_every(key: str):
    """The ps dividing a nonzero element of every raw family under key; a prime divides
    one exactly when it divides their product, so the ps dividing gcd(prod(ps), products).
    It takes the whole products and shares no helper with intersection_set, so that
    verify re-derives the intersections independently of the code it checks."""
    def claims(ctx, ps, rep):
        g = gcd(prod(ps), *(prod(v for v in f.elements if v) for f in rep.families[key]))
        return {p for p in ps if g % p == 0}
    return claims


# One (name, primes, claims, factored) row per component, in claim order:
# primes from (ctx, FamilySets, MazurResult); claims picks the members of a set
# of primes from raw evidence alone; a factored row must agree only if certified.
COMPONENTS = (
    ("ram", lambda ctx, fs, mz: frozenset(ctx.ram_primes),
     lambda ctx, ps, rep: {p for p in ps if ctx.D % p == 0}, False),
    ("small", lambda ctx, fs, mz: frozenset(primes_up_to(SMALL_PRIME_CAP)),
     lambda ctx, ps, rep: {p for p in ps if p <= SMALL_PRIME_CAP}, False),
    ("a1_intersection", _support("A1"), _in_every("A1"), True),
    ("a2_intersection", _support("A2"), _in_every("A2"), True),
    ("a3_support", _support("A3"), _in_every("A3"), True),
    ("mazur_primes", lambda ctx, fs, mz: frozenset(mz.members),
     lambda ctx, ps, rep: {p for p in ps if p % 4 == 1 and p <= rep.mazur.bound
                           and is_in_mazur(ctx, p)}, False),
    ("l_of_S", lambda ctx, fs, mz: frozenset(q.l for q in fs.S),
     lambda ctx, ps, rep: {q.l for q in rep.S}.intersection(ps), False),
)


def assemble_sets(ctx: FieldContext, params: BoundParams = BoundParams()) -> FamilySets:
    """S0, S, the A1/A2 families and their intersections, and the A3
    support: everything but the Mazur search.  Raises ClassNumberOne, from
    enumerate_S0, when k has class number 1."""
    s0 = enumerate_S0(ctx, params.s0_count)
    if params.S_override is not None:
        S = _validated_override(ctx, params.S_override)
    else:
        S = list(ctx.generators)
    budget = params.factor_budget
    families = trace_families(ctx, s0)
    a3 = a3_family(ctx.h, [q.l for q in S], budget)
    families["A3"] = (a3._replace(factorizations=()),)
    sets = {"A1": intersection_set(families["A1"], budget),
            "A2": intersection_set(families["A2"], budget),
            "A3": a3}
    return FamilySets(S=S, s0_truncation=s0, families=families, sets=sets)


def assemble_bound(ctx: FieldContext, params: BoundParams = BoundParams()) -> BoundReport:
    """Compute every component of the containment and union them.  Raises
    ClassNumberOne, from enumerate_S0, when k has class number 1."""
    # the Mazur search checks its bound before any family is built
    mz = mazur_prime_set(ctx, params.mazur_bound)
    fs = assemble_sets(ctx, params)
    caveats = [f"mazur set truncated at bound {params.mazur_bound}"]

    certified = all(s.certified for s in fs.sets.values())
    if not certified:
        caveats.append("factor budget exhausted; unfactored cofactors listed")

    components = {name: primes(ctx, fs, mz) for name, primes, _, _ in COMPONENTS}
    union = frozenset().union(*components.values())
    return BoundReport(
        *fs,
        components=components,
        union=union,
        certified=certified,
        mazur=mz,
        caveats=caveats,
    )


def _validated_override(ctx: FieldContext, ls: tuple[int, ...]) -> list[SplitPrime]:
    out = []
    for l in ls:
        if l in (q.l for q in out):
            raise ValueError(f"S override: {l} listed twice")
        # the Kronecker symbol is multiplicative: a composite can look split
        if not is_prime(l):
            raise ValueError(f"S override: {l} is not a prime")
        if splitting_type(ctx, l) != "split":
            raise ValueError(f"S override: {l} does not split in k")
        q = SplitPrime.above(ctx, l)
        if q.form == principal_form(ctx.D):
            raise ValueError(f"S override: prime above {l} is principal")
        out.append(q)
    if not generates(ctx, {q.form for q in out}):
        raise ValueError("S override does not generate the class group")
    return out


def verify_claims(ctx: FieldContext, primes: frozenset, report: BoundReport) -> dict[str, set]:
    """Each row's name mapped to the primes it claims among `primes`; raises at
    the least prime, then first row, where a claim and the report disagree."""
    claimed = {name: claims(ctx, primes, report) for name, _, claims, _ in COMPONENTS}
    wrong = min(((p, i, name) for i, (name, _, _, factored) in enumerate(COMPONENTS)
                 if report.certified or not factored
                 for p in claimed[name] ^ (report.components[name] & primes)), default=None)
    if wrong:
        p, _, name = wrong
        raise RuntimeError(f"evidence mismatch for p={p} in {name}: re-derived "
                           f"{p in claimed[name]}, report {p in report.components[name]}")
    return claimed


def check_max_factors(max_factors: int) -> None:
    if max_factors < 2 or max_factors % 2 != 0:
        raise ValueError("max_factors must be an even integer >= 2")


def candidate_discriminants(
    ctx: FieldContext, report: BoundReport, max_factors: int = MAX_FACTORS
) -> list[int]:
    """Squarefree products of an even number of union primes such that every
    split factor is 1 mod 4 (membership in the restricted family) and at
    least one factor splits in k (so k does not split the algebra)."""
    check_max_factors(max_factors)
    usable = []
    for p in sorted(report.union):
        sp = splitting_type(ctx, p) == "split"
        if sp and p % 4 != 1:
            continue  # would violate the congruence condition outright
        usable.append((p, sp))
    out = []
    for r in range(2, max_factors + 1, 2):
        for combo in combinations(usable, r):
            if not any(sp for _, sp in combo):
                continue
            out.append(prod(p for p, _ in combo))
    return sorted(out)
