"""Trace recurrences for Weil numbers and generator powers; the three
subtracted-trace families and their certified prime supports."""

from dataclasses import dataclass, replace
from math import gcd, isqrt, prod

from .arith import FactorBudget, FactoredInteger, factor
from .quadfield import FieldContext, QuadInt, shortest_generator
from .classgroup import SplitPrime, form_power, prime_form


def trace_power(t: int, n: int, e: int) -> int:
    """s_e = gamma^e + conj(gamma)^e for gamma + conj = t, gamma*conj = n.

    Linear recurrence s_0 = 2, s_1 = t, s_j = t*s_{j-1} - n*s_{j-2}.
    """
    if e == 0:
        return 2
    prev, cur = 2, t
    for _ in range(e - 1):
        prev, cur = cur, t * cur - n * prev
    return cur


@dataclass(frozen=True)
class TraceSet:
    """Candidate Frobenius traces at the 24h-th power level: for each m with
    m^2 <= 4l, the trace of the 24h-th power of a root of X^2 + m*X + l."""

    l: int
    h: int
    entries: dict[int, int]

    @property
    def weil_cap(self) -> int:
        return 2 * self.l ** (12 * self.h)


def trace_set(l: int, h: int) -> TraceSet:
    m_max = isqrt(4 * l)
    e = 24 * h
    entries = {m: trace_power(-m, l, e) for m in range(-m_max, m_max + 1)}
    return TraceSet(l=l, h=h, entries=entries)


def beta_for(ctx: FieldContext, q: SplitPrime) -> QuadInt:
    """Canonical generator of q^h, h the class-group exponent."""
    qh = form_power(ctx.D, prime_form(ctx.D, q.l), ctx.h)
    beta = shortest_generator(ctx.D, qh.a, qh.b)
    if beta is None:
        raise AssertionError("q^h must be principal when h is the group exponent")
    assert beta.norm == q.l**ctx.h
    return beta


@dataclass(frozen=True)
class ASet:
    """One subtracted-trace family: raw elements, factorizations of the
    nonzero ones, and the certified prime support."""

    family: str  # "A1" | "A2" | "A3"
    q_list: tuple[int, ...]
    shifts: tuple[int, ...]
    elements: tuple[int, ...]
    factorizations: tuple[FactoredInteger | None, ...] = ()
    support: frozenset[int] = frozenset()
    certified: bool = False


def _trace_differences(family: str, h: int, pairs: list[tuple[int, int]]) -> ASet:
    """The family {a - shift : a in trace_set(l, h)} over the (l, shift) pairs."""
    elements: set[int] = set()
    for l, shift in pairs:
        elements.update(a - shift for a in trace_set(l, h).entries.values())
    return ASet(
        family=family,
        q_list=tuple(l for l, _ in pairs),
        shifts=tuple(shift for _, shift in pairs),
        elements=tuple(sorted(elements)),
    )


def family_A1(ctx: FieldContext, q: SplitPrime) -> ASet:
    beta = beta_for(ctx, q)
    shift = trace_power(beta.trace, q.l**ctx.h, 24)
    return _trace_differences("A1", ctx.h, [(q.l, shift)])


def family_A2(ctx: FieldContext, q: SplitPrime) -> ASet:
    beta = beta_for(ctx, q)
    shift = q.l ** (8 * ctx.h) * trace_power(beta.trace, q.l**ctx.h, 8)
    return _trace_differences("A2", ctx.h, [(q.l, shift)])


def family_A3(ctx: FieldContext, S: list[SplitPrime]) -> ASet:
    if not S:
        raise ValueError("family_A3: S must be nonempty")
    return _trace_differences("A3", ctx.h, [(q.l, 2 * q.l ** (12 * ctx.h)) for q in S])


def factor_cached(
    v: int, budget: FactorBudget, cache: dict[int, FactoredInteger] | None
) -> FactoredInteger:
    """factor() through an optional memo table; incomplete cached entries
    are re-attempted so a grown budget can still finish them."""
    if cache is not None:
        hit = cache.get(v)
        if hit is not None and hit.complete:
            return hit
    f = factor(v, budget)
    if cache is not None:
        cache[v] = f
    return f


def prime_support(
    aset: ASet,
    budget: FactorBudget = FactorBudget(),
    cache: dict[int, FactoredInteger] | None = None,
) -> ASet:
    """Factor each nonzero element; support is the union of found primes,
    certified iff every factorization completed within budget."""
    facs: list[FactoredInteger | None] = []
    support: set[int] = set()
    certified = True
    for v in aset.elements:
        if v == 0:
            facs.append(None)
            continue
        f = factor_cached(v, budget, cache)
        facs.append(f)
        support.update(f.primes)
        if not f.complete:
            certified = False
    return replace(
        aset,
        factorizations=tuple(facs),
        support=frozenset(support),
        certified=certified,
    )


def intersection_set(
    members: list[ASet],
    budget: FactorBudget = FactorBudget(),
    cache: dict[int, FactoredInteger] | None = None,
) -> ASet:
    """The intersection of the members' prime supports, as the support of
    an ASet whose elements are gcds.  Any truncation of S0 yields a
    superset of the full (infinite) intersection.

    The support of a gcd is the intersection of the supports of its
    arguments.  With R the gcd over the later members of the product of
    their nonzero elements, the intersection is the union of supp(gcd(v, R))
    over the nonzero elements v of the first member, so only those gcds
    are factored.  A lone member has R = 0, so each v is factored itself.
    """
    if not members:
        raise ValueError("intersection_set: truncation must be nonempty")
    rest = 0
    for m in members[1:]:
        rest = gcd(rest, prod(v for v in m.elements if v != 0))
        if rest == 1:
            break
    gs = {gcd(v, rest) for v in members[0].elements if v != 0} - {1}
    aset = ASet(family=members[0].family,
                q_list=tuple(l for m in members for l in m.q_list),
                shifts=(), elements=tuple(sorted(gs)))
    return prime_support(aset, budget, cache)
