"""Trace recurrences for Weil numbers and generator powers; the three
subtracted-trace families and their certified prime supports."""

from dataclasses import dataclass, replace
from math import gcd, isqrt, prod

from .arith import FactorBudget, FactoredInteger, factor
from .quadfield import FieldContext, QuadInt, shortest_generator
from .classgroup import SplitPrime, form_power, prime_form


def _lucas(P: int, Q: int, n: int) -> tuple[int, int]:
    """(U_n, V_n) of the Lucas sequences of X^2 - P*X + Q, by a doubling
    ladder over the bits of n: U_2k = U_k*V_k, V_2k = V_k^2 - 2*Q^k, and
    U_k+1 = (P*U_k + V_k)/2, V_k+1 = (D*U_k + P*V_k)/2 with D = P^2 - 4Q."""
    D = P * P - 4 * Q
    u, v, qk = 0, 2, 1
    for bit in bin(n)[2:]:
        u, v, qk = u * v, v * v - 2 * qk, qk * qk
        if bit == "1":
            u, v, qk = (P * u + v) // 2, (D * u + P * v) // 2, qk * Q
    return u, v


def trace_power(t: int, n: int, e: int) -> int:
    """s_e = gamma^e + conj(gamma)^e for gamma + conj = t, gamma*conj = n:
    the Lucas sequence V_e(t, n)."""
    return _lucas(t, n, e)[1]


@dataclass(frozen=True)
class TraceSet:
    """Candidate Frobenius traces at the 24h-th power level: for each m with
    m^2 <= 4l, the trace of the 24h-th power of a root of X^2 + m*X + l."""

    l: int
    h: int
    entries: dict[int, int]


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
    nonzero ones, and the certified prime support.  An A3 family also keeps,
    for each element, an (l, m, h) it comes from: the element is
    V_24h(-m, l) - 2*l^12h, which prime_support factors through its parts."""

    family: str  # "A1" | "A2" | "A3"
    q_list: tuple[int, ...]
    shifts: tuple[int, ...]
    elements: tuple[int, ...]
    factorizations: tuple[FactoredInteger | None, ...] = ()
    support: frozenset[int] = frozenset()
    certified: bool = False
    lucas: tuple[tuple[int, int, int], ...] = ()


def _trace_differences(family: str, h: int, pairs: list[tuple[int, int]]) -> ASet:
    """The family {a - shift : a in trace_set(l, h)} over the (l, shift)
    pairs, with the first (l, m, h) that gives each element."""
    origin: dict[int, tuple[int, int, int]] = {}
    for l, shift in pairs:
        for m, a in trace_set(l, h).entries.items():
            origin.setdefault(a - shift, (l, m, h))
    elements = tuple(sorted(origin))
    return ASet(
        family=family,
        q_list=tuple(l for l, _ in pairs),
        shifts=tuple(shift for _, shift in pairs),
        elements=elements,
        lucas=tuple(origin[v] for v in elements) if family == "A3" else (),
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


def _lucas_parts(l: int, m: int, h: int) -> tuple[int, dict[int, int]]:
    """Delta = m^2 - 4l and the primitive parts Psi_d, d | 12h, d > 1, of
    U_12h(-m, l), so that V_24h(-m, l) - 2*l^12h = Delta * prod Psi_d^2.

    U_n is the product of Psi_d over d | n (Psi_1 = U_1 = 1), so Psi_d is
    the Moebius product of the U_e, e | d: U_d divided exactly by the
    Psi_e of its proper divisors.  Each prime of Psi_d divides d or is
    +-1 mod d (Carmichael 1913; Bilu-Hanrot-Voutier 2001)."""
    n = 12 * h
    psi: dict[int, int] = {}
    for d in range(2, n + 1):
        if n % d == 0:
            q, r = divmod(_lucas(-m, l, d)[0], prod(psi[e] for e in psi if d % e == 0))
            if r:
                raise AssertionError(f"Psi_{d} is not an integer")
            psi[d] = q
    return m * m - 4 * l, psi


def _factor_a3(v: int, l: int, m: int, h: int, budget: FactorBudget) -> FactoredInteger:
    """factor(v) for the A3 element v = V_24h(-m, l) - 2*l^12h, by factoring
    Delta once and each Psi_d, whose exponents count twice.  The cofactor
    is Delta's times the squares of the Psi_d's."""
    delta, psi = _lucas_parts(l, m, h)
    powers: dict[int, int] = {}
    cofactor = 1
    for part, twice in [(delta, 1), *((p, 2) for p in psi.values())]:
        f = factor(part, budget)
        for p, e in f.prime_powers:
            powers[p] = powers.get(p, 0) + twice * e
        if not f.complete:
            cofactor *= f.cofactor**twice
    merged = FactoredInteger(
        value=v,
        sign=-1 if v < 0 else 1,
        prime_powers=tuple(sorted(powers.items())),
        cofactor=cofactor if cofactor > 1 else None,
    )
    if merged.reconstruct() != v:
        raise AssertionError(f"A3 parts of ({l}, {m}, {h}) do not multiply back")
    return merged


def factor_cached(
    v: int,
    budget: FactorBudget,
    cache: dict[int, FactoredInteger] | None,
    lucas: tuple[int, int, int] | None = None,
) -> FactoredInteger:
    """factor() through an optional memo table; incomplete cached entries
    are re-attempted so a grown budget can still finish them.  An A3
    element with its (l, m, h) is factored through its Lucas parts."""
    if cache is not None:
        hit = cache.get(v)
        if hit is not None and hit.complete:
            return hit
    f = _factor_a3(v, *lucas, budget) if lucas else factor(v, budget)
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
    for v, lucas in zip(aset.elements, aset.lucas or [None] * len(aset.elements)):
        if v == 0:
            facs.append(None)
            continue
        f = factor_cached(v, budget, cache, lucas)
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
