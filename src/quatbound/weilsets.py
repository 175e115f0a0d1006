"""Trace recurrences for Weil numbers and generator powers; the three
subtracted-trace families and their certified prime supports."""

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

from .arith import FactorBudget, FactoredInteger, factor
from .quadfield import FieldContext
from .classgroup import SplitPrime, form_power, principal_generator


def _lucas_v(Ps: Sequence[int], Q: int, n: int) -> list[int]:
    """V_n(P, Q) for each P of Ps, the Lucas sequence of X^2 - P*X + Q, by
    one Lucas chain (Montgomery 1992).  Over the bits of n's odd part it
    walks the pair (V_k, V_k+1): V_2k = V_k^2 - 2*Q^k and V_2k+1 =
    V_k*V_k+1 - P*Q^k; then each trailing zero bit of n doubles V_k alone.
    The powers Q^k are computed once, for every P, and Q^n is not."""
    if n == 0:
        return [2] * len(Ps)
    zeros = (n & -n).bit_length() - 1
    ladder = bin(n >> zeros)[3:]
    # Q^k before each step, ladder then tail
    qk, powers = Q, []
    for bit in (ladder + "0" * zeros)[:-1]:
        powers.append(qk)
        qk = qk * qk * Q if bit == "1" else qk * qk
    powers.append(qk)
    steps = [(bit, q, 2 * q * Q if bit == "1" else 2 * q) for bit, q in zip(ladder, powers)]
    tail = [2 * q for q in powers[len(ladder):]] if zeros else []
    out = []
    for P in Ps:
        v, w = P, P * P - 2 * Q  # V_1, V_2
        for bit, q, twice in steps:
            if bit == "1":
                v, w = v * w - P * q, w * w - twice
            else:
                v, w = v * v - twice, v * w - P * q
        for twice in tail:
            v = v * v - twice
        out.append(v)
    return out


def trace_power(t: int, n: int, e: int) -> int:
    """s_e = gamma^e + conj(gamma)^e for gamma + conj = t, gamma*conj = n:
    the Lucas sequence V_e(t, n)."""
    return _lucas_v([t], n, e)[0]


def trace_set(l: int, h: int) -> dict[int, int]:
    """Candidate Frobenius traces at the 24h-th power level: for each m with
    m^2 <= 4l, the trace of the 24h-th power of a root of X^2 + m*X + l."""
    m_max = isqrt(4 * l)
    # V_n(-P, Q) = (-1)^n V_n(P, Q) and n = 24h is even: one chain for every |m|
    traces = _lucas_v(range(m_max + 1), l, 24 * h)
    return {m: traces[abs(m)] for m in range(-m_max, m_max + 1)}


def beta_for(ctx: FieldContext, q: SplitPrime) -> tuple[int, int]:
    """Canonical generator (t + y*sqrt(D))/2 of q^h, h the class-group
    exponent, as the pair (t, y)."""
    qh = form_power(ctx.D, q.ideal, ctx.h)
    beta = principal_generator(qh)
    if beta is None:
        raise AssertionError("q^h must be principal when h is the group exponent")
    t, y = beta
    if t * t - ctx.D * y * y != 4 * q.l**ctx.h:
        raise AssertionError(f"the generator of q^h for l = {q.l} has the wrong norm")
    return beta


class ASet(namedtuple("ASet", "family q_list elements factorizations",
                      defaults=((),))):
    """One subtracted-trace family: raw elements, the factorizations of the
    nonzero ones once prime_support has run, and the prime support and its
    certification, read off the factorizations.  family is "A1", "A2" or
    "A3"."""

    __slots__ = ()

    @property
    def support(self) -> frozenset[int]:
        return frozenset(p for f in self.factorizations if f is not None
                         for p in f.primes)

    @property
    def certified(self) -> bool:
        """Every nonzero element has a complete factorization."""
        facs = self.factorizations or (None,) * len(self.elements)
        return all(f is not None and f.complete
                   for v, f in zip(self.elements, facs) if v != 0)


def _trace_differences(family: str, triples: list[tuple[int, dict[int, int], int]]) -> ASet:
    """The family {a - shift : a in traces} over the (l, traces, shift)
    triples, traces = trace_set(l, h)."""
    return ASet(family=family, q_list=tuple(l for l, _, _ in triples),
                elements=tuple(sorted({a - shift for _, traces, shift in triples
                                       for a in traces.values()})))


def trace_families(ctx: FieldContext, s0: list[SplitPrime]) -> dict[str, tuple[ASet, ...]]:
    """The raw A1 and A2 families by name, one of each per S0 member q, from
    one trace set per l of S0 shifted by the traces of beta^24 and
    l^8h*beta^8 for one beta of q^h.  A3 depends on the field only through
    S and h, and a3_family builds it."""
    h = ctx.h
    traces = {l: trace_set(l, h) for l in {q.l for q in s0}}
    # V_8 = V_8(t, l^h) and l^8h per member: A2's shift is l^8h*V_8, and
    # A1's is V_24 = V_3(V_8, l^8h) = V_8*(V_8^2 - 3*l^8h)
    shifts = []
    for q in s0:
        v8, q8 = trace_power(beta_for(ctx, q)[0], q.l**h, 8), q.l ** (8 * h)
        shifts.append((q.l, v8 * (v8 * v8 - 3 * q8), q8 * v8))
    return {
        "A1": tuple(_trace_differences("A1", [(l, traces[l], a1)]) for l, a1, _ in shifts),
        "A2": tuple(_trace_differences("A2", [(l, traces[l], a2)]) for l, _, a2 in shifts),
    }


@lru_cache(maxsize=256)
def _a3_part(l: int, h: int, budget: FactorBudget) -> ASet:
    """The A3 family of the one prime l at exponent h, factored within
    budget.  Each nonzero element v = V_24h(-m, l) - 2*l^12h is factored by
    _factor_a3 through the first m that gives it in trace_set's order,
    from m = -m_max: a value shared by several m (roots a unit of Q(i) or
    Q(sqrt(-3)) apart, which the 24h-th power kills) goes through its
    largest |m|, whose Lucas parts decide the primes listed on a small
    budget.  A3 depends on the field only through S's primes and h, so a
    part is kept for the whole process under (l, h, budget), never D: the
    budget decides every cofactor, so it is part of the key.  A pass over
    the 902 fundamental D in [-3000, -3] with h_k > 1 uses 1,329 parts, 212
    of them distinct, which hold 1.25 MB at the default budget (0.06 MB of
    it the elements); taken in order, 256 parts hit as often as an
    unbounded memo (84%), 128 hit 79%.  The ASet and its FactoredIntegers
    are tuples, so no caller can change a kept part."""
    shift = 2 * l ** (12 * h)
    first: dict[int, int] = {}
    for m, a in trace_set(l, h).items():
        first.setdefault(a - shift, m)
    elements = tuple(sorted(first))
    return ASet(family="A3", q_list=(l,), elements=elements, factorizations=tuple(
        None if v == 0 else _factor_a3(v, l, first[v], h, budget) for v in elements))


def a3_family(h: int, ls: list[int], budget: FactorBudget = FactorBudget()) -> ASet:
    """The A3 family over the primes ls of S, shifted by 2*l^12h and factored
    within budget: the union of the primes' parts, merged in ls order.  A
    part depends on (l, h, budget) alone, never on D, and _a3_part keeps
    the last 256 for the whole process.  A value already present keeps its
    first factorization: the value comes from the first l of ls that gives
    it, through the first m of that l's part.  An empty S would leave A3
    empty: it is refused."""
    if not ls:
        raise ValueError("a3_family: S must be nonempty")
    kept: dict[int, FactoredInteger | None] = {}
    for l in ls:
        part = _a3_part(l, h, budget)
        for v, f in zip(part.elements, part.factorizations):
            kept.setdefault(v, f)
    elements = tuple(sorted(kept))
    return ASet(family="A3", q_list=tuple(ls), elements=elements,
                factorizations=tuple(kept[v] for v in elements))


def _lucas_parts(l: int, m: int, h: int) -> tuple[int, dict[int, int]]:
    """Delta = m^2 - 4l and the primitive parts Psi_d, d | 12h, d > 1, of
    U_12h(-m, l), so that V_24h(-m, l) - 2*l^12h = Delta * prod Psi_d^2.

    U_n is the product of Psi_d over d | n (Psi_1 = U_1 = 1), so Psi_d is
    the Moebius product of the U_e, e | d: U_d divided exactly by the
    Psi_e of its proper divisors.  For a non-degenerate sequence with
    gcd(P, Q) = 1, each prime p of Psi_d that does not divide d has rank of
    apparition d, so d | p - (D/p), D = P^2 - 4Q (Carmichael 1913;
    Bilu-Hanrot-Voutier 2001, section 2): _factor_a3 splits Psi_d by the
    torus run over D."""
    n = 12 * h
    psi: dict[int, int] = {}
    for d in range(2, n + 1):
        if n % d == 0:
            # U_d = (2*V_d+1 - P*V_d)/(P^2 - 4Q), P = -m: exact, and
            # m^2 != 4l as l is prime
            v_d, v_d1 = _lucas_v([-m], l, d)[0], _lucas_v([-m], l, d + 1)[0]
            u_d = (2 * v_d1 + m * v_d) // (m * m - 4 * l)
            q, r = divmod(u_d, prod(psi[e] for e in psi if d % e == 0))
            if r:
                raise AssertionError(f"Psi_{d} is not an integer")
            psi[d] = q
    return m * m - 4 * l, psi


def _factor_a3(v: int, l: int, m: int, h: int, budget: FactorBudget) -> FactoredInteger:
    """The A3 element v = V_24h(-m, l) - 2*l^12h factored by factoring Delta
    once and each Psi_d, whose exponents count twice: factor(v) whenever
    that is complete.  The cofactor is Delta's times the squares of the
    Psi_d's.

    Each part is divided by every trial prime, and each Psi_d is split by
    the torus run over (Delta, l), aimed by Carmichael's theorem
    (_lucas_parts).  The theorem's hypotheses hold for every v != 0, with
    P = -m and Q = l.  v is (alpha^12h - beta^12h)^2, and a root of unity
    alpha/beta of the imaginary quadratic field has order 1, 2, 3, 4 or 6,
    which divides 12h: so v != 0 makes the sequence non-degenerate.  l is
    prime and m^2 <= 4l, so l | m only for m = 0 and (l, |m|) = (2, 2),
    (3, 3), all degenerate: gcd(l, m) = 1, which is checked."""
    if gcd(l, m) != 1:
        raise AssertionError(f"({l}, {m}) gives a degenerate sequence and the element 0")
    delta, psi = _lucas_parts(l, m, h)
    powers: dict[int, int] = {}
    cofactor = 1
    parts = [(factor(delta, budget), 1),
             *((factor(p, budget, (delta, l)), 2) for p in psi.values())]
    for f, twice in parts:
        for p, e in f.prime_powers:
            powers[p] = powers.get(p, 0) + twice * e
        if not f.complete:
            cofactor *= f.cofactor**twice
    merged = FactoredInteger(value=v, prime_powers=tuple(sorted(powers.items())),
                             cofactor=cofactor if cofactor > 1 else None)
    if merged.reconstruct() != v:
        raise AssertionError(f"A3 parts of ({l}, {m}, {h}) do not multiply back")
    return merged


def prime_support(aset: ASet, budget: FactorBudget = FactorBudget()) -> ASet:
    """The family with each nonzero element factored within budget."""
    return aset._replace(factorizations=tuple(
        None if v == 0 else factor(v, budget) for v in aset.elements))


def intersection_set(members: list[ASet], budget: FactorBudget = FactorBudget()) -> ASet:
    """The intersection of the members' prime supports, as the support of
    an ASet whose elements are gcds.  Any truncation of S0 yields a
    superset of the full (infinite) intersection.

    The support of a gcd is the intersection of the supports of its
    arguments, and a prime divides a nonzero element of a member exactly
    when it divides P_i, the product of the member's nonzero elements.  So
    the intersection is the union of supp(gcd(v, P_2, P_3, ...)) over the
    nonzero elements v of the first member, and only those gcds are
    factored.  They are built modulo the small gcds, never as products of
    the third and later members: g_v = gcd(|v|, P_2), then g = lcm of the
    g_v is reduced by each later member, g <- gcd(g, P_i mod g) with P_i
    mod g the product of its elements mod g, until g = 1.  As g_v divides
    the lcm, gcd(g_v, g) = gcd(g_v, P_3, ...) = gcd(v, P_2, P_3, ...).  A
    lone member leaves each |v| itself.
    """
    if not members:
        raise ValueError("intersection_set: truncation must be nonempty")
    gs = [abs(v) for v in members[0].elements if v != 0]
    if len(members) > 1:
        p1 = prod(w for w in members[1].elements if w != 0)
        gs = [gcd(v, p1) for v in gs]
        g = lcm(*gs)
        for m in members[2:]:
            if g == 1:
                break
            r = 1
            for w in m.elements:
                if w != 0:
                    r = r * (w % g) % g
            g = gcd(g, r)
        gs = [gcd(v, g) for v in gs]
    aset = ASet(family=members[0].family,
                q_list=tuple(l for m in members for l in m.q_list),
                elements=tuple(sorted(set(gs) - {1})))
    return prime_support(aset, budget)
