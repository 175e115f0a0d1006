"""The reference pipeline: every prime set of the containment rebuilt from
its definitions, on a path that shares no code with the program's.

Ring elements (x + y*sqrt(D))/2, integral ideals of an imaginary quadratic
order multiplied by a two-column Hermite normal form of the four basis
products, principal-ideal generators by Gauss-Lagrange lattice reduction,
and the reduced forms of a discriminant by a search over every (a, b).  On
these the class group: class orders and closures by repeated products, the
greedy generating set S, S0 and the exponent h.  Traces of powers by exact
powering in Z[gamma], each family by its shift, and each component's
membership of a prime p from its definition, with `v % p`.  From quatbound
it takes only kronecker, QuadForm and reduce_form; it is used only as the
oracle the program's computations are compared against."""

from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from itertools import islice
from math import gcd, isqrt, lcm

from quatbound.arith import kronecker
from quatbound.classgroup import QuadForm, reduce_form

SMALL = 23  # every prime p <= 23 is in the bound


def _same_field(u: "QuadInt", v: "QuadInt") -> None:
    if u.D != v.D:
        raise AssertionError(f"elements of D = {u.D} and D = {v.D} combined")


@dataclass(frozen=True)
class QuadInt:
    """(x + y*sqrt(D))/2 with x congruent to D*y mod 2, an element of O_k."""

    x: int
    y: int
    D: int

    def __post_init__(self):
        if (self.x - self.D * self.y) % 2 != 0:
            raise ValueError(f"({self.x} + {self.y}*sqrt({self.D}))/2 not in O_k")

    @property
    def trace(self) -> int:
        return self.x

    @property
    def norm(self) -> int:
        n4 = self.x * self.x - self.D * self.y * self.y
        if n4 % 4:
            raise AssertionError(f"{self} has a norm that is not an integer")
        return n4 // 4

    def conj(self) -> "QuadInt":
        return QuadInt(self.x, -self.y, self.D)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.x * other, self.y * other, self.D)
        _same_field(self, other)
        x = (self.x * other.x + self.D * self.y * other.y) // 2
        y = (self.x * other.y + self.y * other.x) // 2
        return QuadInt(x, y, self.D)

    __rmul__ = __mul__

    def __add__(self, other):
        _same_field(self, other)
        return QuadInt(self.x + other.x, self.y + other.y, self.D)

    def __sub__(self, other):
        _same_field(self, other)
        return QuadInt(self.x - other.x, self.y - other.y, self.D)

    def __neg__(self):
        return QuadInt(-self.x, -self.y, self.D)

    def __repr__(self):
        return f"({self.x} + {self.y}*sqrt({self.D}))/2"


def shortest_generator(D: int, a: int, b: int):
    """Return a generator of the ideal Z*a + Z*(-b + sqrt(D))/2 (the ideal
    of the form (a, b, c)) when principal, else None.

    Gauss-Lagrange reduction of the rank-2 lattice under the norm form; the
    first reduced basis vector realizes the lattice minimum, and the ideal
    is principal exactly when that minimum equals its norm a.  The result
    is canonicalized to trace >= 0, and y > 0 when the trace is 0.
    """
    u, v = QuadInt(2 * a, 0, D), QuadInt(-b, 1, D)
    # Gauss reduction: norm is positive definite on the lattice
    if u.norm > v.norm:
        u, v = v, u
    while True:
        # bilinear form value 2*B(u,v) = N(u+v) - N(u) - N(v)
        two_b = (u + v).norm - u.norm - v.norm
        # nearest integer to B/N(u) = two_b / (2*N(u))
        t = (two_b + u.norm) // (2 * u.norm)
        v = v - t * u
        if v.norm >= u.norm:
            break
        u, v = v, u
    if u.norm != a:
        return None
    beta = u
    if beta.trace < 0 or (beta.trace == 0 and beta.y < 0):
        beta = -beta
    return beta


@dataclass(frozen=True)
class IdealRep:
    """Integral ideal g * (Z*a + Z*(-b + sqrt(D))/2), normalized with
    0 <= b < 2a (classical form orientation).  Primitive ideals have
    content g = 1 and norm a; in general the norm is g^2 * a."""

    a: int
    b: int
    D: int
    content: int = 1

    def __post_init__(self):
        if self.a <= 0 or self.content <= 0:
            raise ValueError("ideal: a and content must be positive")
        if not (0 <= self.b < 2 * self.a):
            raise ValueError("ideal: b out of range [0, 2a)")
        if (self.b - self.D) % 2 != 0:
            raise ValueError("ideal: b must match D mod 2")
        if (self.b * self.b - self.D) % (4 * self.a) != 0:
            raise ValueError("ideal: b^2 must equal D mod 4a")

    @property
    def norm(self) -> int:
        return self.content * self.content * self.a

    def basis(self) -> tuple[QuadInt, QuadInt]:
        g = self.content
        return (
            QuadInt(2 * self.a * g, 0, self.D),
            QuadInt(-self.b * g, g, self.D),
        )

    def contains(self, u: QuadInt) -> bool:
        g = self.content
        if u.y % g or u.x % g:
            return False
        x, y = u.x // g, u.y // g
        # subtract y copies of (-b + sqrt(D))/2, remainder must be in Z*a
        return (x + y * self.b) % (2 * self.a) == 0


def prime_ideal_above(D: int, p: int) -> IdealRep:
    """Degree-1 prime ideal Z*p + Z*(-b + sqrt(D))/2 with the smallest valid b."""
    if kronecker(D, p) == -1:
        raise ValueError(f"{p} is inert in Q(sqrt({D})): no degree-1 prime")
    for b in range(D % 2, 2 * p, 2):
        if (b * b - D) % (4 * p) == 0:
            return IdealRep(a=p, b=b, D=D)
    raise AssertionError(f"no square root of {D} mod 4*{p}")


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    """(u, v) with u*a + v*b = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def module_hnf(D: int, gens: list[QuadInt]) -> IdealRep:
    """Normalize a list of O_k-module generators (in (x, y) coordinates of
    (x + y*sqrt(D))/2) to an IdealRep via 2-column Hermite reduction."""
    vecs = [(u.x, u.y) for u in gens if (u.x, u.y) != (0, 0)]
    if not vecs:
        raise AssertionError("module_hnf: every generator is 0")
    # reduce to basis (alpha, 0), (beta, g) with g = gcd of y-components
    g = 0
    beta = 0
    for x, y in vecs:
        if y == 0:
            continue
        if g == 0:
            g, beta = abs(y), (x if y > 0 else -x)
        else:
            old_g, old_beta = g, beta
            a0, b0 = _ext_gcd(old_g, y)
            g = old_g * a0 + y * b0
            beta = old_beta * a0 + x * b0
            if g < 0:
                g, beta = -g, -beta
    alpha = 0
    for x, y in vecs:
        if g:
            x = x - (y // g) * beta
            if y % g:
                raise AssertionError(f"y = {y} is not a multiple of the content {g}")
        alpha = gcd(alpha, x)
    if not (g > 0 and alpha > 0):
        raise AssertionError(f"module_hnf: g = {g} and alpha = {alpha} must be positive")
    # lattice Z*(alpha,0) + Z*(beta,g); content is g, and g | alpha, g | beta
    if alpha % g or alpha % 2:
        raise AssertionError(f"alpha = {alpha} is not an even multiple of g = {g}")
    if beta % g:
        raise AssertionError(f"beta = {beta} is not a multiple of g = {g}")
    a = alpha // g // 2
    b = (-(beta // g)) % (2 * a)
    return IdealRep(a=a, b=b, D=D, content=g)


def ideal_mul(I: IdealRep, J: IdealRep) -> IdealRep:
    e1, e2 = I.basis()
    f1, f2 = J.basis()
    return module_hnf(I.D, [e1 * f1, e1 * f2, e2 * f1, e2 * f2])


def ideal_pow(I: IdealRep, n: int) -> IdealRep:
    if n < 1:
        raise AssertionError(f"ideal_pow: exponent {n} < 1")
    result = None
    base = I
    while n:
        if n & 1:
            result = base if result is None else ideal_mul(result, base)
        n >>= 1
        if n:
            base = ideal_mul(base, base)
    return result


def principal_ideal(D: int, beta: QuadInt) -> IdealRep:
    """The ideal beta * O_k."""
    omega = QuadInt(D % 2, 1, D)
    return module_hnf(D, [beta, beta * omega])


def form_ideal(D: int, f: QuadForm) -> IdealRep:
    return IdealRep(a=f.a, b=f.b % (2 * f.a), D=D)


def ideal_class(I: IdealRep) -> QuadForm:
    """The reduced form of the class of I (content never changes the class)."""
    return reduce_form(I.a, I.b, (I.b * I.b - I.D) // (4 * I.a))


def reference_compose(D: int, f: QuadForm, g: QuadForm) -> QuadForm:
    return ideal_class(ideal_mul(form_ideal(D, f), form_ideal(D, g)))


def reference_reduced_forms(D: int) -> list[QuadForm]:
    """All reduced primitive forms of discriminant D < 0, one per class, by
    trying every (a, b) with a <= sqrt(|D|/3): O(|D|) steps."""
    forms = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            c, r = divmod(b * b - D, 4 * a)
            if r == 0 and (a < c or a == c and b >= 0) and gcd(a, b, c) == 1:
                forms.append(QuadForm(a, b, c))
    return sorted(forms)


@cache
def all_primes(bound: int) -> list[int]:
    """The primes up to bound by a sieve of Eratosthenes over all the
    integers: the reference for the program's one segmented sieve."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return [n for n in range(bound + 1) if sieve[n]]


def principal(D: int) -> QuadForm:
    """The reduced form of the class of O_k."""
    return ideal_class(IdealRep(a=1, b=D % 2, D=D))


def reference_order(D: int, f: QuadForm) -> int:
    """The order of the reduced form f's class, by repeated reference_compose."""
    ident = principal(D)
    order, cur = 1, f
    while cur != ident:
        cur = reference_compose(D, cur, f)
        order += 1
    return order


def reference_split_primes(D: int):
    """(l, reduced form, ideal) of the split non-principal primes by norm,
    each classified when a walk reaches it."""
    ident = principal(D)
    for l in all_primes(10**4):
        if kronecker(D, l) == 1:
            I = prime_ideal_above(D, l)
            if (f := ideal_class(I)) != ident:
                yield l, f, I


def reference_closure(D: int, classes) -> set[QuadForm]:
    """The subgroup the classes generate, by products until none is new."""
    seen = frontier = {principal(D)}
    while frontier:
        frontier = {reference_compose(D, f, g) for f in frontier for g in classes} - seen
        seen = seen | frontier
    return seen


def reference_generating_set(D: int) -> list[int]:
    """Greedy by norm: keep a prime iff its class is not yet in the reference
    closure of the classes kept, until that closure holds every class."""
    h_k = len(reference_reduced_forms(D))
    kept, H = {}, {principal(D)}
    for l, f, _ in reference_split_primes(D):
        if f not in H:
            kept[l] = f
            H = reference_closure(D, kept.values())
            if len(H) == h_k:
                return list(kept)
    raise AssertionError("reference S0 slice does not generate")


def ring_trace_oracle(t: int, n: int, e: int) -> int:
    """Trace of gamma^e by exact binary powering of (u, v) pairs in the
    commutative ring Z[gamma] with gamma^2 = t*gamma - n."""

    def mul(p, q):
        u1, v1 = p
        u2, v2 = q
        return (u1 * u2 - n * v1 * v2, u1 * v2 + u2 * v1 + t * v1 * v2)

    acc, base = (1, 0), (0, 1)  # gamma
    k = e
    while k:
        if k & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        k >>= 1
    u, v = acc
    return 2 * u + t * v  # gamma^e + conj = 2u + v*(gamma + conj)


def reference_traces(l: int, h: int) -> list[int]:
    """The traces of the 24h-th powers of the roots of X^2 + m*X + l, m^2 <= 4l."""
    return [ring_trace_oracle(-m, l, 24 * h) for m in range(-isqrt(4 * l), isqrt(4 * l) + 1)]


def in_mazur(N: int, split: list[int]) -> bool:
    """Whether no odd prime l < |N|/4 that splits in k, given ascending in
    split, splits in Q(sqrt(N)): a direct Legendre loop (symbols by
    exponentiation, no shared code path with kronecker)."""
    for l in split:
        if 4 * l >= abs(N):
            break
        if pow(N % l, (l - 1) // 2, l) == 1:
            return False
    return True


def in_every(families, p: int) -> bool:
    """Whether p divides a nonzero element of every family."""
    return all(any(v % p == 0 for v in f if v) for f in families)


def component_rules(D: int, families: dict, S, mazur_bound: int) -> dict:
    """Each component's rule for one prime p, by name: families maps "A1",
    "A2" and "A3" to their families' elements, and S lists S's primes."""
    split = [l for l in all_primes(mazur_bound // 4 + 1) if l > 2 and kronecker(D, l) == 1]
    return {
        "ram": lambda p: D % p == 0,
        "small": lambda p: p <= SMALL,
        "a1_intersection": lambda p: in_every(families["A1"], p),
        "a2_intersection": lambda p: in_every(families["A2"], p),
        "a3_support": lambda p: in_every(families["A3"], p),
        "mazur_primes": lambda p: p % 4 == 1 and p <= mazur_bound and in_mazur(p, split),
        "l_of_S": lambda p: p in S,
    }


S0Member = namedtuple("S0Member", "l form ideal power beta")
Reference = namedtuple("Reference", "forms orders h S s0 families components")


def reference_bound(D: int, s0_count: int, mazur_bound: int, E: int) -> Reference:
    """The reduced forms, their orders, h, S, the S0 members (each with its
    ideal q, q^h and q^h's generator beta), the families A1 = {a -
    Tr(beta^24)} and A2 = {a - l^8h*Tr(beta^8)} of each member and A3 =
    {a - 2*l^12h} over S, a running over the traces of l, and each
    component's primes up to E."""
    forms = reference_reduced_forms(D)
    orders = [reference_order(D, f) for f in forms]
    h = lcm(*orders)
    S = reference_generating_set(D)
    s0, families = [], {"A1": [], "A2": [], "A3": []}
    for l, f, I in islice(reference_split_primes(D), s0_count):
        power = ideal_pow(I, h)
        beta = shortest_generator(D, power.a, power.b)
        if power.content != 1 or beta is None or beta.norm != l**h:
            raise AssertionError(f"q^h for l = {l} has no generator of norm l^h")
        s0.append(S0Member(l, f, I, power, beta))
        for key, shift in (("A1", ring_trace_oracle(beta.x, l**h, 24)),
                           ("A2", l ** (8 * h) * ring_trace_oracle(beta.x, l**h, 8))):
            families[key].append(tuple(sorted({a - shift for a in reference_traces(l, h)})))
    families["A3"].append(tuple(sorted({a - 2 * l ** (12 * h)
                                        for l in S for a in reference_traces(l, h)})))
    rules = component_rules(D, families, S, mazur_bound)
    return Reference(forms, orders, h, S, s0, families,
                     {name: set(filter(rule, all_primes(E))) for name, rule in rules.items()})
