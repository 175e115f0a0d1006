"""Imaginary quadratic field arithmetic: integers, prime splitting, ideals,
and principal-ideal generators via two-dimensional lattice reduction."""

from dataclasses import dataclass
from math import gcd

from .arith import kronecker


def _squarefree(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


@dataclass
class FieldContext:
    """The field k = Q(sqrt(D)): fundamental discriminant, ramified primes,
    and (once computed) class number and group exponent."""

    D: int
    ram_primes: frozenset[int]
    class_number: int | None = None
    exponent_h: int | None = None

    @property
    def h(self) -> int:
        if self.exponent_h is None:
            raise ValueError("class-group exponent not computed yet")
        return self.exponent_h


def make_field(d_or_D: int) -> FieldContext:
    """Build the context for Q(sqrt(d)) from a squarefree d < 0 or a
    fundamental discriminant D < 0."""
    n = d_or_D
    if n >= 0:
        raise ValueError("not imaginary: input must be negative")
    if is_fundamental(n):
        D = n
    elif _squarefree(n):
        D = n if n % 4 == 1 else 4 * n
    else:
        raise ValueError(
            f"{n} is neither squarefree nor a fundamental discriminant"
        )
    ram = frozenset(p for p in _prime_divisors(abs(D)))
    return FieldContext(D=D, ram_primes=ram)


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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
        assert n4 % 4 == 0
        return n4 // 4

    def conj(self) -> "QuadInt":
        return QuadInt(self.x, -self.y, self.D)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.x * other, self.y * other, self.D)
        assert self.D == other.D
        x = (self.x * other.x + self.D * self.y * other.y) // 2
        y = (self.x * other.y + self.y * other.x) // 2
        return QuadInt(x, y, self.D)

    __rmul__ = __mul__

    def __add__(self, other):
        assert self.D == other.D
        return QuadInt(self.x + other.x, self.y + other.y, self.D)

    def __sub__(self, other):
        assert self.D == other.D
        return QuadInt(self.x - other.x, self.y - other.y, self.D)

    def __neg__(self):
        return QuadInt(-self.x, -self.y, self.D)

    def __repr__(self):
        return f"({self.x} + {self.y}*sqrt({self.D}))/2"


def quadint_pow(u: QuadInt, e: int) -> QuadInt:
    out = QuadInt(2, 0, u.D)
    base = u
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


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


def unit_ideal(ctx: FieldContext) -> IdealRep:
    b = ctx.D % 2
    return IdealRep(a=1, b=b, D=ctx.D)


def splitting_type(ctx: FieldContext, p: int) -> str:
    s = kronecker(ctx.D, p)
    if s == 0:
        return "ramified"
    return "split" if s == 1 else "inert"


def prime_ideal_above(ctx: FieldContext, p: int) -> IdealRep:
    """Degree-1 prime ideal (p, (b+sqrt(D))/2) with the smallest valid b."""
    st = splitting_type(ctx, p)
    if st == "inert":
        raise ValueError(f"{p} is inert in Q(sqrt({ctx.D})): no degree-1 prime")
    for b in range(ctx.D % 2, 2 * p, 2):
        if (b * b - ctx.D) % (4 * p) == 0:
            return IdealRep(a=p, b=b, D=ctx.D)
    raise AssertionError(f"no square root of {ctx.D} mod 4*{p}")


def _module_hnf(ctx: FieldContext, gens: list[QuadInt]) -> IdealRep:
    """Normalize a list of O_k-module generators (in (x, y) coordinates of
    (x + y*sqrt(D))/2) to an IdealRep via 2-column Hermite reduction."""
    vecs = [(u.x, u.y) for u in gens if (u.x, u.y) != (0, 0)]
    assert vecs
    # reduce to basis (alpha, 0), (beta, g) with g = gcd of y-components
    g = 0
    beta = 0
    for x, y in vecs:
        if y == 0:
            continue
        if g == 0:
            g, beta = abs(y), (x if y > 0 else -x)
        else:
            # extended gcd combine
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
            assert y % g == 0
        alpha = gcd(alpha, x)
    assert g > 0 and alpha > 0
    # lattice Z*(alpha,0) + Z*(beta,g); content is g, and g | alpha, g | beta
    assert alpha % g == 0 and alpha % 2 == 0
    assert beta % g == 0
    a = alpha // g // 2
    b = (-(beta // g)) % (2 * a)
    return IdealRep(a=a, b=b, D=ctx.D, content=g)


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


def ideal_mul(ctx: FieldContext, I: IdealRep, J: IdealRep) -> IdealRep:
    """Product ideal in normalized form."""
    e1, e2 = I.basis()
    f1, f2 = J.basis()
    gens = [e1 * f1, e1 * f2, e2 * f1, e2 * f2]
    return _module_hnf(ctx, gens)


def ideal_pow(ctx: FieldContext, I: IdealRep, n: int) -> IdealRep:
    if n < 1:
        raise ValueError("ideal_pow: n must be >= 1")
    result = None
    base = I
    while n:
        if n & 1:
            result = base if result is None else ideal_mul(ctx, result, base)
        n >>= 1
        if n:
            base = ideal_mul(ctx, base, base)
    return result


def shortest_generator(ctx: FieldContext, I: IdealRep):
    """Return a generator of I when principal, else None.

    Gauss-Lagrange reduction of the rank-2 lattice under the norm form; the
    first reduced basis vector realizes the lattice minimum, and I is
    principal exactly when that minimum equals the ideal norm.  The result
    is canonicalized to trace >= 0, and y > 0 when the trace is 0.
    """
    u, v = I.basis()
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
    if u.norm != I.norm:
        return None
    beta = u
    if beta.trace < 0 or (beta.trace == 0 and beta.y < 0):
        beta = -beta
    return beta


def principal_ideal(ctx: FieldContext, beta: QuadInt) -> IdealRep:
    """The ideal beta * O_k."""
    omega = QuadInt(ctx.D % 2, 1, ctx.D)
    return _module_hnf(ctx, [beta, beta * omega])
