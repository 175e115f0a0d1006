"""Imaginary quadratic field arithmetic: integers, prime splitting, and
principal-ideal generators via two-dimensional lattice reduction."""

from dataclasses import dataclass

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


def splitting_type(ctx: FieldContext, p: int) -> str:
    s = kronecker(ctx.D, p)
    if s == 0:
        return "ramified"
    return "split" if s == 1 else "inert"


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
