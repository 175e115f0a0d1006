"""Reference ideal arithmetic for the class-group tests: ring elements
(x + y*sqrt(D))/2, integral ideals of an imaginary quadratic order
multiplied by a two-column Hermite normal form of the four basis products,
principal-ideal generators by Gauss-Lagrange lattice reduction, and the
reduced forms of a discriminant by a search over every (a, b).  This is an
independent path to the products, generators and classes that `classgroup`
computes on forms, and is used only as the oracle those computations are
compared against."""

from dataclasses import dataclass
from math import gcd, isqrt

from quatbound.arith import kronecker
from quatbound.classgroup import QuadForm, reduce_form


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
    a_max = isqrt(-D // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a) != 0:
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            forms.append(QuadForm(a, b, c))
    return sorted(forms)
