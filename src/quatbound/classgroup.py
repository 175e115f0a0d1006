"""Class group of an imaginary quadratic field via reduced binary quadratic
forms: Dirichlet composition, form powers, class number, exponent, and the
split-prime sets feeding the trace families.  A form (a, b, c) stands for
the ideal Z*a + Z*(-b + sqrt(D))/2."""

from dataclasses import dataclass
from itertools import islice
from math import gcd, isqrt, lcm

from .arith import kronecker
from .quadfield import FieldContext, split_primes


@dataclass(frozen=True, order=True)
class QuadForm:
    """Primitive positive-definite binary quadratic form a*x^2 + b*xy + c*y^2."""

    a: int
    b: int
    c: int


@dataclass(frozen=True)
class SplitPrime:
    """A split degree-1 prime of k: its norm l, the reduced form of its
    class and that class's order.  The S0 members are the non-principal
    ones (class_order > 1)."""

    l: int
    form: QuadForm
    class_order: int

    @classmethod
    def above(cls, D: int, l: int) -> "SplitPrime":
        f = prime_form(D, l)
        f = reduce_form(f.a, f.b, f.c)
        return cls(l=l, form=f, class_order=form_order(D, f))


def reduce_form(a: int, b: int, c: int) -> QuadForm:
    """Standard reduction loop for positive-definite forms."""
    D = b * b - 4 * a * c
    while True:
        if not -a < b <= a:
            # normalize b into (-a, a]
            b = a - (a - b) % (2 * a)
            c = (b * b - D) // (4 * a)
        if a < c or (a == c and b >= 0):
            return QuadForm(a, b, c)
        a, b, c = c, -b, a


def principal_form(D: int) -> QuadForm:
    if D % 4 == 0:
        return QuadForm(1, 0, -D // 4)
    return QuadForm(1, 1, (1 - D) // 4)


def reduced_forms(D: int) -> list[QuadForm]:
    """All reduced primitive forms of discriminant D < 0, one per class."""
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


def class_number(D: int) -> int:
    return len(reduced_forms(D))


def prime_form(D: int, l: int) -> QuadForm:
    """The form (l, b, c) of the degree-1 prime Z*l + Z*(-b + sqrt(D))/2
    above l, with the smallest valid b >= 0."""
    if kronecker(D, l) == -1:
        raise ValueError(f"{l} is inert in Q(sqrt({D})): no degree-1 prime")
    for b in range(D % 2, 2 * l, 2):
        if (b * b - D) % (4 * l) == 0:
            return QuadForm(l, b, (b * b - D) // (4 * l))
    raise AssertionError(f"no square root of {D} mod 4*{l}")


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with u*x + v*y = g = gcd(x, y) >= 0."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return (x, u0, v0) if x >= 0 else (-x, -u0, -v0)


def _dirichlet(D: int, f: QuadForm, g: QuadForm) -> QuadForm:
    """Dirichlet composition, unreduced, with b in [0, 2a) (Cohen, GTM 138,
    Lemma 5.4.5): e = gcd(f.a, g.a, s) = u*f.a + v*g.a + w*s for
    s = (f.b + g.b)/2, and the result is the form of the ideal product
    divided by its content e."""
    s = (f.b + g.b) // 2
    d, _, y = _xgcd(f.a, g.a)
    e, z, w = _xgcd(d, s)
    v = z * y
    a = f.a * g.a // (e * e)
    b = (g.b + 2 * (g.a // e) * (v * (s - g.b) - w * g.c)) % (2 * a)
    return QuadForm(a, b, (b * b - D) // (4 * a))


def compose(D: int, f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition: the reduced form of the class of f*g."""
    h = _dirichlet(D, f, g)
    return reduce_form(h.a, h.b, h.c)


def form_power(D: int, f: QuadForm, n: int) -> QuadForm:
    """f^n (n >= 1) by square-and-multiply over unreduced Dirichlet
    composition.  For the form (l, b, c) of a split prime q the result is
    the form of the ideal q^n, with a = l^n: every step composes two powers
    of q, whose b agree mod l and are prime to l, so e = 1."""
    if n < 1:
        raise ValueError("form_power: n must be >= 1")
    result = None
    while True:
        if n & 1:
            result = f if result is None else _dirichlet(D, result, f)
        n >>= 1
        if not n:
            return result
        f = _dirichlet(D, f, f)


def form_inverse(f: QuadForm) -> QuadForm:
    return reduce_form(f.a, -f.b, f.c)


def form_order(D: int, f: QuadForm) -> int:
    ident = principal_form(D)
    cur = reduce_form(f.a, f.b, f.c)
    n = 1
    while cur != ident:
        cur = compose(D, cur, f)
        n += 1
        if n > 10**6:
            raise AssertionError("form order runaway")
    return n


def exponent(D: int) -> int:
    """Largest order of a class group element: the lcm of the orders of the
    forms that enlarge the subgroup grown from the reduced forms, which
    generate the (abelian) group."""
    forms = reduced_forms(D)
    H = {principal_form(D)}
    orders = [1]
    for f in forms:
        if len(H) == len(forms):
            break
        if f not in H:
            H = _extend(D, H, f)
            orders.append(form_order(D, f))
    return lcm(*orders)


def fill_class_data(ctx: FieldContext) -> FieldContext:
    """Populate class_number and exponent_h on the context."""
    ctx.class_number = class_number(ctx.D)
    ctx.exponent_h = exponent(ctx.D)
    return ctx


def enumerate_S0(ctx: FieldContext, count: int) -> list[SplitPrime]:
    """The first `count` split non-principal degree-1 primes, by norm."""
    if ctx.class_number is None:
        fill_class_data(ctx)
    if ctx.class_number == 1:
        raise ValueError("S0 is empty: class number is 1")
    return list(islice(_split_primes(ctx), count))


def _split_primes(ctx: FieldContext):
    """The split non-principal degree-1 primes of k, by norm, without end."""
    for l in split_primes(ctx):
        q = SplitPrime.above(ctx.D, l)
        if q.class_order > 1:
            yield q


def _extend(D: int, H: set[QuadForm], f: QuadForm) -> set[QuadForm]:
    """The subgroup <H, f>, for a subgroup H given by its reduced forms: the
    union of the cosets H*f^i up to the first power f^i that lies in H."""
    out = set(H)
    p = reduce_form(f.a, f.b, f.c)
    while p not in H:
        out.update(compose(D, x, p) for x in H)
        p = compose(D, p, f)
    return out


def subgroup_closure(D: int, classes: set[QuadForm]) -> set[QuadForm]:
    """The subgroup generated by the given classes."""
    H = {principal_form(D)}
    for f in classes:
        H = _extend(D, H, f)
    return H


def generates(D: int, classes: set[QuadForm]) -> bool:
    return len(subgroup_closure(D, classes)) == class_number(D)


def choose_S(ctx: FieldContext) -> list[SplitPrime]:
    """Greedy-minimal generating subset: walk the split non-principal primes
    by norm, keep a prime iff its class is not yet in the generated
    subgroup, stop once the whole group is hit."""
    if ctx.class_number is None:
        fill_class_data(ctx)
    if ctx.class_number == 1:
        raise ValueError("class number is 1: no generating set needed")
    H = {principal_form(ctx.D)}
    chosen: list[SplitPrime] = []
    for q in _split_primes(ctx):
        if q.form not in H:
            H = _extend(ctx.D, H, q.form)
            chosen.append(q)
            if len(H) == ctx.class_number:
                return chosen
