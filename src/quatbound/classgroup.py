"""Class group of an imaginary quadratic field via reduced binary quadratic
forms: class number, exponent, principality tests, and the split-prime sets
feeding the trace families."""

from dataclasses import dataclass
from math import gcd, isqrt, lcm

from .quadfield import (
    FieldContext,
    IdealRep,
    ideal_mul,
    prime_ideal_above,
    splitting_type,
)
from .arith import primes_up_to, is_prime

S0_SCAN_LIMIT = 10**6  # primes scanned before giving up on S0 (must not trigger)


@dataclass(frozen=True, order=True)
class QuadForm:
    """Primitive positive-definite binary quadratic form a*x^2 + b*xy + c*y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        if not (abs(self.b) <= self.a <= self.c):
            return False
        if self.b < 0 and (abs(self.b) == self.a or self.a == self.c):
            return False
        return True


@dataclass(frozen=True)
class SplitPrime:
    """A split, non-principal degree-1 prime of k: member of the source set
    for the trace families."""

    l: int
    ideal: IdealRep
    form: QuadForm
    principal: bool
    class_order: int


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


def form_to_ideal(D: int, f: QuadForm) -> IdealRep:
    b = f.b % (2 * f.a)
    return IdealRep(a=f.a, b=b, D=D)


def ideal_to_form(I: IdealRep) -> QuadForm:
    c = (I.b * I.b - I.D) // (4 * I.a)
    return reduce_form(I.a, I.b, c)


def compose(D: int, f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition, computed through ideal multiplication."""
    ctx = FieldContext(D=D, ram_primes=frozenset())
    prod = ideal_mul(ctx, form_to_ideal(D, f), form_to_ideal(D, g))
    return ideal_to_form(prod)


def form_inverse(f: QuadForm) -> QuadForm:
    return reduce_form(f.a, -f.b, f.c)


def form_order(D: int, f: QuadForm) -> int:
    ident = reduce_form(*_pf(D))
    cur = reduce_form(f.a, f.b, f.c)
    n = 1
    while cur != ident:
        cur = compose(D, cur, f)
        n += 1
        if n > 10**6:
            raise AssertionError("form order runaway")
    return n


def exponent(D: int) -> int:
    """Largest order of a class group element (= lcm of all orders)."""
    return lcm(*(form_order(D, f) for f in reduced_forms(D)))


def ideal_class_of(ctx: FieldContext, I: IdealRep) -> QuadForm:
    # content never changes the class
    prim = IdealRep(a=I.a, b=I.b, D=I.D)
    return ideal_to_form(prim)


def _pf(D: int) -> tuple[int, int, int]:
    f = principal_form(D)
    return f.a, f.b, f.c


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
    out = []
    ident = reduce_form(*_pf(ctx.D))
    for l in _prime_stream():
        if len(out) == count:
            break
        if splitting_type(ctx, l) != "split":
            continue
        I = prime_ideal_above(ctx, l)
        f = ideal_class_of(ctx, I)
        if f == ident:
            continue
        out.append(
            SplitPrime(
                l=l,
                ideal=I,
                form=f,
                principal=False,
                class_order=form_order(ctx.D, f),
            )
        )
    if len(out) < count:
        raise RuntimeError("S0 search exhausted")
    return out


def _prime_stream():
    yield from primes_up_to(10**4)
    n = 10**4 + 1
    scanned = 0
    while scanned < S0_SCAN_LIMIT:
        if is_prime(n):
            yield n
            scanned += 1
        n += 2


def subgroup_closure(D: int, classes: set[QuadForm]) -> set[QuadForm]:
    """Closure under composition (breadth-first; fine at desk scale)."""
    ident = reduce_form(*_pf(D))
    seen = {ident}
    frontier = [ident]
    gens = list(classes)
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = compose(D, f, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def generates(D: int, classes: set[QuadForm]) -> bool:
    return len(subgroup_closure(D, classes)) == class_number(D)


def choose_S(ctx: FieldContext, s0: list[SplitPrime] | None = None) -> list[SplitPrime]:
    """Greedy-minimal generating subset: scan S0 by norm, keep a prime iff
    it enlarges the generated subgroup, stop once the whole group is hit."""
    if ctx.class_number is None:
        fill_class_data(ctx)
    if ctx.class_number == 1:
        raise ValueError("class number is 1: no generating set needed")
    h_k = ctx.class_number
    chosen: list[SplitPrime] = []
    size = 1
    count = 4
    while True:
        pool = s0 if s0 is not None else enumerate_S0(ctx, count)
        for q in pool:
            if any(c.l == q.l for c in chosen):
                continue
            trial = subgroup_closure(ctx.D, {c.form for c in chosen} | {q.form})
            if len(trial) > size:
                chosen.append(q)
                size = len(trial)
            if size == h_k:
                return chosen
        if s0 is not None:
            raise RuntimeError("supplied S0 slice does not generate the class group")
        count *= 2
        if count > 10**4:
            raise RuntimeError("S0 search exhausted")
