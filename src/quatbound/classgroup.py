"""Class group of an imaginary quadratic field via reduced binary quadratic
forms: Dirichlet composition, form powers, principal generators, class
orders, and the one generating-set walk that gives the group, its
exponent and the split-prime sets feeding the trace families.  A form
(a, b, c) stands for the ideal Z*a + Z*(-b + sqrt(D))/2."""

from collections import namedtuple
from itertools import chain, islice, takewhile
from math import gcd, isqrt, lcm

from .arith import kronecker
from .quadfield import FieldContext, split_primes


class QuadForm(namedtuple("QuadForm", "a b c")):
    """Primitive positive-definite binary quadratic form a*x^2 + b*xy + c*y^2."""

    __slots__ = ()


class SplitPrime(namedtuple("SplitPrime", "l form ideal")):
    """A degree-1 prime of k: its norm l, the reduced form of its class and
    the prime's own form, prime_form(D, l).  The S0 members are the split
    non-principal ones.  `above` builds each once per field, on the context;
    _prime_classes also builds the ramified primes through it."""

    __slots__ = ()

    @classmethod
    def above(cls, ctx: FieldContext, l: int) -> "SplitPrime":
        if l not in ctx._forms:
            f = prime_form(ctx.D, l)
            ctx._forms[l] = cls(l, reduce_form(*f), f)
        return ctx._forms[l]


def reduce_form(a: int, b: int, c: int) -> QuadForm:
    """The reduced form of (a, b, c)'s class (Cohen, GTM 138, Algorithm
    5.4.2).  A translation b -> b + 2at keeps b^2 - 4ac, so it sets c to
    c + t*(b + a*t) with the old b: no full-size square and division by 4a
    per step, which would make reducing a large power such as q^h cubic."""
    while True:
        if not -a < b <= a:
            # normalize b into (-a, a]
            t = (a - b) // (2 * a)
            b, c = b + 2 * a * t, c + t * (b + a * t)
        if a < c or (a == c and b >= 0):
            return QuadForm(a, b, c)
        a, b, c = c, -b, a


def principal_generator(f: QuadForm) -> tuple[int, int] | None:
    """A generator (t + y*sqrt(D))/2 of the ideal Z*a + Z*(-b + sqrt(D))/2
    of the form f = (a, b, c), D = b^2 - 4ac, as (t, y), or None when it is
    not principal: the modified Cornacchia algorithm (Cornacchia 1908;
    Cohen, GTM 138, Algorithm 1.5.3).  An element x*a + y*(-b + sqrt(D))/2
    of norm a generates the ideal; its t = 2ax - by, so t = -b*y mod 2a.
    Euclid on (2a, r), r = -b mod 2a, stopped at the first remainder <=
    isqrt(4a), gives t; t^2 - D*y^2 = 4a gives |y|, the congruence its sign.
    Cohen states it for a prime; any a, such as q^h's l^h, works: x and y
    are coprime (a*x^2 - b*x*y + c*y^2 = 1) and |t*y| < a for |D| > 4, so
    t = |y*r - 2a*z| for a convergent z/|y| of r/2a (Legendre); an earlier
    remainder <= isqrt(4a) would give a generator of smaller |y|, which
    the units +-1 rule out.  Trying y before -y makes the result canonical,
    t > 0, or t = 0 and y > 0 (for D = -3, -4, one of several)."""
    if f.a == 1:
        return 2, 0
    a2, bound = 2 * f.a, isqrt(4 * f.a)
    r, t = a2, -f.b % a2
    while t > bound:
        r, t = t, r % t
    D = f.b * f.b - 4 * f.a * f.c
    y = isqrt((4 * f.a - t * t) // -D)
    if t * t - D * y * y != 4 * f.a:
        return None
    return next(((t, s) for s in (y, -y) if (t + f.b * s) % a2 == 0), None)


def principal_form(D: int) -> QuadForm:
    if D % 4 == 0:
        return QuadForm(1, 0, -D // 4)
    return QuadForm(1, 1, (1 - D) // 4)


def _prime_classes(ctx: FieldContext) -> set[QuadForm]:
    """The classes of the degree-1 primes p with 3p^2 <= |D|, which generate
    the class group: every class holds a reduced form (a, b, c), 3a^2 <= |D|
    (Cohen, GTM 138, Section 5.3), the form of an ideal of norm a, a product
    of primes of norm <= a; an inert prime's ideal is principal.  The split
    primes are read from the field's list."""
    split = takewhile(lambda p: 3 * p * p <= -ctx.D, split_primes(ctx))
    ramified = (p for p in ctx.ram_primes if 3 * p * p <= -ctx.D)
    return {SplitPrime.above(ctx, p).form for p in chain(split, ramified)}


def _sqrt_mod(n: int, l: int) -> int:
    """A square root of n, a nonzero square mod the odd prime l
    (Tonelli-Shanks; Shanks 1973).  Every loop is bounded, so a composite
    l that passed as a probable prime yields a wrong root, not a hang."""
    q, s = l - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    t, r = pow(n, q, l), pow(n, (q + 1) // 2, l)
    if s == 1:
        # l = 3 mod 4: r^2 = t*n, t = 1 for a square n; no non-residue is needed
        return r
    z = next((z for z in range(2, l) if kronecker(z, l) == -1), 1)
    c = pow(z, q, l)
    # r^2 = t*n and t^(2^(s-1)) = 1 mod l; each step lowers s
    while t != 1:
        i = next((i for i in range(1, s) if pow(t, 1 << i, l) == 1), 0)
        if not i:
            break
        u = pow(c, 1 << (s - i - 1), l)
        s, c, t, r = i, u * u % l, t * u * u % l, r * u % l
    return r


def prime_form(D: int, l: int) -> QuadForm:
    """The form (l, b, c) of the degree-1 prime Z*l + Z*(-b + sqrt(D))/2
    above l, with the smallest valid b >= 0.  The valid b in [0, 2l) are
    = +-r mod l, of the parity of D, for r a square root of D mod l; l = 2
    tries both b of that parity.  kronecker, not arith.legendre: l is not
    known to be prime here, and a composite l gets a form or the
    AssertionError, not legendre's ValueError."""
    if kronecker(D, l) == -1:
        raise ValueError(f"{l} is inert in Q(sqrt({D})): no degree-1 prime")
    r = D % l if l == 2 or D % l == 0 else _sqrt_mod(D, l)
    for b in sorted(b for b in (r, l - r, l + r, 2 * l - r) if b % 2 == D % 2):
        if (b * b - D) % (4 * l) == 0:
            return QuadForm(l, b, (b * b - D) // (4 * l))
    raise AssertionError(f"no square root of {D} mod 4*{l}")


def _dirichlet(D: int, f: QuadForm, g: QuadForm) -> QuadForm:
    """Dirichlet composition, unreduced, with b in [0, 2a) (Cohen, GTM 138,
    Lemma 5.4.5): e = gcd(f.a, g.a, s) = u*f.a + v*g.a + w*s for
    s = (f.b + g.b)/2, and the result is the form of the ideal product
    divided by its content e, the same for every such (u, v, w).  With
    d = gcd(f.a, g.a), w*s = e mod d, and v*g.a = e - w*s mod f.a."""
    s = (f.b + g.b) // 2
    d = gcd(f.a, g.a)
    e = gcd(d, s)
    # inverses mod 1 are 0, as where d | s or f.a | g.a
    w = pow(s // e, -1, d // e)
    v = pow(g.a // d, -1, f.a // d) * ((e - w * s) // d)
    a = f.a * g.a // (e * e)
    b = (g.b + 2 * (g.a // e) * (v * (s - g.b) - w * g.c)) % (2 * a)
    return QuadForm(a, b, (b * b - D) // (4 * a))


def compose(D: int, f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition: the reduced form of the class of f*g."""
    return reduce_form(*_dirichlet(D, f, g))


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


def form_order(D: int, f: QuadForm) -> int:
    """The order of f's class: the size of the cyclic group <f>."""
    return len(_extend(D, {principal_form(D)}, f)[0])


class ClassNumberOne(ValueError):
    """k has class number 1: no split prime is non-principal, so there is
    nothing to bound."""


def check_s0_count(count: int) -> None:
    if count < 1:
        raise ValueError(f"S0 count must be >= 1, got {count}")


def enumerate_S0(ctx: FieldContext, count: int) -> list[SplitPrime]:
    """The first `count` split non-principal degree-1 primes, by norm."""
    if ctx.class_number == 1:
        raise ClassNumberOne("theorem inapplicable: class number is 1")
    check_s0_count(count)
    qs = (SplitPrime.above(ctx, l) for l in split_primes(ctx))
    return list(islice((q for q in qs if q.form != principal_form(ctx.D)), count))


def _extend(D: int, H: set[QuadForm], f: QuadForm) -> tuple[set[QuadForm], QuadForm]:
    """The subgroup <H, f>, for a subgroup H given by its reduced forms,
    and f^i, the first power of f that lies in H: <H, f> is the union of
    the i cosets H*f^j, j < i.  H holds the principal form e, and e*p is
    the reduced form p itself, so each coset adds p and composes only the
    other members of H.  For H = {e} it is the cyclic group <f> that
    form_order measures, at ord(f) - 1 compositions."""
    others = H - {principal_form(D)}
    out = set(H)
    p = reduce_form(f.a, f.b, f.c)
    while p not in H:
        out.add(p)
        out.update(compose(D, x, p) for x in others)
        p = compose(D, p, f)
    return out, p


def subgroup_closure(D: int, classes: set[QuadForm]) -> set[QuadForm]:
    """The subgroup generated by the given classes."""
    H = {principal_form(D)}
    for f in classes:
        H = _extend(D, H, f)[0]
    return H


def generates(ctx: FieldContext, classes: set[QuadForm]) -> bool:
    return len(subgroup_closure(ctx.D, classes)) == ctx.class_number


def generating_set(ctx: FieldContext) -> tuple[tuple[SplitPrime, ...], frozenset[QuadForm], int]:
    """The greedy-minimal generating subset S, the reduced forms of the
    group H it generates, and H's exponent h: walk the split primes by
    norm, keep a prime iff its class is not yet in H, and stop once H
    holds the classes of _prime_classes, which generate the class group
    (at once for class number 1).  A kept q that multiplies |H| by i has
    q^i as its first power in H, so ord(q) = i * ord(q^i): only q^i is
    walked, and for the first q it is the principal form."""
    H = {principal_form(ctx.D)}
    chosen: list[SplitPrime] = []
    h = 1
    primes = (SplitPrime.above(ctx, l) for l in split_primes(ctx))
    missing = _prime_classes(ctx) - H
    while missing:
        q = next(primes)
        if q.form not in H:
            grown, power = _extend(ctx.D, H, q.form)
            h = lcm(h, len(grown) // len(H) * form_order(ctx.D, power))
            H = grown
            chosen.append(q)
            missing -= H
    return tuple(chosen), frozenset(H), h
