"""Reference Dirichlet composition for the class-group tests: Cohen, GTM
138, Lemma 5.4.5, with the Bezout coefficients of both gcds from an
extended Euclid written out step by step.  classgroup._dirichlet takes the
same gcds from math.gcd and its coefficients from modular inverses; this
is the independent path to its unreduced (a, b, c), and is used only as
the oracle that composition is compared against."""

from quatbound.classgroup import QuadForm


def xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with u*x + v*y = g = gcd(x, y) >= 0."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return (x, u0, v0) if x >= 0 else (-x, -u0, -v0)


def reference_dirichlet(D: int, f: QuadForm, g: QuadForm) -> QuadForm:
    """f*g unreduced with b in [0, 2a): e = gcd(f.a, g.a, s) = u*f.a +
    v*g.a + w*s for s = (f.b + g.b)/2, from d = gcd(f.a, g.a) = u'*f.a +
    y*g.a and e = gcd(d, s) = z*d + w*s, so v = z*y."""
    s = (f.b + g.b) // 2
    d, _, y = xgcd(f.a, g.a)
    e, z, w = xgcd(d, s)
    v = z * y
    a = f.a * g.a // (e * e)
    b = (g.b + 2 * (g.a // e) * (v * (s - g.b) - w * g.c)) % (2 * a)
    return QuadForm(a, b, (b * b - D) // (4 * a))
