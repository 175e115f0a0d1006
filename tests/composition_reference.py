"""Reference Dirichlet composition and form reduction for the class-group
tests.  Composition follows Cohen, GTM 138, Lemma 5.4.5, with the Bezout
coefficients of both gcds from an extended Euclid written out step by
step.  classgroup._dirichlet takes the same gcds from math.gcd and its
coefficients from modular inverses; this is the independent path to its
unreduced (a, b, c).  The reduction recomputes c = (b^2 - D)/4a after
every translation, where classgroup._reduce updates c.  Both are used only
as oracles."""

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


def reference_reduce(a: int, b: int, c: int) -> tuple[QuadForm, tuple[int, int]]:
    """The reduced form of (a, b, c) and the image (x, y) of the first basis
    vector (Cohen, GTM 138, Algorithm 5.4.2), with c recomputed from the
    discriminant after each translation b -> b + 2at."""
    D = b * b - 4 * a * c
    x, y, u, v = 1, 0, 0, 1
    while True:
        if not -a < b <= a:
            t = (a - b) // (2 * a)
            b += 2 * a * t
            c = (b * b - D) // (4 * a)
            u, v = u + t * x, v + t * y
        if a < c or (a == c and b >= 0):
            return QuadForm(a, b, c), (x, y)
        a, b, c = c, -b, a
        x, y, u, v = u, v, -x, -y
