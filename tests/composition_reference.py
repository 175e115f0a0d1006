"""Reference Dirichlet composition, form reduction and principal
generators for the class-group tests.  Composition follows Cohen, GTM 138,
Lemma 5.4.5, with the Bezout coefficients of both gcds from an extended
Euclid written out step by step.  classgroup._dirichlet takes the same
gcds from math.gcd and its coefficients from modular inverses; this is the
independent path to its unreduced (a, b, c).  The reduction recomputes
c = (b^2 - D)/4a after every translation, where classgroup.reduce_form
updates c, and it carries the vector of the reduced form's minimum, from
which reference_generator reads the generator that
classgroup.principal_generator finds by Cornacchia's algorithm.  All are
used only as oracles."""

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


def reference_generator(f: QuadForm) -> tuple[int, int] | None:
    """The generator (t + y*sqrt(D))/2 of the ideal Z*a + Z*(-b + sqrt(D))/2
    of f = (a, b, c) as (t, y), or None when it is not principal: the
    element x*a + y*(-b + sqrt(D))/2 has norm a*(a*x^2 - b*x*y + c*y^2), so
    the ideal is principal exactly when (a, -b, c) reduces to a form of
    a = 1, and the vector (x, y) of that minimum gives t = 2ax - by.  It is
    canonicalized to t > 0, or t = 0 and y > 0."""
    g, (x, y) = reference_reduce(f.a, -f.b, f.c)
    if g.a != 1:
        return None
    t = 2 * f.a * x - f.b * y
    return (t, y) if t > 0 or (t == 0 and y > 0) else (-t, -y)
