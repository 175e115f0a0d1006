"""Exact big-integer primitives: Kronecker and Legendre symbols, primality,
bounded factoring."""

from array import array
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from itertools import compress, count, islice
from math import gcd, inf, isqrt, lcm, prod

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The first k bases decide primality for every n below the k-th entry: the
# least strong pseudoprimes to them (OEIS A014233; Jaeschke 1993,
# Jiang-Deng 2014, Sorenson-Webster 2017).
_MR_BASE_LIMITS = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_MR_DETERMINISTIC_LIMIT = _MR_BASE_LIMITS[-1]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_LIMIT = 41 * 41  # below it, a number that none of them divides is prime


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully multiplicative in both arguments."""
    if n == 0:
        raise ValueError("kronecker: n must be nonzero")
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    # strip factors of 2 from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t and a % 2 == 0:
        return 0
    # (a|2)^t
    result = 1
    if t % 2 == 1 and a % 8 in (3, 5):
        result = -1
    # now n odd positive: Jacobi symbol by quadratic reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(a: int, p: int) -> int:
    """kronecker(a, p) for a prime p, by Euler's criterion a^((p-1)/2) =
    (a|p) mod p for odd p, one modular power in place of kronecker's
    reciprocity loop, and by a mod 8 for p = 2.  p is not tested for
    primality: a power other than 0, 1 or p - 1 proves it composite and
    raises ValueError, as does an even p > 2."""
    if p & 1 and p > 2:
        e = pow(a, p >> 1, p)
        if e == 1:
            return 1
        if e == p - 1:
            return -1
        if e == 0:
            return 0
    elif p == 2:
        return 0 if a % 2 == 0 else 1 if a % 8 in (1, 7) else -1
    raise ValueError(f"legendre: {p} is not a prime")


def _miller_rabin_composite(n: int, a: int) -> bool:
    """True if base a proves n composite (n odd > 2)."""
    a %= n
    if a == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _lucas_strong_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge parameters (n odd, not a square)."""
    d = 5
    while True:
        s = kronecker(d, n)
        if s == -1:
            break
        if s == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    # factor n + 1 = k * 2^r
    k = n + 1
    r = 0
    while k % 2 == 0:
        k //= 2
        r += 1
    # compute U_k, V_k by binary ladder
    u, v, qk = 1, p, q % n
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) * ((n + 1) // 2) % n, (d * u + p * v) * ((n + 1) // 2) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(r - 1):
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: deterministic below ~3.3e24, BPSW-strength beyond."""
    return prime_status(n) != "composite"


def prime_status(n: int) -> str:
    """Return "prime", "composite", or "probable" (BPSW pass above the
    deterministic witness threshold)."""
    if n < 2:
        return "composite"
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return "prime" if n == p else "composite"
    if n < _SMALL_LIMIT:
        return "prime"
    if n < _MR_DETERMINISTIC_LIMIT:
        for a in _MR_BASES[: bisect_right(_MR_BASE_LIMITS, n) + 1]:
            if _miller_rabin_composite(n, a):
                return "composite"
        return "prime"
    if _miller_rabin_composite(n, 2):
        return "composite"
    r = isqrt(n)
    if r * r == n:
        return "composite"
    return "probable" if _lucas_strong_probable_prime(n) else "composite"


def _segment(lo: int, hi: int, base: array):
    """The primes in (lo, hi], 2 <= lo < hi: the odd numbers there sieved by
    the odd primes p*p <= hi of base, where base lists the primes from 2 on
    as far as sqrt(hi) at least (segmented sieve, Bays-Hudson 1977).  The
    sieving is done before the lazy result is returned, so base may be the
    array that the result extends."""
    # index i stands for first + 2*i
    first = lo + 1 + lo % 2
    n = max(0, (hi - first) // 2 + 1)
    segment = bytearray([1]) * n
    for p in islice(base, 1, None):
        if p * p > hi:
            break
        # the least i with first + 2*i >= p*p and divisible by p, by
        # 1/2 = (p+1)/2 mod p
        i = max(0, -(-(p * p - first) // 2))
        i += -(first + 2 * i) * ((p + 1) // 2) % p
        segment[i::p] = bytes(len(range(i, n, p)))
    return compress(range(first, hi + 1, 2), segment)


def prime_stream():
    """The primes, ascending and without end: the process's one unbounded
    list read by index, which a walk past its end extends for every later
    walk, so a process sieves each number once."""
    shared = _PRIMES
    primes = shared.primes
    for i in count():
        if i == len(primes):
            shared.extend()  # (limit, 4*limit] holds a prime (Bertrand)
        yield primes[i]


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, a fresh list cut from the process's one list."""
    if bound < 2:
        raise ValueError("primes_up_to: bound must be >= 2")
    primes = _PRIMES.through(bound)
    return primes[: bisect_right(primes, bound)].tolist()


class FactorBudget(namedtuple("FactorBudget", "trial_bound rho_iterations")):
    """Effort limits for factor(); exhaustion yields a cofactor, not an error.
    Every part below trial_bound**2 left after trial division is prime, so
    trial_bound must be at least 2.  rho_iterations = 0 runs no rho."""

    __slots__ = ()

    def __new__(cls, trial_bound: int = 10**6, rho_iterations: int = 10**7):
        if trial_bound < 2:
            raise ValueError(f"trial bound must be >= 2, got {trial_bound}")
        if rho_iterations < 0:
            raise ValueError(f"rho iterations must be >= 0, got {rho_iterations}")
        return super().__new__(cls, trial_bound, rho_iterations)

    @classmethod
    def _make(cls, iterable) -> "FactorBudget":
        # namedtuple's _make, which _replace calls, would skip __new__'s checks
        return cls(*iterable)


class FactoredInteger(namedtuple("FactoredInteger", "value prime_powers cofactor",
                                 defaults=(None,))):
    __slots__ = ()

    def reconstruct(self) -> int:
        out = -1 if self.value < 0 else 1
        for p, e in self.prime_powers:
            out *= p**e
        if self.cofactor is not None:
            out *= self.cofactor
        return out

    @property
    def complete(self) -> bool:
        return self.cofactor is None

    @property
    def primes(self) -> list[int]:
        return [p for p, _ in self.prime_powers]


# Trial division goes by runs of this many consecutive trial primes, one
# gcd with the run's product per run; a run's product has about 2,300-2,600
# bits below 10^6.
_TRIAL_RUN = 128


# The torus run's stage 2 pairs its primes around the multiples of 2*3*5*7*11.
_D = 2310


class _TrialPrimes:
    """The trial primes: all the primes, sieved by segments.  _PRIMES is
    the process's one list.  Kept are the primes as far as limit so far and
    the products of the full runs built so far, each built the first time a
    walk or a factorization reaches it, so a process builds only what it
    uses.  The prime list is an array, 8 bytes a prime."""

    def __init__(self):
        self.limit = 4
        self.primes = array("Q", [2, 3])
        self.products: list[int] = []

    def extend(self, x: int | float = inf) -> None:
        """Append the primes in (limit, min(4*limit, x)], limit < x: the odd
        numbers there sieved by the list's own primes up to sqrt(4*limit) <=
        limit."""
        hi = min(4 * self.limit, x)
        self.primes.extend(_segment(self.limit, hi, self.primes))
        self.limit = hi

    def through(self, x: int) -> array:
        """The list as far as x at least, by segments that end at x at most."""
        while self.limit < x:
            self.extend(x)
        return self.primes


_PRIMES = _TrialPrimes()


def _trial_divide(m: int, trial: _TrialPrimes, bound: int) -> tuple[dict[int, int], int]:
    """Divide m > 0 by every prime p <= bound of trial with p*p <= m: the
    prime powers found and what is left.  A run whose product is coprime to
    m is passed over with one gcd instead of one division per prime.
    Division ends once m is proven prime, on entry or after a run that
    divided it.  The list is grown on only while a run it cuts short may be
    needed.  Only a full run of primes <= bound keeps its product: a run
    that bound or the list's end cuts short is multiplied on the spot, or a
    later, larger bound would skip the primes it lacks."""
    powers: dict[int, int] = {}
    if _proven_prime(m):
        return powers, m
    primes, products = trial.primes, trial.products
    for i in count():
        start = i * _TRIAL_RUN
        while (len(primes) < start + _TRIAL_RUN and trial.limit < bound
               and (start >= len(primes) or primes[start] * primes[start] <= m)):
            trial.extend(bound)
        if start >= len(primes) or primes[start] > bound or primes[start] * primes[start] > m:
            break
        end = start + _TRIAL_RUN
        if end <= len(primes) and primes[end - 1] <= bound:
            if i == len(products):
                products.append(prod(primes[start:end]))
            run_product = products[i]
        else:
            end = bisect_right(primes, bound, start, min(end, len(primes)))
            run_product = prod(primes[start:end])
        if gcd(m, run_product) == 1:
            continue
        for p in primes[start:end]:
            if p * p > m:
                break
            while m % p == 0:
                powers[p] = powers.get(p, 0) + 1
                m //= p
        if _proven_prime(m):
            break
    return powers, m


def _proven_prime(m: int) -> bool:
    # prime_status says "prime" only below the deterministic limit: a larger
    # m is not tested, as its test could only cost time
    return m < _MR_DETERMINISTIC_LIMIT and prime_status(m) == "prime"


def _brent_rho(n: int, max_iters: int) -> int | None:
    """Brent-cycle rho; returns a nontrivial factor of composite odd n, or
    None when the iteration budget (fixed seed schedule) runs out."""
    spent = 0
    for c in range(1, 100):  # polynomial offset schedule x^2 + c
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            spent += r
            if spent > max_iters:
                return None
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated for this c; try the next offset
    return None


@lru_cache(maxsize=8)
def _pm1_plan(bound: int) -> tuple[int, tuple[array, ...]]:
    """The torus run's plan for the trial primes up to bound, the largest
    of them T: the stage-1 exponent E, the product of the largest power of
    each prime that is at most sqrt(T), which is lcm(1, ..., sqrt(T)), and
    the rows of the stage-2 grid, row k the distinct j with k*_D - j or
    k*_D + j a prime in (sqrt(T), T].  Built from _PRIMES cut at bound the
    first time a torus run needs it."""
    primes = _PRIMES.through(bound)
    n = bisect_right(primes, bound)
    root = isqrt(primes[n - 1])
    rows = []
    for k in range((primes[n - 1] + _D // 2) // _D + 1):
        lo = bisect_right(primes, max(root, k * _D - _D // 2), 0, n)
        hi = bisect_right(primes, k * _D + _D // 2, lo, n)
        rows.append(array("H", {abs(q - k * _D) for q in primes[lo:hi]}))
    return lcm(*range(1, root + 1)), tuple(rows)


def _torus_pm1(n: int, bound: int, D: int, l: int) -> int | None:
    """p-1 and p+1 in one run (Williams 1982) on a part n of a Lucas
    sequence with Q = l and discriminant D, by the plan _pm1_plan(bound).
    The base gamma = (a + sqrt(D))/(a - sqrt(D)) has norm 1 and trace
    t = 2(a^2 + D)/(a^2 - D), and t^2 - 4 = 16a^2*D/(a^2 - D)^2, so its
    order mod p | n divides p - (D/p).  The least a >= 1 with
    gcd(a^2 - D, 2lD) = 1 puts gamma's ideal on split primes not above l:
    gamma is no root of unity times a power of alpha/beta, whose order mod
    each prime of Psi_d divides d.  Stage 1 is V_E(t, 1) by a Lucas
    ladder, and stage 2 (_pm1_stage2) takes the primes q <= T, T the
    largest trial prime.  Returns a proper factor of n, or None, also when
    every prime of n is caught within one row (the gcd is n).

    On Psi_d, the primitive part of U_d, the run is aimed: a prime p of
    Psi_d that divides neither d nor D has rank of apparition d, so
    d | p - (D/p) (Carmichael 1913), and the run is p-1 where (D/p) = 1
    and p+1 where it is -1, with the factor d known.  Where it finds
    nothing, rho splits the part."""
    exponent, rows = _pm1_plan(bound)
    a2 = next(a * a for a in count(1) if gcd(a * a - D, 2 * l * D) == 1)
    g = gcd((a2 - D) * D, n)  # t undefined, or gamma = 1 mod p
    if g > 1:
        return g if g < n else None
    t = 2 * (a2 + D) * pow(a2 - D, -1, n) % n
    v, w = 2, t  # V_k and V_k+1 of the ladder over the bits of E
    for bit in bin(exponent)[2:]:
        vw = (v * w - t) % n
        v, w = (vw, (w * w - 2) % n) if bit == "1" else ((v * v - 2) % n, vw)
    return _pm1_stage2(n, rows, v, v - 2)


def _pm1_stage2(n: int, rows: tuple[array, ...], v: int, acc: int) -> int | None:
    """Stage 2 of the torus run over a plan's rows, from v = b + 1/b, b the
    base's stage-1 power, and the stage-1 accumulator acc.  Each stage-2
    prime q is k*_D +- j, j <= _D/2 (Montgomery 1987, section 4), and with
    X = b^(k*_D), Y = b^j, (X + 1/X) - (Y + 1/Y) = (X - Y)(XY - 1)/(XY):
    one term per pair (k, j) catches k*_D - j and k*_D + j.  One gcd per
    row: a proper factor of n, or None, also when the gcd is n."""
    y = [2, v]  # y[j] = b^j + b^-j, one Lucas step each
    for _ in range(_D // 2 - 1):
        y.append((y[1] * y[-1] - y[-2]) % n)
    v_d = (y[-1] * y[-1] - 2) % n
    # x = V_{k*_D} = X + 1/X and x_prev = V_{(k-1)*_D}: V_0 = 2, V_{-D} = V_D
    x, x_prev = 2, v_d
    for row in rows:
        for j in row:
            acc = acc * (x - y[j]) % n
        g = gcd(acc, n)
        if g > 1:
            return g if g < n else None
        x, x_prev = (x * v_d - x_prev) % n, x
    return None


def factor(n: int, budget: FactorBudget = FactorBudget(),
           torus: tuple[int, int] | None = None) -> FactoredInteger:
    """Factor n under an effort budget: trial division by every prime up
    to the trial bound, then for each composite part the square check, the
    torus run when torus is given, and Brent rho.

    Trial division goes by runs of 128 consecutive trial primes, one gcd
    per run: a run coprime to the part is skipped, any other is divided
    prime by prime.  It ends once the part is proven prime by deterministic
    Miller-Rabin, on entry or after a run that divided it; a BPSW probable
    prime proves nothing and is divided on.  A prime part has no trial
    divisor p with p*p <= it, so neither runs nor the early end change the
    result: the same prime powers and part as dividing by each prime p
    with p*p <= the part in turn.  The trial primes are the process's one
    list cut at the trial bound, sieved as far as the division reaches.

    The result depends on (n, budget, torus) alone.  Any composite part
    left when rho runs out of iterations, and any part that is only a BPSW
    probable prime, is reported in the cofactor.

    torus = (D, l) says that n is a part of a Lucas sequence with
    discriminant D and Q = l: the torus run over (D, l) (_torus_pm1, one
    p+-1 run over the trial primes) then goes before rho, but only when the
    trial primes, one step each, fit in the rho iteration budget; if it
    finds nothing, rho runs with the whole budget.  The result still
    multiplies back to n, and is factor(n, budget) whenever that is
    complete; where the torus run splits a part rho leaves whole, it is
    more complete.
    """
    if n == 0:
        raise ValueError("factor: n must be nonzero")
    powers, m = _trial_divide(abs(n), _PRIMES, budget.trial_bound)
    # every part pushed is above 1: isqrt(m) >= 2, and the torus run and rho
    # give 1 < f < m
    stack = [m] if m > 1 else []
    cofactor = 1
    while stack:
        m = stack.pop()
        # below trial_bound^2 any remaining part is prime
        status = "prime" if m <= budget.trial_bound * budget.trial_bound else prime_status(m)
        if status == "prime":
            powers[m] = powers.get(m, 0) + 1
            continue
        if status == "probable":
            # BPSW proves nothing: the part stays unfactored
            cofactor *= m
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        f = None
        if torus is not None:
            # the torus run makes pi(T) steps; trial division left a composite
            # part above T^2 only by a walk to T, so this sieves nothing more
            primes = _PRIMES.through(budget.trial_bound)
            if bisect_right(primes, budget.trial_bound) <= budget.rho_iterations:
                f = _torus_pm1(m, budget.trial_bound, *torus)
        if f is None:
            f = _brent_rho(m, budget.rho_iterations)
        if f is None:
            cofactor *= m
        else:
            stack.extend((f, m // f))
    return FactoredInteger(
        value=n,
        prime_powers=tuple(sorted(powers.items())),
        cofactor=cofactor if cofactor > 1 else None,
    )
