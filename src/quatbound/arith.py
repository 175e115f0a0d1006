"""Exact big-integer primitives: Kronecker symbol, primality, bounded factoring."""

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

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


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound by sieve of Eratosthenes."""
    if bound < 2:
        raise ValueError("primes_up_to: bound must be >= 2")
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(compress(range(bound + 1), sieve))


@dataclass(frozen=True)
class FactorBudget:
    """Effort limits for factor(); exhaustion yields a cofactor, not an error.
    Every part below trial_bound**2 left after trial division is prime, so
    trial_bound must be at least 2.  rho_iterations = 0 runs no rho."""

    trial_bound: int = 10**6
    rho_iterations: int = 10**7

    def __post_init__(self):
        if self.trial_bound < 2:
            raise ValueError(f"trial bound must be >= 2, got {self.trial_bound}")
        if self.rho_iterations < 0:
            raise ValueError(f"rho iterations must be >= 0, got {self.rho_iterations}")


@dataclass(frozen=True)
class FactoredInteger:
    value: int
    prime_powers: tuple[tuple[int, int], ...]
    cofactor: int | None = None

    @property
    def sign(self) -> int:
        return -1 if self.value < 0 else 1

    def reconstruct(self) -> int:
        out = self.sign
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


# p-1 stage 2 pairs its primes around the multiples of 2*3*5*7*11.
_D = 2310


@lru_cache(maxsize=8)
def _trial_primes(bound: int) -> tuple[list[int], list[int], array, array]:
    """The primes up to bound, the products of their runs built so far, and
    the rows of p-1's stage-2 grid built so far: row k is js[ends[k]:ends[k+1]],
    the distinct j with k*_D - j or k*_D + j a stage-2 prime.  _trial_divide
    and _pollard_pm1 append a run's product or a row the first time they
    reach it, so a process builds only what it uses."""
    return primes_up_to(bound), [], array("H"), array("I", [0])


def _trial_divide(m: int, primes: list[int], products: list[int]) -> tuple[dict[int, int], int]:
    """Divide m > 0 by every trial prime p with p*p <= m: the prime powers
    found and what is left.  A run whose product is coprime to m is passed
    over with one gcd instead of one division per prime."""
    powers: dict[int, int] = {}
    for i, start in enumerate(range(0, len(primes), _TRIAL_RUN)):
        if primes[start] * primes[start] > m:
            break
        if i == len(products):
            products.append(prod(primes[start : start + _TRIAL_RUN]))
        if gcd(m, products[i]) == 1:
            continue
        for p in primes[start : start + _TRIAL_RUN]:
            if p * p > m:
                break
            while m % p == 0:
                powers[p] = powers.get(p, 0) + 1
                m //= p
    return powers, m


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


def _pollard_pm1(n: int, primes: list[int], js: array, ends: array) -> int | None:
    """Pollard p-1 with base 3 over the trial primes (Pollard 1974).

    With T = primes[-1], stage 1 raises the base to every prime power up to
    sqrt(T), giving a = 3^E; stage 2 takes the further primes q <= T, paired
    around multiples of _D (Montgomery 1987, section 4).  Each q is k*_D +- j
    with j <= _D/2, and with X = a^(k*_D), Y = a^j,
        (X + 1/X) - (Y + 1/Y) = (X - Y)(XY - 1)/(XY),
    so one product term per pair (k, j) catches both k*_D - j and k*_D + j.
    A prime p | n is caught when ord_p(3) divides E, or E times a stage-2
    prime, or E times the partner k*_D -+ j of one (a number below T + _D).
    The grid's rows are js[ends[k]:ends[k+1]], built the first time a call
    reaches them.  Returns a proper factor of n, or None, also when every
    prime of n is caught within one row (the gcd is n) and rho must split it.
    """
    root = isqrt(primes[-1])
    a = 3
    for q in primes:
        if q > root:
            break
        qk = q
        while qk * q <= root:
            qk *= q
        a = pow(a, qk, n)
    g = gcd(a, n)  # 3 | n: a has no inverse
    if g > 1:
        return g if g < n else None
    y = [2, (a + pow(a, -1, n)) % n]  # y[j] = a^j + a^-j, one Lucas step each
    for _ in range(_D // 2 - 1):
        y.append((y[1] * y[-1] - y[-2]) % n)
    v_d = (y[-1] * y[-1] - 2) % n

    def walk(k0, k1, acc, x, x_prev):
        # rows k0 <= k < k1; x = V_{k*_D} = X + 1/X and x_prev = V_{(k-1)*_D}
        for k in range(k0, k1):
            if k == len(ends) - 1:
                lo = bisect_right(primes, max(root, k * _D - _D // 2))
                hi = bisect_right(primes, k * _D + _D // 2, lo)
                js.extend({abs(q - k * _D) for q in primes[lo:hi]})
                ends.append(len(js))
            for j in js[ends[k] : ends[k + 1]]:
                acc = acc * (x - y[j]) % n
            x, x_prev = (x * v_d - x_prev) % n, x
        return acc, x, x_prev

    rows = (primes[-1] + _D // 2) // _D + 1
    state = (a - 1, 2, v_d)  # V_0 = 2 and V_{-D} = V_D
    for k0 in range(0, rows, 4):
        k1 = min(k0 + 4, rows)
        nxt = walk(k0, k1, *state)
        g = gcd(nxt[0], n)
        if g == n:  # redo the window one row at a time
            for k in range(k0, k1):
                state = walk(k, k + 1, *state)
                g = gcd(state[0], n)
                if g > 1:
                    return g if g < n else None
        if g > 1:
            return g
        state = nxt
    return None


def factor(n: int, budget: FactorBudget = FactorBudget()) -> FactoredInteger:
    """Factor n under an effort budget: trial division, then for each
    composite part Pollard p-1 over the trial primes and Brent rho.

    Trial division goes by runs of 128 consecutive trial primes, one gcd
    per run: a run coprime to the part is skipped, any other is divided
    prime by prime.  It leaves the same prime powers and part as dividing
    by each prime p with p*p <= the part in turn.

    The result depends on (n, budget) alone.  p-1 runs only when the trial
    primes, one step each, fit in the rho iteration budget; if it finds
    nothing, rho runs with the whole budget.  Any composite part left when
    rho runs out of iterations, and any part that is only a BPSW probable
    prime, is reported in the cofactor.
    """
    if n == 0:
        raise ValueError("factor: n must be nonzero")
    primes, products, js, ends = _trial_primes(budget.trial_bound)
    powers, m = _trial_divide(abs(n), primes, products)
    # every part pushed is above 1: isqrt(m) >= 2, and p-1 and rho give 1 < f < m
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
        if len(primes) <= budget.rho_iterations:
            f = _pollard_pm1(m, primes, js, ends)
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
