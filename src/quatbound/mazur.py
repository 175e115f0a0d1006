"""Search for fundamental discriminants N such that no odd prime below
|N|/4 splitting in k splits in Q(sqrt(N)); finite by Mazur-type results,
searched here up to a configurable bound."""

from collections import namedtuple
from functools import cache

from .arith import is_prime, legendre
from .quadfield import FieldContext, is_fundamental, split_primes


MazurResult = namedtuple("MazurResult", "bound members")


def is_in_mazur(ctx: FieldContext, N: int) -> bool:
    """Membership test: every split-in-k prime l with 2 < l < |N|/4 must
    have (N|l) != 1.  Vacuously true when the range is empty.  The split
    primes, and each witness (N|l), are found by Legendre symbol
    (arith.legendre, Euler's criterion) alone, independent of
    mazur_prime_set's bitset sieve, up to the first witness; every call
    reads the field's one list of split primes, so each is found once.
    N must be fundamental: an N = 1 mod 4 whose |N| is proven prime, as
    every union prime that verify checks is, needs no factorization, and
    a BPSW-probable |N| is factored (quadfield.is_fundamental)."""
    if not is_fundamental(N):
        raise ValueError(f"{N} is not a fundamental discriminant")
    for l in split_primes(ctx):
        if 4 * l >= abs(N):  # l < |N|/4  <=>  4l < |N|
            return True
        if l > 2 and legendre(N, l) == 1:
            return False


def check_mazur_bound(bound: int) -> None:
    if bound < 5:
        raise ValueError("mazur_prime_set: bound must be >= 5")


@cache
def _keep_pattern(l: int) -> int:
    """The l-bit int whose bit i is clear exactly when 4i + 1 is a nonzero
    square mod the odd prime l.  Of x and l - x one is odd, so each
    nonzero square is x^2 for exactly one odd x = 2y + 1 < l, and
    4i + 1 = x^2 at i = y(y + 1).  Digit i of a bytearray of base-2
    digits is cleared for each such i, and the digits are parsed once,
    most significant first.  Cached: l alone fixes the pattern."""
    digits = bytearray(b"1") * l
    for y in range((l - 1) // 2):
        digits[y * (y + 1) % l] = 48  # ord("0")
    return int(digits[::-1], 2)


def _tile(pattern: int, period: int, width: int) -> int:
    """A pattern of `period` bits repeated to at least `width` bits by
    shift-or doubling.  The last shift is the least multiple of `period`
    that reaches `width`, so the result is under width + period bits
    instead of up to twice the width; where the copies overlap they agree,
    as the shift is a multiple of the period."""
    length = period
    while 2 * length < width:
        pattern |= pattern << length
        length *= 2
    if length < width:
        pattern |= pattern << -(-(width - length) // period) * period
    return pattern


def mazur_prime_set(ctx: FieldContext, bound: int) -> MazurResult:
    """Primes p <= bound with p = 1 mod 4 passing the membership test.

    Only these can enter the final union through the discriminant set: a
    prime equal to a fundamental discriminant is 1 mod 4.

    Bit i of the int `alive` stands for n = 4i + 1 <= bound.  The rule of
    an odd split prime l clears the bits with i >= l (n > 4l) whose n mod
    l is a nonzero square.  Invariant: after the rules of the odd split
    primes below l, every live n is 0 or a nonresidue mod each of them
    that is < n/4.  A prime p is never 0 mod such an l, so once every
    rule that can clear a live bit has run, the members are exactly the
    live n that are prime.

    The rules run in groups of consecutive odd split primes (group
    invariant: ascending, none skipped).  A group's keep pattern has
    period P, the product of its members: each member's l-bit pattern is
    tiled to P bits and the members are ANDed together.  That pattern is
    tiled to the live width, and its first period is replaced by one that
    also keeps each member's bits i < l (each l <= P, so they all lie in
    it).  The result is the AND of the members' rules, and one full-width
    AND applies them all.

    A group takes the next prime l while P * l * 4 <= the live width
    (`alive.bit_length()` at the group's start).  Its P-bit work, a few
    passes per member, then stays under the full-width passes that
    grouping saves.  With P * l <= width instead, P can reach the width
    and each member's tile costs a full-width pass again: on -2999 and
    -3299 at bound 10^8 that ran 1.6-2.6 times slower than P * l * 4,
    while P * l * 8 and P * l * 16 ran as fast as P * l * 4.

    Stop rule: the search stops at the first group whose smallest prime
    l is >= the live width.  Every live n then has i < l, and every rule
    still to come clears only bits at or above its own l, so none can
    clear a live bit.  The same argument covers a member that reaches
    past the width left by the members before it: its rule is a no-op,
    so grouping and stopping give the same bits as applying every rule
    one prime at a time.
    """
    check_mazur_bound(bound)
    alive = (1 << ((bound - 1) // 4 + 1)) - 1
    primes = (l for l in split_primes(ctx) if l != 2)
    l = next(primes)
    while True:
        size = alive.bit_length()
        if size <= l:
            break  # every live n = 4i + 1 has i < l, so n < 4l
        group, P = [l], l
        for l in primes:  # split_primes has no end, so this always breaks
            if P * l * 4 > size:
                break
            group.append(l)
            P *= l
        period = first = (1 << P) - 1
        for m in group:
            keep = _tile(_keep_pattern(m), m, P)
            period &= keep
            first &= keep | ((1 << m) - 1)
        alive &= _tile(period, P, size) | first
    members = tuple(4 * i + 1 for i in range(alive.bit_length())
                    if alive >> i & 1 and is_prime(4 * i + 1))
    return MazurResult(bound=bound, members=members)
