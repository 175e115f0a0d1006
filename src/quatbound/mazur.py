"""Search for fundamental discriminants N such that no odd prime below
|N|/4 splitting in k splits in Q(sqrt(N)); finite by Mazur-type results,
searched here up to a configurable bound."""

from collections import namedtuple

from .arith import is_prime, kronecker
from .quadfield import FieldContext, is_fundamental, split_primes


MazurResult = namedtuple("MazurResult", "bound members")


def is_in_mazur(ctx: FieldContext, N: int) -> bool:
    """Membership test: every split-in-k prime l with 2 < l < |N|/4 must
    have kronecker(N, l) != 1.  Vacuously true when the range is empty.
    The split primes are walked by Kronecker symbol alone, independent of
    mazur_prime_set's bitset sieve, up to the first witness."""
    if not is_fundamental(N):
        raise ValueError(f"{N} is not a fundamental discriminant")
    for l in split_primes(ctx):
        if 4 * l >= abs(N):  # l < |N|/4  <=>  4l < |N|
            return True
        if l > 2 and kronecker(N, l) == 1:
            return False


def mazur_prime_set(ctx: FieldContext, bound: int) -> MazurResult:
    """Primes p <= bound with p = 1 mod 4 passing the membership test.

    Only these can enter the final union through the discriminant set: a
    prime equal to a fundamental discriminant is 1 mod 4.

    Bit i of the int `alive` stands for n = 4i + 1 <= bound.  For each odd
    split prime l in ascending order, the bits with i >= l (n > 4l) whose
    n mod l is a nonzero square are cleared: an l-bit pattern of the
    classes to keep is tiled by shift-or doubling and ANDed in.  The loop
    stops at the first l with no live bit i >= l.  Invariant: every live
    n is 0 or a nonresidue mod each odd split prime l < n/4.  A prime p
    is never 0 mod such an l, so the members are exactly the live n that
    are prime.
    """
    if bound < 5:
        raise ValueError("mazur_prime_set: bound must be >= 5")
    alive = (1 << ((bound - 1) // 4 + 1)) - 1
    for l in split_primes(ctx):
        if l == 2:
            continue
        size = alive.bit_length()
        if size <= l:
            break  # every live n = 4i + 1 has i < l, so n < 4l
        inv4 = pow(4, -1, l)
        keep = (1 << l) - 1
        for x in range(1, (l + 1) // 2):  # each nonzero square once
            keep &= ~(1 << ((x * x - 1) * inv4 % l))  # the i with 4i + 1 = x^2 mod l
        width = l
        while width < size:
            keep |= keep << width
            width *= 2
        alive &= keep | ((1 << l) - 1)
    members = tuple(4 * i + 1 for i in range(alive.bit_length())
                    if alive >> i & 1 and is_prime(4 * i + 1))
    return MazurResult(bound=bound, members=members)
