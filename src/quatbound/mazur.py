"""Search for fundamental discriminants N such that no odd prime below
|N|/4 splitting in k splits in Q(sqrt(N)); finite by Mazur-type results,
searched here up to a configurable bound."""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import count, islice

from .arith import is_prime, kronecker, primes_up_to
from .quadfield import FieldContext, is_fundamental, splitting_type

# Odd split primes whose quadratic-residue classes mazur_prime_set clears
# with bytearray slices before any survivor reaches kronecker.
PRESIEVE_PRIMES = 16


@dataclass(frozen=True)
class MazurResult:
    bound: int
    members: tuple[int, ...]


def is_in_mazur(ctx: FieldContext, N: int) -> bool:
    """Membership test: every split-in-k prime l with 2 < l < |N|/4 must
    have kronecker(N, l) != 1.  Vacuously true when the range is empty."""
    if not is_fundamental(N):
        raise ValueError(f"{N} is not a fundamental discriminant")
    limit = abs(N)  # l < |N|/4  <=>  4l < |N|
    for l in _odd_primes_below(limit):
        if splitting_type(ctx, l) == "split" and kronecker(N, l) == 1:
            return False
    return True


def _odd_primes_below(four_times_limit: int):
    """Odd primes l with 4*l < four_times_limit."""
    cap = (four_times_limit - 1) // 4
    if cap < 3:
        return []
    return [l for l in primes_up_to(cap) if l > 2]


def _odd_split_primes(ctx: FieldContext):
    """The odd primes split in k, ascending and without end.  Primes are
    sieved in doubling ranges, so only the primes consumed get classified."""
    lo, hi = 3, 1024
    while True:
        primes = primes_up_to(hi)
        for l in primes[bisect_left(primes, lo):]:
            if splitting_type(ctx, l) == "split":
                yield l
        lo, hi = hi + 1, 2 * hi


def mazur_prime_set(ctx: FieldContext, bound: int) -> MazurResult:
    """Primes p <= bound with p = 1 mod 4 passing the membership test.

    Only these can enter the final union through the discriminant set: a
    prime equal to a fundamental discriminant is 1 mod 4.

    For a prime p > 4l, kronecker(p, l) == 1 exactly when p mod l is a
    nonzero square.  So a bytearray over n = 4i + 1 <= bound first clears,
    for each of the first PRESIEVE_PRIMES odd split primes l, every n > 4l
    in a nonzero square class mod l.  Each survivor is then proved prime
    and checked with kronecker against the later split primes below p/4.
    """
    if bound < 5:
        raise ValueError("mazur_prime_set: bound must be >= 5")
    split_primes = _odd_split_primes(ctx)
    size = (bound - 1) // 4 + 1  # alive[i] stands for n = 4i + 1 <= bound
    alive = bytearray([1]) * size
    for l in islice(split_primes, PRESIEVE_PRIMES):
        if l >= size:
            break  # n > 4l means i >= l: no n <= bound is left to clear
        inv4 = pow(4, -1, l)
        for r in {x * x % l for x in range(1, (l + 1) // 2)}:
            start = l + (r - 1) * inv4 % l  # least i >= l with 4i + 1 = r mod l
            alive[start::l] = bytes(len(range(start, size, l)))
    later: list[int] = []
    members = []
    i = alive.find(1)
    while i >= 0:
        p = 4 * i + 1
        if is_prime(p) and _passes_later(p, later, split_primes):
            members.append(p)
        i = alive.find(1, i + 1)
    return MazurResult(bound=bound, members=tuple(members))


def _passes_later(p: int, later: list[int], split_primes) -> bool:
    """kronecker(p, l) != 1 for each split prime l < p/4 past the presieve.
    `later` holds those primes drawn from `split_primes` so far; more are
    drawn only while p has not been rejected."""
    for j in count():
        if j == len(later):
            later.append(next(split_primes))
        l = later[j]
        if 4 * l >= p:
            return True
        if kronecker(p, l) == 1:
            return False

