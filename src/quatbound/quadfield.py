"""Imaginary quadratic fields: discriminants, ramified primes, prime
splitting, and the field context that carries the class data."""

from collections import namedtuple
from functools import cached_property
from itertools import count

from .arith import FactoredInteger, factor, kronecker, prime_stream


def _factored(n: int) -> FactoredInteger:
    # trial division alone completes factor(n) for |n| < 10^12: every part
    # it leaves below the trial bound squared is prime
    f = factor(n)
    if not f.complete:
        raise ValueError(f"{n} could not be factored completely")
    return f


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in _factored(n).prime_powers)


def is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


class FieldContext(namedtuple("FieldContext", "D ram_primes")):
    """The field k = Q(sqrt(D)): fundamental discriminant and ramified
    primes.  One generating-set walk (classgroup.generating_set) gives the
    greedy generating set of the class group, its reduced forms `classes`
    (as many as the class number) and its exponent h; that walk and the
    list of split primes are computed once, on first use, and kept in the
    instance dict with the primes' forms, which is why it has no __slots__."""

    @cached_property
    def _split(self) -> tuple:
        """The split primes found so far and the walk that finds the rest."""
        return [], (l for l in prime_stream() if kronecker(self.D, l) == 1)

    @cached_property
    def _forms(self) -> dict:  # classgroup.SplitPrime.above's, by l
        return {}

    @cached_property
    def _class_group(self) -> tuple:
        """The greedy generating set, its classes and their exponent."""
        from .classgroup import generating_set

        return generating_set(self)

    @property
    def generators(self) -> tuple:
        return self._class_group[0]

    @property
    def classes(self) -> frozenset:
        return self._class_group[1]

    @property
    def class_number(self) -> int:
        return len(self.classes)

    @property
    def h(self) -> int:
        return self._class_group[2]


def make_field(d_or_D: int) -> FieldContext:
    """Build the context for Q(sqrt(d)) from a squarefree d < 0 or a
    fundamental discriminant D < 0.  D is n = 1 mod 4, n = 4m with
    m = 2, 3 mod 4, or 4n for n = 2, 3 mod 4: its squarefree test and its
    ramified primes are read off one factorization, of m or of n."""
    n = d_or_D
    if n >= 0:
        raise ValueError("not imaginary: input must be negative")
    core = n // 4 if n % 4 == 0 and n // 4 % 4 in (2, 3) else n
    f = _factored(core)
    # a 4 | n other than the above is a square factor of core = n
    if any(e > 1 for _, e in f.prime_powers):
        raise ValueError(
            f"{n} is neither squarefree nor a fundamental discriminant"
        )
    D = n if n % 4 in (0, 1) else 4 * n
    # 2 ramifies in every even D, also where it does not divide core
    return FieldContext(D=D, ram_primes=frozenset(f.primes + [2] if D % 2 == 0 else f.primes))


def splitting_type(ctx: FieldContext, p: int) -> str:
    s = kronecker(ctx.D, p)
    if s == 0:
        return "ramified"
    return "split" if s == 1 else "inert"


def split_primes(ctx: FieldContext):
    """The primes split in k, ascending and without end: the field's one
    list read by index, which a walk past its end extends for every later
    walk, so each prime is classified once per field."""
    found, rest = ctx._split
    for i in count():
        if i == len(found):
            found.append(next(rest))
        yield found[i]
