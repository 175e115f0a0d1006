"""Reference A1/A2 intersections for the weilsets tests: the gcd of each
nonzero element of the first member with the gcd of the whole products of
the later members' nonzero elements.  weilsets.intersection_set reduces
the later members modulo small gcds instead; this is the independent path
to its elements, and is used only as the oracle they are compared
against."""

from collections.abc import Sequence
from math import gcd, prod


def reference_intersection(members: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The sorted distinct gcd(v, P_2, P_3, ...) other than 1, over the
    nonzero v of members[0], where P_i is the product of the nonzero
    elements of members[i - 1].  A lone member gives each |v|."""
    rest = 0
    for m in members[1:]:
        rest = gcd(rest, prod(w for w in m if w != 0))
    return tuple(sorted({gcd(v, rest) for v in members[0] if v != 0} - {1}))
