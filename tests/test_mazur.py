import pytest

from quatbound.arith import kronecker, primes_up_to
from quatbound.mazur import PRESIEVE_PRIMES, is_in_mazur, mazur_prime_set
from quatbound.quadfield import is_fundamental, splitting_type


def mazur_discriminants(ctx, bound: int) -> tuple[int, ...]:
    """All fundamental discriminants N with |N| <= bound passing the
    membership test: the full set whose prime members mazur_prime_set
    searches."""
    return tuple(N for N in range(-bound, bound + 1)
                 if N not in (0, 1) and is_fundamental(N) and is_in_mazur(ctx, N))


def largest_gap_tail(res) -> int:
    """Distance from the largest member of a MazurResult to its bound."""
    return res.bound - res.members[-1] if res.members else res.bound


def independent_recheck(ctx, N: int) -> bool:
    """Re-verify membership with a direct Legendre loop (symbols by
    exponentiation, no shared code path with kronecker)."""
    for l in primes_up_to(max(3, abs(N))):
        if l == 2 or 4 * l >= abs(N):
            continue
        if splitting_type(ctx, l) != "split":
            continue
        r = pow(N % l, (l - 1) // 2, l)
        if r == 1:
            return False
    return True


def reference_mazur_prime_set(ctx, bound: int) -> tuple[tuple[int, ...], int]:
    """The per-candidate search that the presieve replaced: every prime
    p = 1 mod 4 up to bound, against every odd split prime l < p/4.
    Returns (members, largest_gap_tail)."""
    members = []
    split_cache: dict[int, bool] = {}
    candidates = [p for p in primes_up_to(bound) if p % 4 == 1]
    small_primes = primes_up_to(max(5, bound // 4 + 1))
    for p in candidates:
        ok = True
        for l in small_primes:
            if 4 * l >= p:
                break
            if l == 2:
                continue
            if l not in split_cache:
                split_cache[l] = splitting_type(ctx, l) == "split"
            if split_cache[l] and kronecker(p, l) == 1:
                ok = False
                break
        if ok:
            members.append(p)
    tail = bound - members[-1] if members else bound
    return tuple(members), tail


def assert_matches_reference(ctx, bound: int) -> None:
    res = mazur_prime_set(ctx, bound)
    assert res.bound == bound
    assert (res.members, largest_gap_tail(res)) == reference_mazur_prime_set(ctx, bound)


class TestIsInMazur:
    def test_examples(self, ctx20):
        assert is_in_mazur(ctx20, 5)  # vacuous range
        assert not is_in_mazur(ctx20, 13)  # l=3 splits in k and in Q(sqrt(13))
        assert is_in_mazur(ctx20, 17)

    def test_non_fundamental_rejected(self, ctx20):
        with pytest.raises(ValueError):
            is_in_mazur(ctx20, 20)  # 20 = 4*5 with 5 = 1 mod 4: not fundamental


class TestMazurPrimeSet:
    def test_small_bound_examples(self, ctx20):
        res = mazur_prime_set(ctx20, 30)
        assert 5 in res.members and 17 in res.members
        assert 13 not in res.members and 29 not in res.members

    def test_bound_five(self, contexts):
        for ctx in contexts.values():
            assert mazur_prime_set(ctx, 5).members == (5,)

    def test_five_always_member(self, contexts):
        for ctx in contexts.values():
            assert 5 in mazur_prime_set(ctx, 100).members

    def test_members_all_one_mod_four_primes(self, ctx20):
        res = mazur_prime_set(ctx20, 10**4)
        prime_set = set(primes_up_to(10**4))
        for p in res.members:
            assert p in prime_set and p % 4 == 1

    def test_independent_legendre_recheck_1e5(self, ctx20):
        res = mazur_prime_set(ctx20, 10**5)
        for p in res.members:
            assert independent_recheck(ctx20, p), p
        # and no member was missed among 1 mod 4 primes
        missed = [
            p
            for p in primes_up_to(10**5)
            if p % 4 == 1 and p not in set(res.members) and independent_recheck(ctx20, p)
        ]
        assert missed == []

    def test_tail_gap(self, ctx20):
        res = mazur_prime_set(ctx20, 10**4)
        assert largest_gap_tail(res) == 10**4 - max(res.members)

    def test_density_decay_warning_only(self, ctx20):
        res = mazur_prime_set(ctx20, 10**5)
        counts = []
        for n in (1, 2, 3, 4):
            counts.append(sum(1 for p in res.members if 10**n <= p < 10**(n + 1)))
        if any(b > a for a, b in zip(counts, counts[1:])):
            import warnings

            warnings.warn("mazur density did not decay monotonically")


class TestPresieveOracle:
    @pytest.mark.parametrize(
        "bound", [5, 6, 7, 13, 14, 17, 18, 30, 100, 10**3, 10**4, 10**5]
    )
    def test_every_field(self, contexts, bound):
        for ctx in contexts.values():
            assert_matches_reference(ctx, bound)

    def test_1e6(self, ctx20):
        assert_matches_reference(ctx20, 10**6)

    def test_presieve_runs_out_of_split_primes(self, contexts):
        # with l_K the K-th odd split prime, a bound <= 4 * l_K leaves fewer
        # than K split primes below bound/4, so the presieve stops early;
        # the bounds above it hand over from the presieve to the later check
        for ctx in contexts.values():
            split = [l for l in primes_up_to(2000) if l > 2 and splitting_type(ctx, l) == "split"]
            l_k = split[PRESIEVE_PRIMES - 1]
            for bound in (4 * l_k - 3, 4 * l_k, 4 * l_k + 1, 4 * l_k + 5, 8 * l_k):
                assert_matches_reference(ctx, bound)


class TestMazurDiscriminants:
    def test_vacuous_small(self, ctx20):
        members = mazur_discriminants(ctx20, 8)
        for N in (-3, -4, 5, -7, 8, -8):
            assert N in members

    def test_own_discriminant_excluded(self, ctx20):
        assert -20 not in mazur_discriminants(ctx20, 24)  # l=3 splits in k and in Q(sqrt(-20))

    def test_monotone_prefix(self, ctx20):
        small = mazur_discriminants(ctx20, 100)
        large = mazur_discriminants(ctx20, 1000)
        assert set(small) == {N for N in large if abs(N) <= 100}
