import inspect

import pytest

from pipeline_reference import component_rules, in_mazur
from quatbound import mazur, quadfield
from quatbound.arith import kronecker, primes_up_to
from quatbound.mazur import check_mazur_bound, is_in_mazur, mazur_prime_set
from quatbound.quadfield import is_fundamental, make_field, split_primes, splitting_type

# The fields of the benchmark's small_panel workload.
SMALL_PANEL_FIELDS = (-20, -23, -84, -71, -419, -3299)
# Every field the benchmark runs at the default bound of 10^6: the
# small_panel fields and the two large_h fields.
BENCHMARK_1E6_FIELDS = SMALL_PANEL_FIELDS + (-1151, -2999)
ORACLE_BOUNDS = (5, 6, 7, 13, 14, 17, 18, 30, 100, 10**3, 10**4, 10**5)


def mazur_discriminants(ctx, bound: int) -> tuple[int, ...]:
    """All fundamental discriminants N with |N| <= bound passing the
    membership test: the full set whose prime members mazur_prime_set
    searches."""
    return tuple(N for N in range(-bound, bound + 1)
                 if N not in (0, 1) and is_fundamental(N) and is_in_mazur(ctx, N))


def largest_gap_tail(res) -> int:
    """Distance from the largest member of a MazurResult to its bound."""
    return res.bound - res.members[-1] if res.members else res.bound


def reference_mazur_prime_set(ctx, bound: int) -> tuple[int, ...]:
    """The per-candidate search that the sieve replaced: every prime
    p = 1 mod 4 up to bound, against every odd split prime l < p/4."""
    return tuple(filter(component_rules(ctx.D, {}, (), bound)["mazur_primes"],
                        primes_up_to(bound)))


def assert_matches_reference(ctx, bound: int, search=mazur_prime_set) -> None:
    res = search(ctx, bound)
    assert res.bound == bound
    assert res.members == reference_mazur_prime_set(ctx, bound)


def mutant_caught(contexts, kept: str, mutated: str) -> bool:
    """Whether the oracle comparison catches mazur_prime_set with the one
    line `kept` of its source replaced by `mutated`."""
    source = inspect.getsource(mazur.mazur_prime_set)
    assert source.count(kept) == 1
    namespace = dict(vars(mazur))
    exec(source.replace(kept, mutated), namespace)
    mutant = namespace["mazur_prime_set"]
    for ctx in contexts.values():
        for bound in ORACLE_BOUNDS:
            try:
                assert_matches_reference(ctx, bound, search=mutant)
            except AssertionError:
                return True
    return False


class TestIsInMazur:
    def test_examples(self, ctx20):
        assert is_in_mazur(ctx20, 5)  # vacuous range
        assert not is_in_mazur(ctx20, 13)  # l=3 splits in k and in Q(sqrt(13))
        assert is_in_mazur(ctx20, 17)

    def test_non_fundamental_rejected(self, ctx20):
        with pytest.raises(ValueError):
            is_in_mazur(ctx20, 20)  # 20 = 4*5 with 5 = 1 mod 4: not fundamental

    def test_matches_independent_recheck(self, contexts):
        # every fundamental N with |N| <= 4000, members and non-members
        for ctx in contexts.values():
            split = [l for l in primes_up_to(1000)
                     if l > 2 and pow(ctx.D % l, (l - 1) // 2, l) == 1]
            got = [is_in_mazur(ctx, N) for N in range(-4000, 4001)
                   if N not in (0, 1) and is_fundamental(N)]
            expected = [in_mazur(N, split) for N in range(-4000, 4001)
                        if N not in (0, 1) and is_fundamental(N)]
            assert got == expected and 0 < sum(got) < len(got)
            # a fresh context, whose one list of split primes every call
            # extends, in an order that is not ascending
            fresh = make_field(ctx.D)
            shared = [is_in_mazur(fresh, N) for N in range(4000, -4001, -1)
                      if N not in (0, 1) and is_fundamental(N)]
            assert shared == expected[::-1]
            odd = [l for l in fresh._split[0] if l > 2]
            assert odd == split[:len(odd)]

    def test_stops_at_first_witness(self, monkeypatch):
        # l = 3 splits in k and in Q(sqrt(N)) for N = 4*10^7 + 9 (= 1 mod 3):
        # no split prime past it is classified
        N = 4 * 10**7 + 9
        assert is_fundamental(N) and kronecker(N, 3) == 1
        ctx = make_field(-20)
        walked = []

        def recording(ctx):
            for l in real(ctx):
                walked.append(l)
                yield l

        real = mazur.split_primes
        monkeypatch.setattr(mazur, "split_primes", recording)
        assert not is_in_mazur(ctx, N)
        assert walked == [3] and ctx._split[0] == [3]

    def test_shared_walk_finds_each_prime_once(self, monkeypatch):
        # every call reads the field's one list of split primes; a call
        # classifies primes only past those that earlier calls found
        ctx = make_field(-20)
        classified = []

        def recording(D, l):
            classified.append(l)
            return real(D, l)

        real = quadfield.legendre
        monkeypatch.setattr(quadfield, "legendre", recording)
        N = 4 * 10**7 + 9  # l = 3 is a witness
        members = [p for p in primes_up_to(2000) if p % 4 == 1 and is_in_mazur(ctx, p)]
        assert not is_in_mazur(ctx, N)
        found = ctx._split[0]
        assert members and classified == primes_up_to(found[-1])
        assert found == [l for l in classified if kronecker(ctx.D, l) == 1]
        assert 4 * found[-1] >= max(members)

    def test_passes_may_interleave(self):
        # every pass reads the one list by index, wherever the others are
        ctx = make_field(-20)
        a, b = split_primes(ctx), split_primes(ctx)
        first = [next(a) for _ in range(3)]
        second = [next(b) for _ in range(5)]
        first += [next(a) for _ in range(2)]
        assert first == second == ctx._split[0] == [3, 7, 23, 29, 41]


class TestMazurPrimeSet:
    def test_split_list_matches_kronecker(self):
        # every fundamental D in [-3000, -3]: the split primes that the
        # sieve at 10^6 walks to its stop, classified by arith.legendre,
        # are those that kronecker finds split
        for D in range(-3, -3001, -1):
            if is_fundamental(D):
                ctx = make_field(D)
                mazur_prime_set(ctx, 10**6)
                found = ctx._split[0]
                assert found == [l for l in primes_up_to(found[-1])
                                 if kronecker(D, l) == 1], D

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
    @pytest.mark.parametrize("bound", ORACLE_BOUNDS)
    def test_every_field(self, contexts, bound):
        for ctx in contexts.values():
            assert_matches_reference(ctx, bound)

    def test_1e6(self):
        for D in BENCHMARK_1E6_FIELDS:
            assert_matches_reference(make_field(D), 10**6)

    def test_presieve_runs_out_of_split_primes(self, contexts):
        # the sieve stops at the first odd split l_k with no live n > 4 * l_k;
        # bounds on both sides of 4 * l_k move that stop by one prime
        for ctx in contexts.values():
            split = [l for l in primes_up_to(2000) if l > 2 and splitting_type(ctx, l) == "split"]
            for l_k in split[:24]:
                for bound in (4 * l_k - 3, 4 * l_k, 4 * l_k + 1, 4 * l_k + 5):
                    assert_matches_reference(ctx, bound)

    def test_small_panel_prefix_1e6_of_1e7(self):
        for D in SMALL_PANEL_FIELDS:
            ctx = make_field(D)
            small = mazur_prime_set(ctx, 10**6).members
            large = mazur_prime_set(ctx, 10**7).members
            assert small == tuple(p for p in large if p <= 10**6), D

    def test_mutant_clearing_i_below_l_fails(self, contexts):
        # a sieve that also clears the classes with i < l (n < 4l) in a
        # group's first period, where (n/l) does not matter
        assert mutant_caught(contexts, "first &= keep | ((1 << m) - 1)", "first &= keep")

    def test_mutant_first_member_only_fails(self, contexts):
        # a sieve that applies only the first member's rule of each group
        assert mutant_caught(contexts, "for m in group:", "for m in group[:1]:")


class TestBoundCheck:
    @pytest.mark.parametrize("bound", [4, -7])
    def test_below_5_rejected(self, ctx20, bound):
        # the rule the CLI checks before any class data, shared
        with pytest.raises(ValueError, match="^mazur_prime_set: bound must be >= 5$"):
            mazur_prime_set(ctx20, bound)
        with pytest.raises(ValueError, match="^mazur_prime_set: bound must be >= 5$"):
            check_mazur_bound(bound)


class TestKeepPatternCache:
    def test_matches_definition(self):
        # bit i is clear exactly when 4i + 1 is a nonzero square mod l
        for l in primes_up_to(2000)[1:]:
            squares = {x * x % l for x in range(1, l)}
            expected = sum(1 << i for i in range(l) if (4 * i + 1) % l not in squares)
            assert mazur._keep_pattern(l) == expected, l

    def test_order_and_clear_change_nothing(self):
        def members(fields):
            return {D: mazur_prime_set(make_field(D), 10**6).members for D in fields}

        mazur._keep_pattern.cache_clear()
        in_order = members(SMALL_PANEL_FIELDS)
        # one pattern per odd split prime that the six searches reach
        assert mazur._keep_pattern.cache_info().currsize == 42
        reverse = members(SMALL_PANEL_FIELDS[::-1])
        mazur._keep_pattern.cache_clear()
        reverse_cold = members(SMALL_PANEL_FIELDS[::-1])
        mazur._keep_pattern.cache_clear()
        assert in_order == reverse == reverse_cold == members(SMALL_PANEL_FIELDS)


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
