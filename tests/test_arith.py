import os
import random
from bisect import bisect_right
from functools import cache
from itertools import islice
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipeline_reference import all_primes
from quatbound import arith
from quatbound.arith import (
    _MR_BASE_LIMITS,
    _MR_BASES,
    FactorBudget,
    _miller_rabin_composite,
    factor,
    is_prime,
    kronecker,
    legendre,
    prime_status,
    primes_up_to,
)
from quatbound.cli import main
from quatbound.quadfield import make_field
from quatbound.weilsets import _lucas_parts
from test_weilsets import generators_A3


def legendre_euler(a, p):
    """Independent Legendre symbol for odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return r if r <= 1 else -1


class TestKronecker:
    def test_examples(self):
        assert kronecker(-20, 2) == 0
        assert kronecker(-20, 3) == 1
        assert kronecker(-20, 11) == -1

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            kronecker(5, 0)

    def test_matches_euler_criterion_at_odd_primes(self):
        rng = random.Random(7)
        for p in primes_up_to(500):
            if p == 2:
                continue
            for _ in range(5):
                a = rng.randrange(-10**6, 10**6)
                assert kronecker(a, p) == legendre_euler(a, p), (a, p)

    @given(
        st.integers(-10**9, 10**9),
        st.integers(-10**9, 10**9),
        st.integers(-10**4, 10**4).filter(lambda n: n != 0),
    )
    def test_multiplicative_in_numerator(self, a, b, n):
        assert kronecker(a, n) * kronecker(b, n) == kronecker(a * b, n)

    def test_reciprocity_spot_check(self):
        odd_primes = [p for p in primes_up_to(100) if p > 2]
        for p in odd_primes:
            for q in odd_primes:
                if p == q:
                    continue
                sign = (-1) ** ((p - 1) // 2 * (q - 1) // 2)
                assert kronecker(p, q) * kronecker(q, p) == sign


class TestLegendre:
    def test_matches_kronecker_at_primes(self):
        # every a in [-p, p], negatives and the multiples -p, 0, p included
        for p in primes_up_to(2000):
            for a in range(-max(p, 16), max(p, 16) + 1):
                assert legendre(a, p) == kronecker(a, p), (a, p)

    def test_composite_or_even_modulus_raises(self):
        # 2^7 = 8 mod 15 is none of 0, 1, 14; an even modulus above 2, and
        # a modulus below 2, is no prime either
        for a, n in ((2, 15), (3, 4), (5, 1), (5, 0), (5, -3)):
            with pytest.raises(ValueError, match="not a prime"):
                legendre(a, n)


class TestIsPrime:
    LIMIT = 41 * 41

    def test_examples(self):
        assert is_prime(2)
        assert not is_prime(561)  # 3 * 11 * 17
        assert is_prime(1000000007)

    def test_agrees_with_sieve_below_1e6(self):
        sieve = set(all_primes(10**6))
        for n in range(10**6):
            assert is_prime(n) == (n in sieve), n

    def test_witness_limits_are_strong_pseudoprimes(self):
        # the k-th limit passes the first k bases and is still found composite
        for k, n in enumerate(_MR_BASE_LIMITS, start=1):
            assert not any(_miller_rabin_composite(n, a) for a in _MR_BASES[:k]), n
            assert prime_status(n) == "composite", n

    def test_large_probable(self):
        # 10^25 + 13 is the least prime above 10^25, beyond the
        # deterministic witness threshold
        assert prime_status(10**25 + 13) == "probable"
        assert prime_status(10**25 + 11) == "composite"
        assert prime_status((10**10 + 19) ** 2) == "composite"

    def test_prime_status_against_a_sieve(self):
        # below 41^2 a number no prime up to 37 divides is prime; 41^2 itself
        # and the composites past it go to Miller-Rabin
        primes = set(all_primes(4 * self.LIMIT))
        for n in range(-5, 4 * self.LIMIT):
            assert prime_status(n) == ("prime" if n in primes else "composite"), n


def trial_division_primes(bound):
    return [n for n in range(2, bound + 1) if all(n % d for d in range(2, isqrt(n) + 1))]


class TestPrimesUpTo:
    def test_examples(self):
        assert primes_up_to(23) == [2, 3, 5, 7, 11, 13, 17, 19, 23]
        assert primes_up_to(2) == [2]
        assert len(primes_up_to(10**6)) == 78498

    def test_every_bound_to_5000(self):
        naive = trial_division_primes(5000)
        for n in range(2, 5001):
            assert primes_up_to(n) == naive[:bisect_right(naive, n)], n

    def test_bounds_around_prime_squares(self):
        # from n = p^2 on the sieve loops over p, and p^2 is the first number
        # it clears; the reference sieve is checked against trial division
        # up to 10^4
        reference = all_primes(997**2 + 1)
        assert reference[:1229] == trial_division_primes(10**4)
        for p in trial_division_primes(999):
            for n in (p * p - 1, p * p, p * p + 1):
                assert primes_up_to(n) == reference[:bisect_right(reference, n)], n

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            primes_up_to(1)


class TestPrimeStream:
    """Every walk reads the process's one list of all the primes, which
    grows by segments (4, 16], (16, 64], ... as walks reach past it."""

    # the last prime up to 2^k and the first above it, for 2^13 and 2^17
    # and the segment edges 4^7 = 2^14, 4^8 = 2^16 and 4^9 = 2^18
    EDGES = ((8191, 8209), (16381, 16411), (65521, 65537), (131071, 131101),
             (262139, 262147))

    def test_prefix_through_2_18(self, fresh):
        reference = all_primes(2**18 + 16)
        # the first walk sieves every segment, the second reads them
        for _ in range(2):
            assert list(islice(arith.prime_stream(), len(reference))) == reference
        for below, above in self.EDGES:
            i = bisect_right(reference, below)
            assert reference[i - 1 : i + 1] == [below, above]
            assert below < 2 ** (above.bit_length() - 1) < above

    def test_sieves_each_number_once(self, fresh, segment_calls):
        calls = segment_calls
        assert list(islice(arith.prime_stream(), 1000))[-1] == 7919
        # disjoint and contiguous: (4, 16], (16, 64], ..., (4096, 16384]
        assert calls == [(4**k, 4 ** (k + 1)) for k in range(1, 7)]
        # a second walk, and a primes_up_to within reach, sieve nothing
        walk = arith.prime_stream()
        assert list(islice(walk, 1000))[-1] == 7919
        assert primes_up_to(16384)[-1] == 16381
        assert len(calls) == 6
        # past it, primes_up_to sieves as far as its bound alone, and a walk
        # past that the next segment, 4 times as wide: each once for every
        # later walk
        assert primes_up_to(16385)[-1] == 16381
        assert next(walk) == 7927
        for _ in range(2):
            assert list(islice(arith.prime_stream(), 1900, 1901)) == [16411]
        assert calls[6:] == [(4**7, 4**7 + 1), (4**7 + 1, 4 * (4**7 + 1))]

    def test_returned_list_is_a_copy(self, fresh):
        got = primes_up_to(100)
        got[0] = 4
        del got[1]
        got.append(101)
        assert primes_up_to(100) == all_primes(100)
        assert list(islice(arith.prime_stream(), 26)) == all_primes(101)


class TestIsqrt:
    # math.isqrt is the contract surface; pin the stated examples
    def test_examples(self):
        assert isqrt(12) == 3
        assert isqrt(0) == 0
        assert isqrt(4 * 10**40) == 2 * 10**20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            isqrt(-1)


class TestFactor:
    def test_constructed_examples(self):
        f = factor(2 * 3**24)
        assert f.prime_powers == ((2, 1), (3, 24))
        assert f.cofactor is None
        f = factor(-(3**16))
        assert f.reconstruct() == -(3**16)
        assert f.prime_powers == ((3, 16),)

    def test_budget_exhaustion_yields_cofactor(self):
        p = 100000000000000000000000012349  # 30-digit primes
        q = 100000000000000000000000098811
        assert is_prime(p) and is_prime(q)
        tiny = FactorBudget(trial_bound=100, rho_iterations=10)
        f = factor(p * q, tiny)
        assert f.prime_powers == ()
        assert f.cofactor == p * q
        assert not f.complete

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_probable_prime_stays_cofactor(self):
        # BPSW passes for 2^89 - 1 and P98 but proves neither prime
        m89, p98 = 2**89 - 1, 242158526118349748939022266021
        assert prime_status(m89) == prime_status(p98) == "probable"
        f = factor(3 * m89)
        assert f.complete is False
        assert f.prime_powers == ((3, 1),) and f.cofactor == m89
        f = factor(p98)
        assert f.prime_powers == () and f.cofactor == p98

    @pytest.mark.parametrize("trial_bound", [-5, 0, 1])
    def test_trial_bound_below_2_rejected(self, trial_bound):
        # every part below trial_bound**2 would be taken for prime: with
        # trial_bound -5, 9 was listed as a prime factor of 18
        with pytest.raises(ValueError):
            FactorBudget(trial_bound=trial_bound)
        # namedtuple's _replace builds a record without __new__ unless told
        with pytest.raises(ValueError):
            FactorBudget()._replace(trial_bound=trial_bound)

    @pytest.mark.parametrize("rho_iterations", [-1, -10**7])
    def test_negative_rho_iterations_rejected(self, rho_iterations):
        # -1 ran as no rho at all and left an uncertified report at exit 0
        with pytest.raises(ValueError, match="rho iterations must be >= 0"):
            FactorBudget(rho_iterations=rho_iterations)
        with pytest.raises(ValueError, match="rho iterations must be >= 0"):
            FactorBudget()._replace(rho_iterations=rho_iterations)

    def test_zero_rho_iterations_run_no_rho(self):
        # 0 stays legal: no torus run, no rho, so a product of two primes
        # above the trial bound stays a cofactor
        f = factor(1000003 * 1000033, FactorBudget(trial_bound=100, rho_iterations=0))
        assert f.prime_powers == () and f.cofactor == 1000003 * 1000033

    def test_smallest_trial_bound(self):
        f = factor(18, FactorBudget(trial_bound=2))
        assert f.prime_powers == ((2, 1), (3, 2)) and f.complete

    def test_reconstruction_random(self):
        rng = random.Random(1234)
        budget = FactorBudget()
        for _ in range(10**3):
            n = rng.randrange(1, 10**18)
            if rng.random() < 0.5:
                n = -n
            f = factor(n, budget)
            assert f.cofactor is None
            assert f.reconstruct() == n
            assert all(is_prime(p) for p, _ in f.prime_powers)
            assert list(f.primes) == sorted(set(f.primes))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 10**12))
    def test_reconstruction_hypothesis(self, n):
        f = factor(n)
        assert f.complete and f.reconstruct() == n


class TestTorusRunInFactor:
    """factor()'s one p+-1 run: the torus run, for a part given a torus, under
    the gate that its pi(T) steps fit in the rho budget; any other part goes
    from the square check to rho."""

    # -2999's Psi_876 leaves this 104-bit part after trial division; rho
    # spends 10^6 iterations on it in vain, while its 43-bit prime has
    # p - 1 = 2^6 * 3^3 * 17 * 67 * 73 * 43943
    PSI_876_PART = 16326167728726390155402199602193
    # the composite parts that reach rho on bound -1151 and -2999, left of
    # Psi_492, Psi_292 and Psi_876 of (m, l) = (-1, 2): their torus is
    # (D, l) = (-7, 2), D = m^2 - 4l
    LARGE_H_PARTS = (4626154257697182281987, 5022138166514252974259, PSI_876_PART)

    def test_splits_psi_876_part_without_rho(self, monkeypatch):
        monkeypatch.setattr(arith, "_brent_rho", lambda n, max_iters: None)
        f = factor(self.PSI_876_PART, FactorBudget(rho_iterations=10**6), (-7, 2))
        assert f.complete
        assert f.prime_powers == ((6313643057089, 1), (2585855358166829137, 1))

    @staticmethod
    def record_stage2(monkeypatch):
        """The n of each p+-1 run's stage 2, which finds nothing: every run
        that passes its guard ends in one _pm1_stage2 call."""
        calls = []
        monkeypatch.setattr(arith, "_pm1_stage2",
                            lambda n, rows, v, acc: calls.append(n))
        return calls

    @pytest.mark.parametrize("trial_bound, rho_iterations", [(50, 2), (100, 10)])
    def test_one_run_with_a_torus_only(self, monkeypatch, trial_bound, rho_iterations):
        calls = self.record_stage2(monkeypatch)
        p = 100000000000000000000000012349
        q = 100000000000000000000000098811
        factor(p * q, FactorBudget(trial_bound, rho_iterations))
        factor(p * q, FactorBudget(trial_bound, rho_iterations), (-7, 2))
        assert calls == []
        factor(p * q, FactorBudget(rho_iterations=10**5))  # 78,498 trial primes fit
        assert calls == []
        factor(p * q, FactorBudget(rho_iterations=10**5), (-7, 2))
        assert calls == [p * q]

    def test_gate_at_pi_of_trial_bound(self, monkeypatch):
        # the torus run makes pi(10^6) = 78,498 steps: it runs when they fit
        # in the rho budget, and not at one iteration fewer
        calls = self.record_stage2(monkeypatch)
        n = 1000003 * 1000033
        assert factor(n, FactorBudget(rho_iterations=78497)).complete
        assert factor(n, FactorBudget(rho_iterations=78497), (-7, 2)).complete
        assert factor(n, FactorBudget(rho_iterations=78498)).complete
        assert calls == []
        assert factor(n, FactorBudget(rho_iterations=78498), (-7, 2)).complete
        assert calls == [n]

    def test_gate_sieves_nothing_past_trial_division(self, monkeypatch, fresh,
                                                     segment_calls):
        # a composite part above T^2 is left only by a walk over every
        # trial prime, so the gate's count of pi(T) finds the list at T: on
        # this input, where pi(10^7) = 664,579 is far above 1000 iterations
        # and the torus run does not run, trial division alone sieves to 10^7
        n = 1000003 * 1000033 * 998244353 * 1000000007
        budget = FactorBudget(10**7, 1000)
        arith._trial_divide(n, arith._PRIMES, budget.trial_bound)
        walked = list(segment_calls)
        assert walked[-1] == (4**11, 10**7)
        monkeypatch.setattr(arith, "_PRIMES", arith._TrialPrimes())
        segment_calls.clear()
        calls = self.record_stage2(monkeypatch)
        f = factor(n, budget, (-7, 2))
        assert segment_calls == walked and calls == []
        assert f.cofactor == 998244353 * 1000000007 and f.reconstruct() == n

    def _oracle_check(self, monkeypatch, n, budget, torus):
        """factor(n, budget, torus) against rho alone: equal wherever both
        are complete."""
        with_run = factor(n, budget, torus)
        with monkeypatch.context() as m:
            m.setattr(arith, "_torus_pm1", lambda n, bound, D, l: None)
            rho_only = factor(n, budget, torus)
        if with_run.complete and rho_only.complete:
            assert with_run == rho_only, n
        return with_run, rho_only

    def test_same_factorization_as_rho_only(self, monkeypatch):
        rng = random.Random(2024)

        def prime_in(lo, hi):
            p = rng.randrange(lo, hi)
            while not is_prime(p):
                p += 1
            return p

        for _ in range(12):
            n = prime_in(10**6, 10**10) * prime_in(10**6, 10**10)
            with_run, rho_only = self._oracle_check(monkeypatch, n, FactorBudget(), (-7, 2))
            assert with_run.complete and rho_only.complete
        budget = FactorBudget(rho_iterations=10**6)
        for n in self.LARGE_H_PARTS:
            with_run, _ = self._oracle_check(monkeypatch, n, budget, (-7, 2))
            assert with_run.complete

    def test_gcd_n_falls_through_to_rho(self):
        # p - 1 = 2^3 * 487 * 773 * 997 and q - 1 = 2^3 * 61 * 487 * 881,
        # with (-7/p) = (-7/q) = 1: the torus run is p-1 on both, and stage 1
        # alone catches both primes, so the gcd is n itself
        p, q = 3002573177, 209374937
        assert kronecker(-7, p) == kronecker(-7, q) == 1
        assert arith._torus_pm1(p * q, 10**6, -7, 2) is None
        f = factor(p * q, FactorBudget(), (-7, 2))
        assert f.complete and f.prime_powers == ((q, 1), (p, 1))


def torus_stage1_trace(n, a, D, exponent):
    """gamma^E + gamma^-E mod n for gamma = (a + sqrt(D))/(a - sqrt(D)), by
    square-and-multiply on x + y*sqrt(D) in (Z/n)[sqrt(D)]: the reference
    for the torus run's Lucas ladder.  gamma has norm 1, so the trace is
    2x."""
    inv = pow(a * a - D, -1, n)
    gx, gy = (a * a + D) * inv % n, 2 * a * inv % n
    x, y = 1, 0
    for bit in bin(exponent)[2:]:
        x, y = (x * x + D * y * y) % n, 2 * x * y % n
        if bit == "1":
            x, y = (x * gx + D * y * gy) % n, (x * gy + y * gx) % n
    return 2 * x % n


class TestTorusPm1:
    """p-1 and p+1 in one run over the norm-1 torus of Q(sqrt(D)), for the
    parts of Psi_d of U(-m, l), D = m^2 - 4l, before rho.  Every part below
    comes from (l, m) = (2, -1), D = -7."""

    # Psi_492 of -1151 after trial division: 570611465293 * 8107362959
    PSI_492_PART = 4626154257697182281987
    # Psi_292 of -2999: both p - 1 and q + 1 are smooth over the plan
    PSI_292_PART = 5022138166514252974259
    # Psi_327 of -5711, which 10^7 rho iterations leave whole
    PSI_327_PART = 37936697251471858321678740431
    R = 2199023255867  # a safe prime, with (-7/R) = 1: caught by no run

    @staticmethod
    def stage1(monkeypatch, n):
        """The (v, acc) the torus run hands to stage 2 on n over D = -7."""
        seen = []
        monkeypatch.setattr(arith, "_pm1_stage2", lambda n, rows, v, acc: seen.append((v, acc)))
        assert arith._torus_pm1(n, 10**6, -7, 2) is None
        return seen

    def test_splits_psi_492_part(self):
        # q + 1 = 2^4 * 3 * 5 * 29 * 41 * 28411, where (-7/q) = -1: the run
        # finds q in row 12
        q = 8107362959
        assert kronecker(-7, q) == -1 and q + 1 == 2**4 * 3 * 5 * 29 * 41 * 28411
        assert arith._torus_pm1(self.PSI_492_PART, 10**6, -7, 2) == q

    def test_base_rule(self, monkeypatch):
        # for D = -7 and l = 2, a^2 + 7 is 8, 11, 16 for a = 1, 2, 3: the
        # run takes a = 2, whose trace V_E the reference gives; a = 1 gives
        # gamma = alpha/beta and a = 3 a unit times its square, so every
        # prime of every part collides in stage 1
        exponent = arith._pm1_plan(10**6)[0]
        assert [gcd(a * a + 7, 2 * 2 * 7) for a in (1, 2, 3)] == [4, 1, 4]
        for n in (self.PSI_492_PART, self.PSI_327_PART, TestTorusRunInFactor.PSI_876_PART):
            v = torus_stage1_trace(n, 2, -7, exponent)
            assert self.stage1(monkeypatch, n) == [(v, v - 2)]
            assert gcd(v - 2, n) == 1
            for a in (1, 3):
                assert gcd(torus_stage1_trace(n, a, -7, exponent) - 2, n) == n, (n, a)

    def test_psi_292_part_falls_back_to_rho(self, monkeypatch):
        # both primes are caught in stage 1 (the gcd is n), and rho splits
        # the part within 10^6 iterations
        exponent = arith._pm1_plan(10**6)[0]
        n = self.PSI_292_PART
        assert gcd(torus_stage1_trace(n, 2, -7, exponent) - 2, n) == n
        assert arith._torus_pm1(n, 10**6, -7, 2) is None
        rho_calls = []
        real_rho = arith._brent_rho

        def recording_rho(m, max_iters):
            rho_calls.append(m)
            return real_rho(m, max_iters)

        monkeypatch.setattr(arith, "_brent_rho", recording_rho)
        f = factor(n, FactorBudget(rho_iterations=10**6), (-7, 2))
        assert f.complete and f.prime_powers == ((46832260859, 1), (107236722601, 1))
        assert rho_calls == [n]

    def test_splits_psi_327_part(self, monkeypatch):
        # q = 27912699976481 has (-7/q) = -1 and q + 1 =
        # 2 * 3^2 * 41 * 79 * 109 * 131 * 33529, with 327 = 3 * 109, while
        # q - 1 and the other prime's p - 1 have a factor above 10^6
        n = self.PSI_327_PART
        assert kronecker(-7, 27912699976481) == -1
        assert arith._torus_pm1(n, 10**6, -7, 2) == 27912699976481
        monkeypatch.setattr(arith, "_brent_rho", lambda n, max_iters: None)
        f = factor(n, FactorBudget(), (-7, 2))
        assert f.complete and f.prime_powers == ((27912699976481, 1), (n // 27912699976481, 1))
        # factor() without a torus has no torus run: more complete than its
        # result
        assert factor(n, FactorBudget()).cofactor == n

    def test_guard(self):
        # a = 2: a^2 - D = 11 has no inverse modulo 11 * R, and
        # gamma = 1 modulo 7
        assert arith._torus_pm1(11 * self.R, 10**6, -7, 2) == 11
        assert arith._torus_pm1(7 * self.R, 10**6, -7, 2) == 7
        assert arith._torus_pm1(77, 10**6, -7, 2) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10**15), st.integers(2, 10**15),
           st.sampled_from([(m, l) for l in (2, 3, 5, 7, 11, 13)
                            for m in range(-isqrt(4 * l), isqrt(4 * l) + 1)]),
           st.sampled_from((50, 10**4)))
    def test_any_result_is_a_proper_divisor(self, x, y, ml, bound):
        m, l = ml
        n = x * y
        f = arith._torus_pm1(n, bound, m * m - 4 * l, l)
        assert f is None or (1 < f < n and n % f == 0), (n, f)


def reference_trial_divide(m, primes):
    """The prime-by-prime loop that runs of primes replaced: divide m by each
    trial prime p in turn until p*p > m.  Returns (powers, what is left)."""
    powers = {}
    for p in primes:
        if p * p > m:
            break
        while m % p == 0:
            powers[p] = powers.get(p, 0) + 1
            m //= p
    return powers, m


def reference_stage1(n, primes):
    """p-1's stage 1 as each call once ran it: the base 3 raised to each
    prime power up to sqrt(T) in turn, T = primes[-1]."""
    root = isqrt(primes[-1])
    a = 3
    for q in primes:
        if q > root:
            break
        qk = q
        while qk * q <= root:
            qk *= q
        a = pow(a, qk, n)
    return a


def reference_pm1(n, primes):
    """The p-1 that the paired stage 2 replaced: stage 1 as in
    reference_stage1, then a^q - 1 for each stage-2 prime q in turn,
    stepping between consecutive primes by a table of a^gap, with a gcd
    every 1024 primes."""
    root = isqrt(primes[-1])
    a = reference_stage1(n, primes)
    steps = {}
    acc, b, prev = a - 1, 1, 0
    for i, q in enumerate(islice(primes, bisect_right(primes, root), None), 1):
        step = steps.get(q - prev)
        if step is None:
            step = steps[q - prev] = pow(a, q - prev, n)
        b, prev = b * step % n, q
        acc = acc * (b - 1) % n
        if i % 1024 == 0 and gcd(acc, n) != 1:
            break
    g = gcd(acc, n)
    return g if 1 < g < n else None


def stage2_base_3(n, bound):
    """p-1 with base 3 through the plan _pm1_plan(bound) and _pm1_stage2:
    a = 3^E, then stage 2 from a + 1/a and a - 1 where a has an inverse
    mod n.  A proper factor of n, or None: reference_pm1's result, by which
    the paired stage 2 is checked."""
    exponent, rows = arith._pm1_plan(bound)
    a = pow(3, exponent, n)
    g = gcd(a, n)  # 3 | n: a has no inverse
    if g > 1:
        return g if g < n else None
    return arith._pm1_stage2(n, rows, (a + pow(a, -1, n)) % n, a - 1)


def reference_factor(monkeypatch, n, budget):
    """factor() with its trial division done by the reference loop."""
    with monkeypatch.context() as mp:
        mp.setattr(arith, "_trial_divide",
                   lambda m, trial, bound: reference_trial_divide(m, all_primes(bound)))
        return factor(n, budget)


class TestTrialDivision:
    # 719 and 727 are the 128th and 129th primes: the last prime of the
    # first run and the first of the second
    EDGE_VALUES = (
        719 * 727, 719**2, 727**2, 719 * 727 * 733, 999983**2,
        999983 * 1000003, 1000003**2, 2**200 * 3**5, 2**200 * 3**5 * 999983,
        1, 2, 719, 727, 10**12 + 39, 2 * (10**12 + 39),
    )
    TRIAL_BOUNDS = (2, 3, 719, 727, 10**6)

    def test_run_edges(self):
        assert primes_up_to(727)[127:] == [719, 727]
        assert arith._TRIAL_RUN == 128

    @pytest.mark.usefixtures("fresh")
    def test_benchmark_pass_inputs(self, monkeypatch):
        # every trial division of one pass over the benchmark's small_panel
        # (verify) and large_h (bound --rho-iters 10^6) fields and the first
        # eight survey_warm fields (bound at its flags, no --cache), the A3
        # parts' too, against division by all the primes; verify proves
        # its union primes fundamental without factoring them
        seen = []
        real = arith._trial_divide

        def checked(m, trial, bound):
            got = real(m, trial, bound)
            assert got == reference_trial_divide(m, all_primes(bound)), m
            seen.append(m)
            return got

        monkeypatch.setattr(arith, "_trial_divide", checked)
        for D in (-20, -23, -84, -71, -419, -3299):
            assert main(["verify", "--d", str(D), "--json", os.devnull]) == 0
        for D in (-1151, -2999):
            assert main(["bound", "--d", str(D), "--rho-iters", "1000000",
                         "--json", os.devnull]) == 0
        for D in (-15, -20, -23, -24, -31, -35, -39, -40):
            assert main(["bound", "--d", str(D), "--mazur-bound", "100000",
                         "--rho-iters", "1000000", "--json", os.devnull]) == 0
        assert len(seen) > 250 and max(seen).bit_length() > 140
        # the Psi_876 part of -2999's one nonzero A3 element is among them
        (origin,) = (o for v, o in generators_A3(make_field(-2999))[1].items() if v)
        assert abs(_lucas_parts(*origin)[1][876]) in seen

    @pytest.mark.parametrize("trial_bound", TRIAL_BOUNDS)
    def test_edges_match_reference(self, trial_bound):
        primes = all_primes(trial_bound)
        for n in self.EDGE_VALUES:
            got = arith._trial_divide(n, arith._PRIMES, trial_bound)
            assert got == reference_trial_divide(n, primes), (n, trial_bound)

    def test_a_prime_from_every_run(self):
        # each value has a prime in every run of 128, at a different place
        # in each run: a run passed over without its gcd loses its prime
        primes = all_primes(10**6)
        for chosen, extra in ((primes[::127], 1), (primes[127::128], 1000003**2),
                              (primes[5::131], 1000003 * 1000033)):
            n = prod(chosen) * extra
            got = arith._trial_divide(n, arith._PRIMES, 10**6)
            assert got == reference_trial_divide(n, primes)
            # the largest chosen prime may be left over once p*p passes m
            assert got[0].keys() >= set(chosen[:-1])

    @pytest.mark.parametrize("trial_bound", TRIAL_BOUNDS)
    def test_random_match_reference(self, trial_bound):
        rng = random.Random(trial_bound)
        primes = all_primes(trial_bound)
        pool = all_primes(2 * 10**6)[::37]
        for _ in range(100):
            n = 1
            for _ in range(rng.randrange(1, 6)):
                n *= rng.choice(pool) ** rng.randrange(1, 4)
            n *= rng.randrange(1, 10**rng.randrange(1, 40))
            got = arith._trial_divide(n, arith._PRIMES, trial_bound)
            assert got == reference_trial_divide(n, primes), n

    @pytest.mark.parametrize("rho_iterations", [2, 10, 1000])
    @pytest.mark.parametrize("trial_bound", TRIAL_BOUNDS)
    def test_factor_matches_reference_path(self, monkeypatch, trial_bound, rho_iterations):
        # whole results, cofactor included, also where the budget runs out
        budget = FactorBudget(trial_bound, rho_iterations)
        rng = random.Random(rho_iterations * trial_bound)
        values = [*self.EDGE_VALUES, -1, -(719 * 727), -(2**200 * 3**5 * 999983)]
        values += [rng.choice((1, -1)) * rng.randrange(2, 10**30) for _ in range(20)]
        incomplete = 0
        for n in values:
            f = factor(n, budget)
            assert f == reference_factor(monkeypatch, n, budget), (n, budget)
            incomplete += not f.complete
        if rho_iterations < 1000:
            assert incomplete > 0

    def test_products_built_lazily(self, fresh):
        # the products are built when a factorization first reaches their
        # run: building all 613 up front costs every process about 7 ms
        assert factor(2**20 * 3**10).prime_powers == ((2, 20), (3, 10))
        assert factor(719 * 727).prime_powers == ((719, 1), (727, 1))
        trial = arith._PRIMES
        products = trial.products
        assert products == [prod(trial.primes[:128])]
        factor(1000003**2)
        primes = all_primes(10**6)
        assert list(trial.primes) == primes and len(products) == 613
        # the last run, 34 primes up to 10^6, is cut short by the list's
        # end: its product is built on the spot and not kept
        assert len(primes) == 613 * 128 + 34
        assert products == [prod(primes[i : i + 128]) for i in range(0, 613 * 128, 128)]


class TestSmallParts:
    """Every 0 < |n| < 41^2 through factor(): at trial bounds 2, 3 and 5
    trial division leaves composite parts above trial_bound^2, which the
    square check and rho then meet on tiny inputs."""

    LIMIT = 41 * 41

    @pytest.mark.parametrize("rho_iterations", (0, 10**6))
    @pytest.mark.parametrize("trial_bound", (2, 3, 5, 37, 41, 50, 10**6))
    def test_every_small_n(self, trial_bound, rho_iterations):
        budget = FactorBudget(trial_bound, rho_iterations)
        primes = set(all_primes(self.LIMIT))
        ns = [s * n for n in range(1, self.LIMIT) for s in (1, -1)]
        results = [factor(n, budget) for n in ns]
        for n, f in zip(ns, results):
            assert f.reconstruct() == n and primes.issuperset(f.primes), f
            if rho_iterations:
                assert f.complete, f
            elif not f.complete:
                # what no prime <= trial_bound divides and is not prime: a
                # product of composite parts, each above trial_bound^2
                c = f.cofactor
                assert c > trial_bound * trial_bound and c not in primes, f
                assert all(c % p for p in primes if p <= trial_bound), f
        if trial_bound <= 3 and rho_iterations == 0:
            assert any(not f.complete for f in results)

    def test_every_small_n_is_trial_divided(self, monkeypatch):
        # no size branch before trial division: each factor() call divides
        # |n| once, by the budget's trial bound, however small n is
        divided = []
        real = arith._trial_divide

        def recorded(m, trial, bound):
            divided.append((m, bound))
            return real(m, trial, bound)

        monkeypatch.setattr(arith, "_trial_divide", recorded)
        for trial_bound in (2, 37, 10**6):
            budget = FactorBudget(trial_bound, 0)
            for n in range(1, self.LIMIT):
                for s in (1, -1):
                    del divided[:]
                    factor(s * n, budget)
                    assert divided == [(n, trial_bound)], s * n

    def test_no_memo_across_budgets(self):
        # the result depends on (n, budget) alone: the same calls in the
        # reverse order give the same results, and a small budget's
        # incomplete results do not carry over to a larger budget
        budgets = [FactorBudget(2, 0), FactorBudget(), FactorBudget(3, 0), FactorBudget(50, 10)]
        ns = [s * n for n in range(1, self.LIMIT) for s in (1, -1)]
        forward = {(n, b): factor(n, b) for b in budgets for n in ns}
        backward = {(n, b): factor(n, b) for b in reversed(budgets) for n in reversed(ns)}
        assert forward == backward
        assert any(not forward[n, budgets[0]].complete for n in ns)
        assert all(forward[n, budgets[1]].complete for n in ns)


class TestPairedStage2:
    # safe primes: (R - 1)/2 is a prime far above every trial bound below,
    # and its partners, so p-1 never catches R; R * R2 is a full walk
    R, R2 = 2199023255867, 2199023258567

    @staticmethod
    def stage2_rows(primes):
        """{k: stage-2 primes q with q = k*D +- j, j <= D/2}"""
        D = arith._D
        rows = {}
        for q in primes[bisect_right(primes, isqrt(primes[-1])):]:
            rows.setdefault((q + D // 2) // D, []).append(q)
        return rows

    @staticmethod
    def caught_by(rng, primes, q):
        """A prime p with p - 1 = 2*m*q, m a product of three odd primes
        below sqrt(T): ord_p(3) divides the stage-1 exponent times q."""
        small = primes[1 : bisect_right(primes, isqrt(primes[-1]))]
        while True:
            p = 2 * prod(rng.sample(small, 3)) * q + 1
            if is_prime(p):
                return p

    def _corpus(self, rng, trial_bound, rows_taken):
        primes = all_primes(trial_bound)
        rows = self.stage2_rows(primes)
        D = arith._D
        for k in rows_taken:
            # one prime from each side of k*D, where the row has it
            for side in ([q for q in rows[k] if q < k * D], [q for q in rows[k] if q > k * D]):
                if side:
                    yield self.caught_by(rng, primes, rng.choice(side))
        # p - 1 = 2*m*q with q a prime above T + D: no stage catches p
        for _ in range(4):
            q = rng.randrange(primes[-1] + D, 2 * primes[-1] + D)
            while not is_prime(q):
                q += 1
            yield self.caught_by(rng, primes, q)

    def _check(self, trial_bound, corpus):
        for r in (self.R, self.R2):
            assert is_prime(r) and is_prime((r - 1) // 2)
        primes = all_primes(trial_bound)
        caught = 0
        for p in corpus:
            expected = reference_pm1(p * self.R, primes)
            assert expected in (p, None)
            assert stage2_base_3(p * self.R, trial_bound) == expected, p
            caught += expected == p
        return caught

    def test_every_row_matches_reference(self):
        rng = random.Random(14)
        rows = self.stage2_rows(all_primes(10**5))
        corpus = list(self._corpus(rng, 10**5, sorted(rows)))
        assert self._check(10**5, corpus) == len(corpus) - 4

    def test_sampled_rows_match_reference(self):
        rng = random.Random(15)
        rows = sorted(self.stage2_rows(all_primes(10**6)))
        assert len(rows) == 434 and 300 in rows
        # row 300 and the last row always, the others sampled
        taken = sorted({*rows[:5], *rng.sample(rows[5:-4], 12), 300, *rows[-4:]})
        corpus = list(self._corpus(rng, 10**6, taken))
        assert self._check(10**6, corpus) == len(corpus) - 4

    def test_random_parts_match_reference(self):
        rng = random.Random(16)
        corpus = []
        for _ in range(40):
            p = rng.randrange(2**30, 2**40)
            while not is_prime(p):
                p += 1
            corpus.append(p)
        assert self._check(10**5, corpus) > 0

    def test_large_h_parts_match_reference(self):
        primes = all_primes(10**6)
        for n in TestTorusRunInFactor.LARGE_H_PARTS:
            got = stage2_base_3(n, 10**6)
            assert got is not None and got == reference_pm1(n, primes), n

    @pytest.mark.parametrize("trial_bound", [2, 3, 50, 2311, 10**5, 10**6])
    def test_rows_pair_every_stage2_prime(self, trial_bound):
        assert stage2_base_3(self.R * self.R2, trial_bound) is None
        primes = all_primes(trial_bound)
        assert arith._PRIMES.limit >= trial_bound and primes_up_to(trial_bound) == primes
        _, plan_rows = arith._pm1_plan(trial_bound)
        D = arith._D
        rows = self.stage2_rows(primes)
        assert len(plan_rows) == (primes[-1] + D // 2) // D + 1
        for k, row in enumerate(plan_rows):
            assert len(set(row)) == len(row)
            assert set(row) == {abs(q - k * D) for q in rows.get(k, ())}, k

    @pytest.mark.parametrize("trial_bound", [2, 3, 50, 10**6])
    def test_plan_exponent_is_stage_1(self, trial_bound):
        # E is the product of the largest prime powers up to sqrt(T), that
        # is lcm(1, ..., sqrt(T)), and 3^E is what stage 1 computed per call
        primes = all_primes(trial_bound)
        exponent, _ = arith._pm1_plan(trial_bound)
        assert exponent == lcm(*range(1, isqrt(primes[-1]) + 1))
        for n in (self.R * self.R2, 1000003 * 1000033):
            assert pow(3, exponent, n) == reference_stage1(n, primes)

    def test_rows_built_lazily(self):
        # building the plan's 434 rows at 10^6 takes about 10 ms, a cost
        # only a process that runs the torus run should pay, and then once
        arith._pm1_plan.cache_clear()
        # no part reaches the torus run
        assert factor(2**20 * 999983 * 1000003, FactorBudget(), (-7, 2)).complete
        # the benchmark's warm-up requests
        assert main(["verify", "--d", "-20", "--json", os.devnull]) == 0
        assert main(["bound", "--d", "-20", "--rho-iters", "1000000",
                     "--json", os.devnull]) == 0
        # a part past the square check, but without a torus: straight to rho
        factor(self.R * self.R2, FactorBudget(rho_iterations=10**5))
        assert arith._pm1_plan.cache_info().currsize == 0
        for _ in range(2):
            factor(self.R * self.R2, FactorBudget(rho_iterations=10**5), (-7, 2))
        info = arith._pm1_plan.cache_info()
        assert info.currsize == 1 and info.misses == 1 and info.hits == 1

    def test_one_gcd_per_row(self):
        # p and p2 are caught by rows 5 and 6: the gcd after row 5 is p,
        # also beside R, where a gcd over both rows would give p * p2
        rng = random.Random(17)
        primes = all_primes(10**6)
        rows = self.stage2_rows(primes)
        p = self.caught_by(rng, primes, rows[5][0])
        p2 = self.caught_by(rng, primes, rows[6][-1])
        assert stage2_base_3(p * p2, 10**6) == p
        assert stage2_base_3(p * p2 * self.R, 10**6) == p
        assert reference_pm1(p * p2, primes) is None

    @pytest.mark.parametrize("trial_bound", [2, 3, 5, 7, 50])
    def test_tiny_trial_bounds(self, monkeypatch, trial_bound):
        # the values of test_no_inverse_and_divisors_of_d, and others, at
        # one-row plans: the torus run over D = -7 with a = 2, whose guard
        # gcd(11 * 7, n) returns 11 where it is no trial prime, gives rho's
        # result
        budget = FactorBudget(trial_bound, rho_iterations=10**5)
        values = (3 * 1000003, 27 * 1000003, 3**5, 3 * 11 * 13, 11 * self.R,
                  13 * 1000003, 61 * 1000033, 547 * 1093 * 1000003,
                  11**3 * 13 * 61, 9 * 1000003 * 1000033)
        for n in values:
            f = factor(n, budget, (-7, 2))
            with monkeypatch.context() as m:
                m.setattr(arith, "_torus_pm1", lambda n, bound, D, l: None)
                rho_only = factor(n, budget, (-7, 2))
            assert f.complete and f == rho_only, n
            assert factor(n, budget) == rho_only, n

    def test_no_inverse_and_divisors_of_d(self):
        # at T = 2, 3 is no trial prime, so for 3 | n a = 3^E has no inverse
        # modulo n; at T = 7, 11, 13, 61 and 547 are caught by the stage-2
        # primes 5, 3, 5 and 7, which divide D (3^10, 3^6, 3^10 and 3^14 are
        # 1 modulo them)
        assert stage2_base_3(3 * self.R, 2) == 3
        assert stage2_base_3(27 * self.R, 3) == 3
        for p in (11, 13, 61, 547):
            assert stage2_base_3(p * self.R, 7) == p


# limits on either side of the segment edges 4^k and of the runs' edge 727
CROSS_EDGES = (5, 15, 16, 17, 63, 64, 65, 719, 727, 1023, 1025, 4095, 4096, 4097,
               16385, 65535, 65537, 262145, 10**6)


@pytest.mark.usefixtures("fresh")
class TestGrownList:
    """The process's one list starts from 2 and 3 and is sieved as far as
    walks and trial division reach, in segments of up to 4 times the last
    limit that end at the bound asked for; the torus run sieves it to the
    trial bound."""

    EDGE_BOUNDS = (2, 3, 4, 5, 17, 719, 727, 4095, 4096, 4097, 16385, 10**6)

    @pytest.mark.parametrize("D", [-20, -3299])
    def test_verify_stays_short(self, D):
        # no part reaches the torus run, so nothing sieves the list to the
        # trial bound 10^6: full trial division takes it to 1024 on -20 and
        # to 4^7 on -3299
        assert main(["verify", "--d", str(D), "--json", os.devnull]) == 0
        assert arith._PRIMES.limit == {-20: 1024, -3299: 4**7}[D]

    def test_pm1_request_completes_the_list(self):
        assert main(["bound", "--d", "-1151", "--rho-iters", "1000000",
                     "--json", os.devnull]) == 0
        # as far as the trial bound, and no further
        assert arith._PRIMES.limit == 10**6
        assert list(arith._PRIMES.primes) == all_primes(10**6)

    @pytest.mark.parametrize("bound", (50, *EDGE_BOUNDS))
    def test_segment_edges(self, bound, segment_calls):
        # grown segment by segment, the list is all the primes up to its
        # limit at each step
        calls, full, trial = segment_calls, all_primes(max(bound, 4)), arith._PRIMES
        while trial.limit < bound:
            trial.extend(bound)
            assert list(trial.primes) == full[: bisect_right(full, trial.limit)]
        assert list(trial.through(bound)) == full
        # contiguous from 4, each up to 4 times as wide as the list was
        # long, the last one capped at bound
        limits = [4] + [hi for _, hi in calls]
        assert calls == list(zip(limits, limits[1:]))
        assert arith._PRIMES.limit == limits[-1] == max(bound, 4)
        for lo, hi in calls:
            assert hi == min(4 * lo, bound)
            # a segment's buffer holds the odd numbers in (lo, hi], under bound/2
            assert (hi - lo + 1) // 2 <= (bound + 1) // 2

    def test_through_ends_at_x(self):
        # a request past the list sieves as far as it asks and no further
        for x in CROSS_EDGES:
            assert list(arith._PRIMES.through(x)) == all_primes(x), x
            assert arith._PRIMES.limit == x

    @pytest.mark.parametrize("bound", EDGE_BOUNDS)
    def test_division_grows_the_list(self, bound):
        # 4093 and 4099 sit either side of the limit 4096, 16381 and 16411
        # of 16384, and 719 and 727 of the first run
        full = all_primes(max(bound, 4))
        trial = arith._PRIMES
        values = (719 * 727, 4093 * 4099, 4099**2, 16381 * 16411 * 4099,
                  65521 * 65537 * 5, 999983 * 1000003, 10**12 + 39, 1000003**2 * 6)
        for n in values:
            got = arith._trial_divide(n, trial, bound)
            assert got == reference_trial_divide(n, all_primes(bound)), n
            assert trial.limit <= max(bound, 4)
            assert list(trial.primes) == full[: bisect_right(full, trial.limit)]
            # the kept products are those of full runs of primes <= bound
            assert 128 * len(trial.products) <= len(all_primes(bound))
            assert trial.products == [prod(full[i : i + 128])
                                      for i in range(0, 128 * len(trial.products), 128)]
        # 10^12 + 39 is proven prime, so only 1000003^2 * 6 walks to the end
        assert list(trial.primes) == full


@pytest.mark.usefixtures("fresh")
class TestCutAtBound:
    """Trial division by the one list cut at the trial bound: a factor()
    gives what it gives in a fresh process, whatever bounds the list was
    grown for before."""

    # two primes just above B: trial division by a prime above B would
    # complete what the cut leaves as a cofactor
    VALUES = {2: (3 * 5 * 7, 2**10 * 3 * 5), 3: (5 * 7 * 11, 2 * 3**4 * 5 * 7),
              50: (53 * 59, 2 * 47 * 53 * 59), 727: (733 * 739, 719 * 727 * 733 * 739)}

    @staticmethod
    def in_fresh_process(monkeypatch, n, budget):
        with monkeypatch.context() as mp:
            mp.setattr(arith, "_PRIMES", arith._TrialPrimes())
            f = factor(n, budget)
        assert f == reference_factor(monkeypatch, n, budget)
        return f

    @pytest.mark.parametrize("B", sorted(VALUES))
    def test_list_past_10_4(self, monkeypatch, B):
        budget = FactorBudget(B, 0)
        want = {n: self.in_fresh_process(monkeypatch, n, budget) for n in self.VALUES[B]}
        assert all(not f.complete for f in want.values())
        assert primes_up_to(10**4 + 7)[-1] == 10007
        for n, f in want.items():
            assert factor(n, budget) == f, n

    def test_bounds_50_then_10_6_then_50(self, monkeypatch):
        # at 10^6, n's primes 53 and 59 are in the first run, whose product
        # must not be the one of the primes up to 50 that the cut left; back
        # at 50, that run's kept product must not be used
        steps = ((50, 2 * 53 * 59), (10**6, 53 * 59 * 1000003 * 1000033), (50, 2 * 53 * 59))
        for bound, n in steps:
            budget = FactorBudget(bound, 0)
            want = self.in_fresh_process(monkeypatch, n, budget)
            assert factor(n, budget) == want, bound
        assert want.cofactor == 53 * 59 and len(arith._PRIMES.products) == 613

    @pytest.mark.parametrize("B", [2, 3, 50, 2311, 10**5])
    def test_pm1_plan_past_the_bound(self, B):
        arith._PRIMES.through(4 * B + 10**4)
        arith._pm1_plan.cache_clear()
        exponent, plan_rows = arith._pm1_plan(B)
        primes = all_primes(B)
        D = arith._D
        rows = TestPairedStage2.stage2_rows(primes)
        assert exponent == lcm(*range(1, isqrt(primes[-1]) + 1))
        assert [sorted(row) for row in plan_rows] == [
            sorted({abs(q - k * D) for q in rows.get(k, ())})
            for k in range((primes[-1] + D // 2) // D + 1)]


class TestEarlyStop:
    """Trial division ends once what is left is proven prime."""

    T = 10**6
    P_BELOW = 100000000003  # a prime below T^2
    P_ABOVE = 100000000000000000039  # a prime between T^2 and 3.3e24
    M89 = 2**89 - 1  # prime, but above 3.3e24 prime_status says "probable"
    # strong pseudoprimes to the first 1, 2, 3 and 4 bases (OEIS A014233)
    PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751)

    @classmethod
    def divide(cls, m):
        """_trial_divide on a fresh list: (its result, the list)."""
        trial = arith._TrialPrimes()
        return arith._trial_divide(m, trial, cls.T), trial

    @classmethod
    def check_fires(cls):
        for p in (cls.P_BELOW, cls.P_ABOVE):
            assert prime_status(p) == "prime"
            got, trial = cls.divide(p)
            assert got == ({}, p) and trial.products == [] and trial.limit == 4
        # after the first run divides m: its 128 primes end at 719
        got, trial = cls.divide(2**5 * 3 * cls.P_ABOVE)
        assert got == ({2: 5, 3: 1}, cls.P_ABOVE)
        assert len(trial.products) == 1 and trial.limit == 1024
        # 7919, the 1000th prime, is in run 7, past the limit 4096
        got, trial = cls.divide(7919 * cls.P_BELOW)
        assert got == ({7919: 1}, cls.P_BELOW)
        assert len(trial.products) == 8 and trial.limit == 16384

    @classmethod
    def check_does_not_fire(cls):
        full = all_primes(cls.T)
        values = (*cls.PSEUDOPRIMES, *(2 * q for q in cls.PSEUDOPRIMES),
                  999983 * 1000003 * 1000033, 2**40 * 999983**2)
        for m in values:
            got, _ = cls.divide(m)
            assert got == reference_trial_divide(m, full), m
        for m in (cls.M89, 6 * cls.M89):
            assert prime_status(cls.M89) == "probable"
            got, trial = cls.divide(m)
            assert got == reference_trial_divide(m, full) and got[1] == cls.M89
            # a probable prime is divided by the whole list, whose last run
            # of 34 primes is cut short by its end at T
            assert list(trial.primes) == full and len(trial.products) == 613

    def test_fires_on_proven_primes(self):
        self.check_fires()

    def test_does_not_fire_on_pseudoprimes_or_probable_primes(self):
        self.check_does_not_fire()

    def test_mutant_stopping_above_t_squared_fails(self, monkeypatch):
        # a stop at every part above T^2, with no primality test
        monkeypatch.setattr(arith, "_proven_prime", lambda m: m > self.T * self.T)
        for check in (self.check_fires, self.check_does_not_fire):
            with pytest.raises(AssertionError):
                check()


def admissible(primes, d):
    """The primes of the list that divide d or are +-1 mod d."""
    return [p for p in primes if d % p == 0 or p % d in (1, d - 1)]


@cache
def admissible_pool(d):
    """The admissible primes of d below 2*10^6."""
    return admissible(all_primes(2 * 10**6), d)


class TestPsiShapedParts:
    """Parts whose primes all divide d or are +-1 mod d, as a Psi_d's do:
    the one trial list of all the primes they are divided by, and their
    factorization with a torus (D, l), factor()'s result without one
    wherever that is complete, for every budget."""

    MODULI = (5, 7, 8, 10, 12, 24, 73, 123, 492, 876)

    def test_segment_of_one_class(self):
        # the one sieve of the odd numbers gives the odd primes in each
        # window, so those of every class mod d
        primes = all_primes(5000)
        for lo, hi in ((2, 4), (2, 100), (4, 16), (100, 101), (874, 878), (1000, 4000),
                       (4000, 5000)):
            segment = list(arith._segment(lo, hi, primes))
            assert segment == [p for p in primes if lo < p <= hi and p > 2], (lo, hi)

    BUDGETS = (FactorBudget(50, 2), FactorBudget(719, 10), FactorBudget(10**4, 1000),
               FactorBudget(10**6, 10**6))

    def corpus(self, budget):
        """(n, d, torus): products of admissible primes of each modulus, with
        the torus (D, l) of an (m, l), D = m^2 - 4l (-7, -19 or -11)."""
        rng = random.Random(budget.trial_bound)
        for d in self.MODULI:
            primes = admissible_pool(d)
            for _ in range(15):
                n = rng.choice((1, -1))
                for _ in range(rng.randrange(6)):
                    n *= rng.choice(primes) ** rng.randrange(1, 4)
                m, l = rng.choice(((-1, 2), (1, 2), (-1, 5), (3, 5)))
                yield n, d, (m * m - 4 * l, l)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_equals_factor(self, monkeypatch, budget):
        # without the torus run, a torus changes nothing: factor()'s result,
        # cofactors included, also where the budget runs out
        monkeypatch.setattr(arith, "_torus_pm1", lambda n, bound, D, l: None)
        incomplete = 0
        for n, d, torus in self.corpus(budget):
            f = factor(n, budget, torus)
            assert f == factor(n, budget), (n, d)
            incomplete += not f.complete
        if budget.rho_iterations < 1000:
            assert incomplete > 0

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_multiplies_back_and_equals_complete_factor(self, budget):
        for n, d, torus in self.corpus(budget):
            f = factor(n, budget, torus)
            assert f.reconstruct() == n and all(is_prime(p) for p in f.primes), (n, d)
            want = factor(n, budget)
            if want.complete:
                assert f == want, (n, d)

    @pytest.mark.parametrize("d", MODULI)
    def test_every_part_takes_the_one_list(self, monkeypatch, d):
        # with a torus or without, at every budget, trial division runs on
        # the process's one list and no other list is built
        divided = []
        real = arith._trial_divide

        def recording(m, trial, bound):
            divided.append(trial)
            return real(m, trial, bound)

        monkeypatch.setattr(arith, "_trial_divide", recording)
        monkeypatch.setattr(arith, "_TrialPrimes", None)
        for budget in self.BUDGETS:
            for n, _, torus in (c for c in self.corpus(budget) if c[1] == d):
                assert factor(n, budget, torus).reconstruct() == n
                assert factor(n, budget).reconstruct() == n
        assert divided and all(trial is arith._PRIMES for trial in divided)
