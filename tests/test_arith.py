import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbound.arith import (
    _MR_BASE_LIMITS,
    _MR_BASES,
    FactorBudget,
    _miller_rabin_composite,
    factor,
    is_prime,
    kronecker,
    prime_status,
    primes_up_to,
)


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


class TestIsPrime:
    def test_examples(self):
        assert is_prime(2)
        assert not is_prime(561)  # 3 * 11 * 17
        assert is_prime(1000000007)

    def test_agrees_with_sieve_below_1e6(self):
        sieve = set(primes_up_to(10**6))
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


class TestPrimesUpTo:
    def test_examples(self):
        assert primes_up_to(23) == [2, 3, 5, 7, 11, 13, 17, 19, 23]
        assert primes_up_to(2) == [2]
        assert len(primes_up_to(10**6)) == 78498

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            primes_up_to(1)


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
        assert f.sign == -1
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
