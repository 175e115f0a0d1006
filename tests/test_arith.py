import os
import random
from bisect import bisect_right
from itertools import islice
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbound import arith
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
from quatbound.cli import main


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

    @pytest.mark.parametrize("rho_iterations", [-1, -10**7])
    def test_negative_rho_iterations_rejected(self, rho_iterations):
        # -1 ran as no rho at all and left an uncertified report at exit 0
        with pytest.raises(ValueError, match="rho iterations must be >= 0"):
            FactorBudget(rho_iterations=rho_iterations)

    def test_zero_rho_iterations_run_no_rho(self):
        # 0 stays legal: no p-1, no rho, so a product of two primes above
        # the trial bound stays a cofactor
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


class TestPollardPm1:
    # -2999's Psi_876 leaves this 104-bit part after trial division; rho
    # spends 10^6 iterations on it in vain, while its 43-bit prime has
    # p - 1 = 2^6 * 3^3 * 17 * 67 * 73 * 43943
    PSI_876_PART = 16326167728726390155402199602193
    # the composite parts that reach rho on bound -1151 and -2999
    LARGE_H_PARTS = (4626154257697182281987, 5022138166514252974259, PSI_876_PART)

    def test_splits_psi_876_part_without_rho(self, monkeypatch):
        monkeypatch.setattr(arith, "_brent_rho", lambda n, max_iters: None)
        f = factor(self.PSI_876_PART, FactorBudget(rho_iterations=10**6))
        assert f.complete
        assert f.prime_powers == ((6313643057089, 1), (2585855358166829137, 1))

    @pytest.mark.parametrize("trial_bound, rho_iterations", [(50, 2), (100, 10)])
    def test_tiny_budget_skips_pm1(self, monkeypatch, trial_bound, rho_iterations):
        calls = []
        monkeypatch.setattr(arith, "_pollard_pm1", lambda n, *grid: calls.append(n))
        p = 100000000000000000000000012349
        q = 100000000000000000000000098811
        factor(p * q, FactorBudget(trial_bound, rho_iterations))
        assert calls == []
        factor(p * q, FactorBudget(rho_iterations=10**5))  # 78,498 trial primes fit
        assert calls == [p * q]

    def _oracle_check(self, monkeypatch, n, budget):
        with_pm1 = factor(n, budget)
        with monkeypatch.context() as m:
            m.setattr(arith, "_pollard_pm1", lambda n, *grid: None)
            rho_only = factor(n, budget)
        if with_pm1.complete and rho_only.complete:
            assert with_pm1 == rho_only, n
        return with_pm1, rho_only

    def test_same_factorization_as_rho_only(self, monkeypatch):
        rng = random.Random(2024)

        def prime_in(lo, hi):
            p = rng.randrange(lo, hi)
            while not is_prime(p):
                p += 1
            return p

        for _ in range(12):
            n = prime_in(10**6, 10**10) * prime_in(10**6, 10**10)
            with_pm1, rho_only = self._oracle_check(monkeypatch, n, FactorBudget())
            assert with_pm1.complete and rho_only.complete
        budget = FactorBudget(rho_iterations=10**6)
        for n in self.LARGE_H_PARTS:
            with_pm1, _ = self._oracle_check(monkeypatch, n, budget)
            assert with_pm1.complete

    def test_gcd_n_falls_through_to_rho(self):
        # p - 1 = 2^3 * 487 * 773 * 997 and q - 1 = 2^3 * 61 * 487 * 881:
        # stage 1 alone catches both primes, so the gcd is n itself
        p, q = 3002573177, 209374937
        primes, _, js, ends = arith._trial_primes(10**6)
        assert arith._pollard_pm1(p * q, primes, js, ends) is None
        f = factor(p * q)
        assert f.complete and f.prime_powers == ((q, 1), (p, 1))


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


def reference_pm1(n, primes):
    """The p-1 that the paired stage 2 replaced: stage 1 as in arith, then
    a^q - 1 for each stage-2 prime q in turn, stepping between consecutive
    primes by a table of a^gap, with a gcd every 1024 primes."""
    root = isqrt(primes[-1])
    a = 3
    for q in primes:
        if q > root:
            break
        qk = q
        while qk * q <= root:
            qk *= q
        a = pow(a, qk, n)
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


def reference_factor(monkeypatch, n, budget):
    """factor() with its trial division done by the reference loop."""
    with monkeypatch.context() as mp:
        mp.setattr(arith, "_trial_divide",
                   lambda m, primes, products: reference_trial_divide(m, primes))
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

    def test_benchmark_pass_inputs(self, monkeypatch):
        # every factor() input of one pass over the benchmark's small_panel
        # (verify) and large_h (bound --rho-iters 10^6) fields
        seen = []
        real = arith._trial_divide

        def checked(m, primes, products):
            got = real(m, primes, products)
            assert got == reference_trial_divide(m, primes), m
            seen.append(m)
            return got

        monkeypatch.setattr(arith, "_trial_divide", checked)
        for D in (-20, -23, -84, -71, -419, -3299):
            assert main(["verify", "--d", str(D), "--json", os.devnull]) == 0
        for D in (-1151, -2999):
            assert main(["bound", "--d", str(D), "--rho-iters", "1000000",
                         "--json", os.devnull]) == 0
        assert len(seen) > 250 and max(seen).bit_length() > 140

    @pytest.mark.parametrize("trial_bound", TRIAL_BOUNDS)
    def test_edges_match_reference(self, trial_bound):
        primes = primes_up_to(trial_bound)
        for n in self.EDGE_VALUES:
            got = arith._trial_divide(n, *arith._trial_primes(trial_bound)[:2])
            assert got == reference_trial_divide(n, primes), (n, trial_bound)

    def test_a_prime_from_every_run(self):
        # each value has a prime in every run of 128, at a different place
        # in each run: a run passed over without its gcd loses its prime
        primes = primes_up_to(10**6)
        trial = arith._trial_primes(10**6)[:2]
        for chosen, extra in ((primes[::127], 1), (primes[127::128], 1000003**2),
                              (primes[5::131], 1000003 * 1000033)):
            n = prod(chosen) * extra
            got = arith._trial_divide(n, *trial)
            assert got == reference_trial_divide(n, primes)
            # the largest chosen prime may be left over once p*p passes m
            assert got[0].keys() >= set(chosen[:-1])

    @pytest.mark.parametrize("trial_bound", TRIAL_BOUNDS)
    def test_random_match_reference(self, trial_bound):
        rng = random.Random(trial_bound)
        primes = primes_up_to(trial_bound)
        trial = arith._trial_primes(trial_bound)[:2]
        pool = primes_up_to(2 * 10**6)[::37]
        for _ in range(100):
            n = 1
            for _ in range(rng.randrange(1, 6)):
                n *= rng.choice(pool) ** rng.randrange(1, 4)
            n *= rng.randrange(1, 10**rng.randrange(1, 40))
            assert arith._trial_divide(n, *trial) == reference_trial_divide(n, primes), n

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

    def test_products_built_lazily(self, monkeypatch):
        # the products are built when a factorization first reaches their
        # run: building all 614 up front costs every process about 7 ms
        arith._trial_primes.cache_clear()
        assert factor(2**20 * 3**10).prime_powers == ((2, 20), (3, 10))
        assert factor(719 * 727).prime_powers == ((719, 1), (727, 1))
        primes, products, *_ = arith._trial_primes(10**6)
        assert products == [prod(primes[:128])]
        factor(1000003**2)
        assert len(products) == 614
        assert products == [prod(primes[i : i + 128]) for i in range(0, len(primes), 128)]


class TestPairedStage2:
    # safe primes: (R - 1)/2 is a prime far above every trial bound below,
    # and its partners, so p-1 never catches R; R * R2 is a full walk
    R, R2 = 2199023255867, 2199023258567

    @staticmethod
    def grid(trial_bound):
        primes, _, js, ends = arith._trial_primes(trial_bound)
        return primes, js, ends

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
        primes = primes_up_to(trial_bound)
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
        primes = primes_up_to(trial_bound)
        caught = 0
        for p in corpus:
            expected = reference_pm1(p * self.R, primes)
            assert expected in (p, None)
            assert arith._pollard_pm1(p * self.R, *self.grid(trial_bound)) == expected, p
            caught += expected == p
        return caught

    def test_every_row_matches_reference(self):
        rng = random.Random(14)
        rows = self.stage2_rows(primes_up_to(10**5))
        corpus = list(self._corpus(rng, 10**5, sorted(rows)))
        assert self._check(10**5, corpus) == len(corpus) - 4

    def test_sampled_rows_match_reference(self):
        rng = random.Random(15)
        rows = sorted(self.stage2_rows(primes_up_to(10**6)))
        assert len(rows) == 434
        taken = [*rows[:5], *rng.sample(rows[5:-4], 12), *rows[-4:]]
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
        primes = primes_up_to(10**6)
        for n in TestPollardPm1.LARGE_H_PARTS:
            got = arith._pollard_pm1(n, *self.grid(10**6))
            assert got is not None and got == reference_pm1(n, primes), n

    @pytest.mark.parametrize("trial_bound", [2, 3, 50, 2311, 10**5, 10**6])
    def test_rows_pair_every_stage2_prime(self, trial_bound):
        primes, js, ends = self.grid(trial_bound)
        assert arith._pollard_pm1(self.R * self.R2, primes, js, ends) is None
        D = arith._D
        rows = self.stage2_rows(primes)
        assert len(ends) - 1 == (primes[-1] + D // 2) // D + 1
        for k in range(len(ends) - 1):
            row = js[ends[k] : ends[k + 1]]
            assert len(set(row)) == len(row)
            assert set(row) == {abs(q - k * D) for q in rows.get(k, ())}, k

    def test_rows_built_lazily(self):
        # building all 434 rows takes about 10 ms, a cost only a process
        # that runs p-1 should pay
        arith._trial_primes.cache_clear()
        assert factor(2**20 * 999983 * 1000003).complete  # no part reaches p-1
        _, _, js, ends = arith._trial_primes(10**6)
        assert list(ends) == [0] and len(js) == 0
        factor(self.R * self.R2, FactorBudget(rho_iterations=10**5))
        assert len(ends) == 435 and len(js) == ends[-1]

    def test_window_gcd_n_redone_row_by_row(self):
        # p and p2 are caught by rows 5 and 6, one 4-row window: the window's
        # gcd is n, and its rows one at a time give p
        rng = random.Random(17)
        primes = primes_up_to(10**6)
        rows = self.stage2_rows(primes)
        p = self.caught_by(rng, primes, rows[5][0])
        p2 = self.caught_by(rng, primes, rows[6][-1])
        assert arith._pollard_pm1(p * p2, *self.grid(10**6)) == p
        assert reference_pm1(p * p2, primes) is None

    @pytest.mark.parametrize("trial_bound", [2, 3, 5, 7, 50])
    def test_tiny_trial_bounds(self, monkeypatch, trial_bound):
        # at T = 2, 3 is no trial prime, so for 3 | n a = 3^E has no inverse
        # modulo n; at T = 7, 11, 13, 61 and 547 are caught by the stage-2
        # primes 5, 3, 5 and 7, which divide D (3^10, 3^6, 3^10 and 3^14 are
        # 1 modulo them)
        budget = FactorBudget(trial_bound, rho_iterations=10**5)
        values = (3 * 1000003, 27 * 1000003, 3**5, 3 * 11 * 13, 11 * self.R,
                  13 * 1000003, 61 * 1000033, 547 * 1093 * 1000003,
                  11**3 * 13 * 61, 9 * 1000003 * 1000033)
        for n in values:
            f = factor(n, budget)
            with monkeypatch.context() as m:
                m.setattr(arith, "_pollard_pm1", lambda n, *grid: None)
                rho_only = factor(n, budget)
            assert f.complete and f == rho_only, n

    def test_no_inverse_and_divisors_of_d(self):
        assert arith._pollard_pm1(3 * self.R, *self.grid(2)) == 3
        assert arith._pollard_pm1(27 * self.R, *self.grid(3)) == 3
        for p in (11, 13, 61, 547):
            assert arith._pollard_pm1(p * self.R, *self.grid(7)) == p
