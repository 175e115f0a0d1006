import random
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideal_reference import QuadInt, ideal_mul, prime_ideal_above, principal_ideal, shortest_generator
from quatbound import arith, quadfield
from quatbound.arith import primes_up_to
from quatbound.classgroup import (
    QuadForm,
    compose,
    form_power,
    prime_form,
    principal_form,
    principal_generator,
    reduce_form,
)
from quatbound.quadfield import is_fundamental, make_field, split_primes, splitting_type


def old_squarefree(n: int) -> bool:
    """The squarefree test make_field used before it shared one trial
    division loop with the ramified primes: the oracle for that loop."""
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def old_prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def old_is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return old_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and old_squarefree(m)
    return False


class TestMakeField:
    def test_promotes_squarefree(self):
        ctx = make_field(-5)
        assert ctx.D == -20
        assert ctx.ram_primes == {2, 5}

    def test_keeps_fundamental(self):
        ctx = make_field(-7)
        assert ctx.D == -7
        assert ctx.ram_primes == {7}

    def test_rejects_positive(self):
        with pytest.raises(ValueError, match="not imaginary"):
            make_field(5)

    def test_rejects_non_squarefree_non_fundamental(self):
        with pytest.raises(ValueError):
            make_field(-12)  # -12 = 4*(-3), -3 = 1 mod 4: not fundamental
        with pytest.raises(ValueError):
            make_field(-45)

    @staticmethod
    def check_against_old(n):
        assert is_fundamental(n) == old_is_fundamental(n), n
        if old_is_fundamental(n):
            D = n
        elif old_squarefree(n):
            D = n if n % 4 == 1 else 4 * n
        else:
            with pytest.raises(ValueError):
                make_field(n)
            return
        ctx = make_field(n)
        assert (ctx.D, ctx.ram_primes) == (D, frozenset(old_prime_divisors(-D))), n

    def test_matches_old_trial_division(self):
        for n in range(-1, -10**4 - 1, -1):
            self.check_against_old(n)

    def test_incomplete_factorization_rejected(self):
        # 2^89 - 1 is prime, but factor() leaves it as a BPSW-probable
        # cofactor: its ramified prime would go unlisted
        with pytest.raises(ValueError, match="factored completely"):
            make_field(-(2**89 - 1))

    @pytest.mark.parametrize("n", [-5, -7, -20, -84, -3299, -12, -45, -4 * 5,
                                   -2**89 + 1, -4 * (2**89 - 1)])
    def test_one_factorization(self, n, monkeypatch):
        # the squarefree test and the ramified primes share one factor() call
        calls = []

        def counting(m):
            calls.append(m)
            return arith.factor(m)

        monkeypatch.setattr(quadfield, "factor", counting)
        try:
            make_field(n)
        except ValueError:
            pass
        assert len(calls) == 1, calls

    def test_incomplete_factorization_names_the_number(self):
        # the number factored: n, or m for n = 4m with m = 2, 3 mod 4
        m = 2**89 - 1  # 3 mod 4
        for n, named in ((-m, -m), (-4 * m, -4 * m), (-8 * m, -2 * m), (-2 * m, -2 * m)):
            with pytest.raises(ValueError, match=f"^{named} could not"):
                make_field(n)

    def test_matches_old_trial_division_above_1000(self):
        # primes above 1000 lie past the first run of 128 trial primes
        for n in (-3 * 1009**2, -1009 * 1013, -4 * 1009 * 1013, -8 * 1009,
                  -4 * 1013**2, -1009 * 999983, -4 * 1009 * 999983,
                  -7 * 999983, -2 * 7 * 1009**2):
            self.check_against_old(n)


class TestSplitting:
    def test_examples(self, ctx20):
        assert splitting_type(ctx20, 2) == "ramified"
        assert splitting_type(ctx20, 3) == "split"
        assert splitting_type(ctx20, 11) == "inert"

    def test_prime_ideal_examples(self):
        assert prime_form(-20, 3) == QuadForm(3, 2, 2)
        assert prime_form(-20, 2) == QuadForm(2, 2, 3)
        with pytest.raises(ValueError, match="inert"):
            prime_form(-20, 11)

    def test_conjugate_product_is_p(self, contexts):
        rng = random.Random(99)
        for ctx in contexts.values():
            split = [p for p in primes_up_to(10**4)
                     if splitting_type(ctx, p) == "split"]
            for p in rng.sample(split, 100):
                f = prime_form(ctx.D, p)
                assert compose(ctx.D, f, reduce_form(f.a, -f.b, f.c)) == principal_form(ctx.D)
                # the reference product q * conj(q) is p * O_k
                I = prime_ideal_above(ctx.D, p)
                J = type(I)(a=p, b=(2 * p - I.b) % (2 * p), D=ctx.D)
                prod = ideal_mul(I, J)
                assert (prod.a, prod.content) == (1, p)


class TestSplitPrimes:
    def test_one_walk_sieves_each_number_once(self, contexts, fresh, segment_calls):
        # a process sieves each number at most once: walks read one list.
        # The contexts are built after fresh, since a context keeps the
        # split primes it has found
        calls = segment_calls
        for ctx in map(make_field, contexts):
            got = list(takewhile(lambda l: l <= 2**14, split_primes(ctx)))
            assert got == [l for l in range(2, 2**14 + 1) if old_prime_divisors(l) == [l]
                           and splitting_type(ctx, l) == "split"], ctx.D
            # disjoint and contiguous, (4, 16], ..., (4^7, 4^8], all sieved
            # by the first walk: every later walk sieves nothing
            assert calls == [(4**k, 4 ** (k + 1)) for k in range(1, 8)], ctx.D


class TestIdealArithmetic:
    def test_unit_identity(self):
        q3 = prime_form(-20, 3)
        assert compose(-20, q3, principal_form(-20)) == QuadForm(2, 2, 3)
        assert form_power(-20, q3, 1) == q3

    def test_square_of_q3(self):
        sq = form_power(-20, prime_form(-20, 3), 2)
        assert (sq.a, sq.b) == (9, 14)
        assert reduce_form(sq.a, sq.b, sq.c) == principal_form(-20)

    def test_pow_examples(self):
        q3 = prime_form(-20, 3)
        for n in range(1, 9):
            assert form_power(-20, q3, n).a == 3**n
        q4 = form_power(-20, q3, 4)
        assert principal_generator(q4) is not None  # class has order 2


class TestShortestGenerator:
    def test_unit_ideal(self):
        beta = shortest_generator(-20, 1, 0)
        assert beta == QuadInt(2, 0, -20)  # the element 1

    def test_q3_squared(self):
        sq = form_power(-20, prime_form(-20, 3), 2)
        beta = shortest_generator(-20, sq.a, sq.b)
        # 2 + sqrt(-5), trace 4, norm 9; no norm-3 element exists
        assert beta == QuadInt(4, 1, -20)
        assert beta.norm == 9 and beta.trace == 4

    def test_q3_not_principal(self):
        assert shortest_generator(-20, 3, 2) is None

    def test_exhaustive_norm_oracle(self, ctx20):
        # brute force: no element of q3 has norm 3 (x^2 + 5 y^2 = 3 insoluble)
        sols = [
            (x, y)
            for x in range(-4, 5)
            for y in range(-2, 3)
            if x * x + 5 * y * y == 3
        ]
        assert sols == []

    def test_round_trip(self, contexts):
        rng = random.Random(5)
        for ctx in contexts.values():
            for _ in range(50):
                x = rng.randrange(-20, 21)
                y = rng.randrange(-20, 21)
                if (x - ctx.D * y) % 2:
                    x += 1
                if x == 0 and y == 0:
                    x = 2
                beta = QuadInt(x, y, ctx.D)
                I = principal_ideal(ctx.D, beta)
                assert I.norm == abs(beta.norm)
                g = shortest_generator(ctx.D, I.a, I.b)
                assert g is not None
                g = g * I.content
                assert g.norm == abs(beta.norm)
                assert principal_ideal(ctx.D, g) == I
                assert I.contains(g)


class TestQuadInt:
    def test_examples(self):
        b = QuadInt(4, 1, -20)  # 2 + sqrt(-5)
        sq = b * b
        assert sq == QuadInt(-2, 4, -20)  # -1 + 4*sqrt(-5)
        assert b.conj() == QuadInt(4, -1, -20)
        assert b * b.conj() == QuadInt(18, 0, -20)  # 9

    def test_membership_constraint(self):
        with pytest.raises(ValueError):
            QuadInt(1, 0, -20)  # 1/2 is not an algebraic integer

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_norm_multiplicative(self, x1, y1, x2, y2):
        D = -20
        u = QuadInt(2 * x1, 2 * y1, D)
        v = QuadInt(2 * x2, 2 * y2, D)
        assert (u * v).norm == u.norm * v.norm
