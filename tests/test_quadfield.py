import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbound.arith import primes_up_to
from quatbound.quadfield import (
    QuadInt,
    ideal_mul,
    ideal_pow,
    make_field,
    prime_ideal_above,
    principal_ideal,
    shortest_generator,
    splitting_type,
    unit_ideal,
)


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


class TestSplitting:
    def test_examples(self, ctx20):
        assert splitting_type(ctx20, 2) == "ramified"
        assert splitting_type(ctx20, 3) == "split"
        assert splitting_type(ctx20, 11) == "inert"

    def test_prime_ideal_examples(self, ctx20):
        I = prime_ideal_above(ctx20, 3)
        assert (I.a, I.b) == (3, 2)
        I = prime_ideal_above(ctx20, 2)
        assert (I.a, I.b) == (2, 2)
        with pytest.raises(ValueError, match="inert"):
            prime_ideal_above(ctx20, 11)

    def test_conjugate_product_is_p(self, contexts):
        rng = random.Random(99)
        for ctx in contexts.values():
            split = [p for p in primes_up_to(10**4)
                     if splitting_type(ctx, p) == "split"]
            for p in rng.sample(split, 100):
                I = prime_ideal_above(ctx, p)
                J = type(I)(a=p, b=(2 * p - I.b) % (2 * p), D=ctx.D)
                prod = ideal_mul(ctx, I, J)
                assert prod.norm == p * p
                assert prod.content == p
                assert prod.a == 1


class TestIdealArithmetic:
    def test_unit_identity(self, ctx20):
        I = prime_ideal_above(ctx20, 3)
        assert ideal_mul(ctx20, I, unit_ideal(ctx20)) == I

    def test_square_of_q3(self, ctx20):
        I = prime_ideal_above(ctx20, 3)
        sq = ideal_mul(ctx20, I, I)
        assert sq.norm == 9
        assert ideal_pow(ctx20, I, 2) == sq

    def test_pow_examples(self, ctx20):
        I = prime_ideal_above(ctx20, 3)
        assert ideal_pow(ctx20, I, 1) == I
        q4 = ideal_pow(ctx20, I, 4)
        assert q4.norm == 81
        assert shortest_generator(ctx20, q4) is not None  # class has order 2


class TestShortestGenerator:
    def test_unit_ideal(self, ctx20):
        beta = shortest_generator(ctx20, unit_ideal(ctx20))
        assert beta == QuadInt(2, 0, -20)  # the element 1

    def test_q3_squared(self, ctx20):
        I = ideal_pow(ctx20, prime_ideal_above(ctx20, 3), 2)
        beta = shortest_generator(ctx20, I)
        # 2 + sqrt(-5), trace 4, norm 9; no norm-3 element exists
        assert beta == QuadInt(4, 1, -20)
        assert beta.norm == 9 and beta.trace == 4

    def test_q3_not_principal(self, ctx20):
        assert shortest_generator(ctx20, prime_ideal_above(ctx20, 3)) is None

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
                I = principal_ideal(ctx, beta)
                assert I.norm == abs(beta.norm)
                g = shortest_generator(ctx, I)
                assert g is not None
                assert g.norm == abs(beta.norm)
                assert principal_ideal(ctx, g) == I
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
