import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbound import weilsets
from quatbound.arith import FactorBudget, factor
from quatbound.classgroup import enumerate_S0, choose_S, fill_class_data
from quatbound.quadfield import QuadInt, is_fundamental, make_field
from quatbound.weilsets import (
    ASet,
    _lucas,
    _lucas_parts,
    beta_for,
    family_A1,
    family_A2,
    family_A3,
    intersection_set,
    prime_support,
    trace_power,
    trace_set,
)


def quadint_pow(u: QuadInt, e: int) -> QuadInt:
    """u^e in O_k by binary powering: the oracle for traces of beta powers."""
    out = QuadInt(2, 0, u.D)
    base = u
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


def weil_cap(ts) -> int:
    """2 * l^(12h): the Weil bound on the traces of a TraceSet."""
    return 2 * ts.l ** (12 * ts.h)


def ring_trace_oracle(t: int, n: int, e: int) -> int:
    """Trace of gamma^e by exact binary powering of (u, v) pairs in the
    commutative ring Z[gamma] with gamma^2 = t*gamma - n."""

    def mul(p, q):
        u1, v1 = p
        u2, v2 = q
        return (u1 * u2 - n * v1 * v2, u1 * v2 + u2 * v1 + t * v1 * v2)

    acc, base = (1, 0), (0, 1)  # gamma
    k = e
    while k:
        if k & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        k >>= 1
    u, v = acc
    return 2 * u + t * v  # gamma^e + conj = 2u + v*(gamma + conj)


class TestTracePower:
    def test_examples(self):
        assert trace_power(4, 9, 2) == -2
        assert trace_power(0, 11, 2) == -22
        assert trace_power(11842, 43046721, 3) == 131360949442

    def test_matches_ring_oracle_random(self):
        rng = random.Random(42)
        for _ in range(200):
            t = rng.randrange(-50, 51)
            n = rng.randrange(-50, 51)
            e = rng.randrange(0, 201)
            assert trace_power(t, n, e) == ring_trace_oracle(t, n, e), (t, n, e)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(0, 120))
    def test_matches_ring_oracle_hypothesis(self, t, n, e):
        assert trace_power(t, n, e) == ring_trace_oracle(t, n, e)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(0, 120))
    def test_lucas_u_matches_recurrence(self, P, Q, n):
        u_prev, u = 0, 1  # U_0, U_1
        for _ in range(n):
            u_prev, u = u, P * u - Q * u_prev
        assert _lucas(P, Q, n)[0] == u_prev


class TestBeta:
    def test_q3_beta(self, ctx20):
        s0 = enumerate_S0(ctx20, 2)
        beta = beta_for(ctx20, s0[0])
        assert beta == QuadInt(4, 1, -20)  # 2 + sqrt(-5)
        assert beta.trace == 4 and beta.norm == 9

    def test_q7_beta(self, ctx20):
        s0 = enumerate_S0(ctx20, 2)
        beta = beta_for(ctx20, s0[1])
        assert beta.norm == 49
        assert beta.trace == 4  # 2 +- 3*sqrt(-5): x^2 + 5 y^2 = 49

    def test_iterated_squaring_oracle(self, ctx20):
        # Tr(beta^e) via exact powering in O_k with a norm check per step
        s0 = enumerate_S0(ctx20, 1)
        beta = beta_for(ctx20, s0[0])
        for e in (2, 4, 8, 16, 24):
            p = quadint_pow(beta, e)
            assert p.norm == 9**e
            assert trace_power(beta.trace, 9, e) == p.trace
        assert quadint_pow(beta, 8).trace == 11842
        assert quadint_pow(beta, 24).trace == 131360949442


class TestTraceSet:
    def test_m_range_and_anchor(self):
        ts = trace_set(3, 2)
        assert sorted(ts.entries) == [-3, -2, -1, 0, 1, 2, 3]
        assert ts.entries[0] == 2 * 3**24 == 564859072962

    def test_extreme_m_root_of_unity(self):
        # gamma for m = +-3 is sqrt(3) times a 12th root of unity
        ts = trace_set(3, 2)
        assert ts.entries[3] == ts.entries[-3] == 2 * 3**24

    def test_weil_bound_and_symmetry(self, contexts):
        for ctx in contexts.values():
            for q in enumerate_S0(ctx, 4):
                ts = trace_set(q.l, ctx.exponent_h)
                cap = weil_cap(ts)
                for m, s in ts.entries.items():
                    assert abs(s) <= cap
                    assert s == ts.entries[-m]
                assert ts.entries[0] == cap


class TestFamilies:
    def test_a1_a2_shifts_and_elements(self, ctx20):
        q3 = enumerate_S0(ctx20, 1)[0]
        a1 = family_A1(ctx20, q3)
        assert a1.shifts == (131360949442,)
        assert 564859072962 - 131360949442 in a1.elements
        a2 = family_A2(ctx20, q3)
        assert a2.shifts == (3**16 * 11842,)
        assert 564859072962 - 509759270082 in a2.elements

    def test_beta_choice_invariance(self, ctx20):
        # only even powers of beta occur: -beta and conj(beta) give the
        # same shifts, hence the same element sets
        q3 = enumerate_S0(ctx20, 1)[0]
        beta = beta_for(ctx20, q3)
        for alt in (-beta, beta.conj(), -beta.conj()):
            assert quadint_pow(alt, 24).trace == quadint_pow(beta, 24).trace
            assert quadint_pow(alt, 8).trace == quadint_pow(beta, 8).trace

    def test_nonvanishing_first_five(self, contexts):
        for ctx in contexts.values():
            for q in enumerate_S0(ctx, 5):
                assert 0 not in family_A1(ctx, q).elements, (ctx.D, q.l)
                assert 0 not in family_A2(ctx, q).elements, (ctx.D, q.l)

    def test_a3(self, ctx20):
        S = choose_S(ctx20)
        a3 = family_A3(ctx20, S)
        assert 0 in a3.elements
        assert all(v <= 0 for v in a3.elements)
        assert len(a3.elements) <= 7
        with pytest.raises(ValueError):
            family_A3(ctx20, [])


class TestPrimeSupport:
    def test_zero_only(self):
        from quatbound.weilsets import ASet

        aset = ASet(family="A3", q_list=(3,), shifts=(0,), elements=(0,))
        out = prime_support(aset)
        assert out.support == frozenset() and out.certified

    def test_small_values(self):
        from quatbound.weilsets import ASet

        aset = ASet(family="A1", q_list=(3,), shifts=(0,), elements=(-12, 18))
        assert prime_support(aset).support == {2, 3}

    def test_a1_certified(self, ctx20):
        q3 = enumerate_S0(ctx20, 1)[0]
        out = prime_support(family_A1(ctx20, q3))
        assert out.certified
        # cross-check the support by direct divisibility
        for p in out.support:
            assert any(v % p == 0 for v in out.elements if v != 0)


FAMILIES = {"A1": family_A1, "A2": family_A2}


def members(ctx, family, s0):
    return [FAMILIES[family](ctx, q) for q in s0]


def intersect(ms, budget=FactorBudget()):
    inter = intersection_set(ms, budget)
    return inter.support, inter.certified


class TestIntersectSupports:
    def test_length_one_equals_support(self, ctx20):
        s0 = enumerate_S0(ctx20, 1)
        primes, cert = intersect(members(ctx20, "A1", s0))
        assert primes == prime_support(family_A1(ctx20, s0[0])).support
        assert cert

    def test_monotone_shrinking(self, ctx20):
        s0 = enumerate_S0(ctx20, 4)
        prev = None
        for k in (1, 2, 3, 4):
            cur, _ = intersect(members(ctx20, "A1", s0[:k]))
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_divisibility_filter(self, ctx20):
        s0 = enumerate_S0(ctx20, 2)
        one, _ = intersect(members(ctx20, "A1", s0[:1]))
        two, _ = intersect(members(ctx20, "A1", s0))
        dropped = one - two
        elems7 = [v for v in family_A1(ctx20, s0[1]).elements if v != 0]
        for p in dropped:
            assert all(v % p for v in elems7)
        for p in two:
            assert any(v % p == 0 for v in elems7)


def factor_then_filter(members):
    """Oracle: factor every element of the first member, then keep the
    primes dividing some nonzero element of each later member."""
    first = prime_support(members[0])
    primes = set(first.support)
    for m in members[1:]:
        elems = [v for v in m.elements if v != 0]
        primes = {p for p in primes if any(v % p == 0 for v in elems)}
    return frozenset(primes), first.certified


def _field(D):
    ctx = make_field(D)
    fill_class_data(ctx)
    return ctx


class TestGcdIntersection:
    @pytest.mark.parametrize("D", [-20, -419, -3299])
    def test_equals_factor_then_filter(self, D):
        ctx = _field(D)
        s0 = enumerate_S0(ctx, 4)
        for family in ("A1", "A2"):
            ms = members(ctx, family, s0)
            expected = factor_then_filter(ms)
            assert expected[1]
            assert intersect(ms) == expected, (D, family)

    def test_large_h_certified(self):
        ctx = _field(-1151)
        s0 = enumerate_S0(ctx, 4)
        budget = FactorBudget(rho_iterations=10**6)
        assert intersect(members(ctx, "A1", s0), budget) == (
            frozenset({2, 3, 5, 7, 17, 23, 37, 71, 1151}), True)
        assert intersect(members(ctx, "A2", s0), budget) == (
            frozenset({2, 3, 5, 31, 1151}), True)

    def test_gcds_go_through_cache(self, ctx20):
        s0 = enumerate_S0(ctx20, 4)
        cache = {}
        ms = members(ctx20, "A1", s0)
        inter = intersection_set(ms, cache=cache)
        assert inter.elements and set(cache) == set(inter.elements)
        assert (inter.support, inter.certified) == intersect(ms)
        for g in cache:
            for q in s0:
                prod_q = 1
                for v in family_A1(ctx20, q).elements:
                    prod_q *= v or 1
                assert prod_q % g == 0

    @pytest.mark.parametrize("family", ["A1", "A2"])
    def test_one_member_factors_each_element(self, family):
        ctx = _field(-3299)
        s0 = enumerate_S0(ctx, 1)
        first = prime_support(FAMILIES[family](ctx, s0[0]))
        assert first.certified
        assert intersect(members(ctx, family, s0)) == (first.support, True)

    @pytest.mark.parametrize("count", [1, 2])
    def test_large_primes_of_different_elements_stay_apart(self, ctx20, count):
        # two 61/63-bit primes in different elements: each is certified on
        # its own, but their product is beyond a 10-step rho
        p1, p2 = 2**61 - 1, 4611686018427388039
        s0 = enumerate_S0(ctx20, count)
        elements = [(6 * p1, 10 * p2), (7 * p1, 11 * p2)][:count]
        fakes = [ASet(family="A1", q_list=(q.l,), shifts=(0,), elements=e)
                 for q, e in zip(s0, elements)]
        budget = FactorBudget(trial_bound=100, rho_iterations=10)
        expected = {p1, p2} | ({2, 3, 5} if count == 1 else set())
        assert intersect(fakes, budget) == (frozenset(expected), True)

    @pytest.mark.parametrize("member", [0, 1])
    def test_member_without_nonzero_elements(self, ctx20, member):
        s0 = enumerate_S0(ctx20, 3)
        ms = members(ctx20, "A1", s0)
        ms[member] = ASet(family="A1", q_list=(s0[member].l,), shifts=(0,), elements=(0,))
        assert factor_then_filter(ms) == (frozenset(), True)
        assert intersect(ms) == (frozenset(), True)


def whole_element_factorizations(aset, budget):
    """The oracle: factor() on each whole nonzero element, as prime_support
    did before A3 elements were split into their Lucas parts."""
    return tuple(factor(v, budget) if v else None for v in aset.elements)


@pytest.fixture(scope="module")
def a3_panel():
    """family_A3 of every fundamental D in [-500, -3] with h_k > 1, and of
    -1151 (h = 41)."""
    out = []
    for D in [*range(-3, -501, -1), -1151]:
        if not is_fundamental(D):
            continue
        ctx = _field(D)
        if ctx.class_number > 1:
            out.append(family_A3(ctx, choose_S(ctx)))
    return out


class TestA3Split:
    BUDGET = FactorBudget(rho_iterations=10**6)

    def test_panel(self, a3_panel):
        assert len(a3_panel) == 145
        for a3 in a3_panel:
            assert len(a3.lucas) == len(a3.elements)

    def test_identity(self, a3_panel):
        for a3 in a3_panel:
            for v, (l, m, h) in zip(a3.elements, a3.lucas):
                assert v == trace_power(-m, l, 24 * h) - 2 * l ** (12 * h)
                if v == 0:
                    continue
                delta, psi = _lucas_parts(l, m, h)
                assert v == delta * prod(psi.values()) ** 2
                assert sorted(psi) == [d for d in range(2, 12 * h + 1) if 12 * h % d == 0]

    def test_equals_whole_element_oracle(self, a3_panel):
        for a3 in a3_panel:
            split = prime_support(a3, self.BUDGET)
            assert split.certified, a3.q_list
            assert split.factorizations == whole_element_factorizations(a3, self.BUDGET)

    def test_primitive_part_primes(self, a3_panel):
        # every prime of Psi_d divides d or is +-1 mod d
        for a3 in a3_panel:
            for v, (l, m, h) in zip(a3.elements, a3.lucas):
                if v == 0:
                    continue
                for d, part in _lucas_parts(l, m, h)[1].items():
                    f = factor(part, self.BUDGET)
                    assert f.complete
                    for p in f.primes:
                        assert d % p == 0 or p % d in (1, d - 1), (l, m, d, p)

    def test_cache_keyed_by_whole_value(self, a3_panel):
        a3 = a3_panel[-1]
        cache = {}
        out = prime_support(a3, self.BUDGET, cache)
        assert set(cache) == {v for v in a3.elements if v}
        assert all(cache[v] == f for v, f in zip(a3.elements, out.factorizations) if v)

    def test_one_factor_call_per_part(self, a3_panel, monkeypatch):
        # one factor() call for Delta and one for each Psi_d
        calls = []
        real = weilsets.factor

        def recording(n, budget):
            calls.append(n)
            return real(n, budget)

        monkeypatch.setattr(weilsets, "factor", recording)
        a3 = a3_panel[-1]
        v, lucas = next((v, s) for v, s in zip(a3.elements, a3.lucas) if v)
        weilsets.factor_cached(v, self.BUDGET, None, lucas)
        delta, psi = _lucas_parts(*lucas)
        assert calls == [delta, *psi.values()]

    def test_incomplete_cofactor_is_squared(self):
        # on a tiny budget each unfinished Psi_d enters the cofactor squared
        ctx = _field(-1151)
        a3 = family_A3(ctx, choose_S(ctx))
        tiny = FactorBudget(trial_bound=50, rho_iterations=2)
        out = prime_support(a3, tiny)
        assert not out.certified
        unfinished = [(s, f) for s, f in zip(a3.lucas, out.factorizations)
                      if f is not None and not f.complete]
        assert unfinished
        for (l, m, h), f in unfinished:
            delta, psi = _lucas_parts(l, m, h)
            expected = prod(factor(p, tiny).cofactor or 1 for p in psi.values()) ** 2
            assert f.cofactor == expected * (factor(delta, tiny).cofactor or 1)
            assert f.reconstruct() == f.value
