import random
from collections import Counter
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import class_group_fields
from pipeline_reference import QuadInt, ring_trace_oracle
from intersection_reference import reference_intersection
from lucas_reference import reference_lucas
from quatbound import arith, weilsets
from quatbound.arith import FactorBudget, FactoredInteger, factor, is_prime, primes_up_to
from quatbound.bound import BoundParams, assemble_sets
from quatbound.classgroup import enumerate_S0
from quatbound.quadfield import make_field
from quatbound.weilsets import (
    ASet,
    _lucas_parts,
    _lucas_v,
    _trace_differences,
    a3_family,
    beta_for,
    intersection_set,
    prime_support,
    trace_families,
    trace_power,
    trace_set,
)


def build_A1_A2(ctx, q):
    """The A1 and A2 families of the S0 member q (trace_families over {q})."""
    families = trace_families(ctx, [q])
    return families["A1"][0], families["A2"][0]


def build_A3(h, ls):
    """The raw A3 family over the primes ls of S in one pass, with no memo,
    and the (l, m, h) of each element that a3_family factors it through:
    the first that gives it, over ls's order, then m from -m_max."""
    triples = [(l, trace_set(l, h), 2 * l ** (12 * h)) for l in ls]
    origin = {}
    for l, traces, shift in triples:
        for m, a in traces.items():
            origin.setdefault(a - shift, (l, m, h))
    return _trace_differences("A3", triples), origin


def generators_A3(ctx):
    """build_A3 over the field's S, its class-group generators."""
    return build_A3(ctx.h, [q.l for q in ctx.generators])


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


def weil_cap(l: int, h: int) -> int:
    """2 * l^(12h): the Weil bound on the traces of trace_set(l, h)."""
    return 2 * l ** (12 * h)


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

    def test_lucas_u_matches_recurrence(self):
        # _lucas_parts reads U_d as (2*V_d+1 + m*V_d)/(m^2 - 4l), so the
        # product of Psi_e over e | d, e > 1, is U_d(-m, l) of the
        # recurrence, for every (l, m) with m^2 < 4l and gcd(l, m) = 1
        for l in primes_up_to(60):
            m_max = isqrt(4 * l)
            for m in range(-m_max, m_max + 1):
                if gcd(l, m) != 1:
                    continue
                for h in (1, 2, 5):
                    us = [0, 1]  # U_0, U_1
                    while len(us) <= 12 * h:
                        us.append(-m * us[-1] - l * us[-2])
                    delta, psi = _lucas_parts(l, m, h)
                    assert delta == m * m - 4 * l
                    for d in psi:
                        u_d = prod(part for e, part in psi.items() if d % e == 0)
                        assert u_d == us[d], (l, m, h, d)


class TestLucasChain:
    """_lucas_v against the (U, V) doubling ladder of lucas_reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=4),
           st.integers(-30, 30), st.integers(0, 200))
    @example([3], 5, 0)
    @example([3], 5, 1)
    @example([-7, 0, 7], -2, 2)
    @example([4, -4], 9, 105)
    @example([1, 2, 3], 11, 24 * 8)
    @example([5], -3, 128)
    def test_matches_reference_ladder(self, Ps, Q, n):
        assert _lucas_v(Ps, Q, n) == [reference_lucas(P, Q, n)[1] for P in Ps]

    def test_trace_sets_of_the_golden_requests(self, golden_contexts):
        # every (l, h) of S and of the default S0 truncation of each field
        pairs = set()
        for ctx in golden_contexts.values():
            S0 = enumerate_S0(ctx, BoundParams().s0_count)
            pairs |= {(q.l, ctx.h) for q in [*ctx.generators, *S0]}
        assert max(h for _, h in pairs) == 362
        for l, h in sorted(pairs):
            m_max = isqrt(4 * l)
            assert trace_set(l, h) == {m: reference_lucas(-m, l, 24 * h)[1]
                                       for m in range(-m_max, m_max + 1)}, (l, h)

    def test_a1_shift_identity(self):
        # trace_families reads V_24 = V_3(V_8, Q^8) = V_8*(V_8^2 - 3*Q^8)
        rng = random.Random(24)
        for _ in range(200):
            t, Q = rng.randrange(-10**40, 10**40), rng.randrange(-10**30, 10**30)
            v8 = reference_lucas(t, Q, 8)[1]
            assert v8 * (v8 * v8 - 3 * Q**8) == reference_lucas(t, Q, 24)[1]


class TestBeta:
    def test_q3_beta(self, ctx20):
        s0 = enumerate_S0(ctx20, 2)
        t, y = beta_for(ctx20, s0[0])
        assert (t, y) == (4, 1)  # 2 + sqrt(-5)
        beta = QuadInt(t, y, -20)
        assert beta.trace == 4 and beta.norm == 9

    def test_q7_beta(self, ctx20):
        s0 = enumerate_S0(ctx20, 2)
        beta = QuadInt(*beta_for(ctx20, s0[1]), -20)
        assert beta.norm == 49
        assert beta.trace == 4  # 2 +- 3*sqrt(-5): x^2 + 5 y^2 = 49

    def test_wrong_norm_raises(self, ctx20, monkeypatch):
        # (4 + 3*sqrt(-20))/2 has norm 49, not 3^h = 9; the check is an
        # explicit raise, so python -O keeps it
        q3 = enumerate_S0(ctx20, 1)[0]
        monkeypatch.setattr(weilsets, "principal_generator", lambda f: (4, 3))
        with pytest.raises(AssertionError, match="wrong norm"):
            beta_for(ctx20, q3)

    def test_iterated_squaring_oracle(self, ctx20):
        # Tr(beta^e) via exact powering in O_k with a norm check per step
        s0 = enumerate_S0(ctx20, 1)
        beta = QuadInt(*beta_for(ctx20, s0[0]), -20)
        for e in (2, 4, 8, 16, 24):
            p = quadint_pow(beta, e)
            assert p.norm == 9**e
            assert trace_power(beta.trace, 9, e) == p.trace
        assert quadint_pow(beta, 8).trace == 11842
        assert quadint_pow(beta, 24).trace == 131360949442


class TestTraceSet:
    def test_m_range_and_anchor(self):
        ts = trace_set(3, 2)
        assert sorted(ts) == [-3, -2, -1, 0, 1, 2, 3]
        assert ts[0] == 2 * 3**24 == 564859072962

    def test_extreme_m_root_of_unity(self):
        # gamma for m = +-3 is sqrt(3) times a 12th root of unity
        ts = trace_set(3, 2)
        assert ts[3] == ts[-3] == 2 * 3**24

    def test_each_trace_from_its_own_ladder(self):
        # trace_set mirrors one chain over |m|; every m, in order from -m_max
        for l, h in ((3, 2), (5, 1), (7, 3), (41, 12), (101, 5), (1009, 2)):
            ts = trace_set(l, h)
            m_max = isqrt(4 * l)
            assert list(ts) == list(range(-m_max, m_max + 1))
            for m, s in ts.items():
                assert s == trace_power(-m, l, 24 * h), (l, h, m)

    @pytest.mark.parametrize("D", [-20, -23, -24, -47, -84])
    def test_weil_bound_and_symmetry(self, contexts, D):
        ctx = contexts[D]
        for q in enumerate_S0(ctx, 4):
            ts = trace_set(q.l, ctx.h)
            cap = weil_cap(q.l, ctx.h)
            for m, s in ts.items():
                assert abs(s) <= cap
                assert s == ts[-m]
            assert ts[0] == cap


class TestFamilies:
    def test_a1_a2_shifts_and_elements(self, ctx20):
        q3 = enumerate_S0(ctx20, 1)[0]
        a1, a2 = build_A1_A2(ctx20, q3)
        assert set(a1.elements) == {a - 131360949442 for a in trace_set(3, ctx20.h).values()}
        assert 564859072962 - 131360949442 in a1.elements
        assert set(a2.elements) == {a - 3**16 * 11842 for a in trace_set(3, ctx20.h).values()}
        assert 564859072962 - 509759270082 in a2.elements

    def test_beta_choice_invariance(self, ctx20):
        # only even powers of beta occur: -beta and conj(beta) give the
        # same shifts, hence the same element sets
        q3 = enumerate_S0(ctx20, 1)[0]
        beta = QuadInt(*beta_for(ctx20, q3), -20)
        for alt in (-beta, beta.conj(), -beta.conj()):
            assert quadint_pow(alt, 24).trace == quadint_pow(beta, 24).trace
            assert quadint_pow(alt, 8).trace == quadint_pow(beta, 8).trace

    def test_a3(self, ctx20):
        S = ctx20.generators
        a3, _ = generators_A3(ctx20)
        assert 0 in a3.elements
        assert all(v <= 0 for v in a3.elements)
        assert len(a3.elements) <= 7
        assert a3_family(ctx20.h, [q.l for q in S]) == prime_support(a3)
        # an empty S would leave A3 empty, and an empty truncation the A1/A2
        # intersection
        with pytest.raises(ValueError, match="S must be nonempty"):
            a3_family(ctx20.h, [])
        with pytest.raises(ValueError, match="truncation must be nonempty"):
            weilsets.intersection_set([])

    def test_families_by_name(self, ctx20):
        # one A1 and one A2 family per S0 member, in S0 order
        s0 = enumerate_S0(ctx20, 4)
        families = trace_families(ctx20, s0)
        assert list(families) == ["A1", "A2"]
        for i, q in enumerate(s0):
            assert (families["A1"][i], families["A2"][i]) == build_A1_A2(ctx20, q)
            assert families["A1"][i].q_list == families["A2"][i].q_list == (q.l,)


class TestPrimeSupport:
    def test_zero_only(self):
        from quatbound.weilsets import ASet

        aset = ASet(family="A3", q_list=(3,), elements=(0,))
        out = prime_support(aset)
        assert out.support == frozenset() and out.certified

    def test_small_values(self):
        from quatbound.weilsets import ASet

        aset = ASet(family="A1", q_list=(3,), elements=(-12, 18))
        assert prime_support(aset).support == {2, 3}

    def test_a1_certified(self, ctx20):
        q3 = enumerate_S0(ctx20, 1)[0]
        out = prime_support(build_A1_A2(ctx20, q3)[0])
        assert out.certified
        # cross-check the support by direct divisibility
        for p in out.support:
            assert any(v % p == 0 for v in out.elements if v != 0)


class TestReadOff:
    """support and certified are read off the factorizations, so they
    follow every replace() of them."""

    def test_replaced_factorizations(self, ctx20):
        a = prime_support(generators_A3(ctx20)[0])
        assert a.support and a.certified
        bare = a._replace(factorizations=())
        assert bare.support == frozenset() and not bare.certified
        # one element left unfactored: its primes leave the support
        i = next(i for i, v in enumerate(a.elements) if v != 0)
        v = a.elements[i]
        facs = list(a.factorizations)
        facs[i] = FactoredInteger(value=v, prime_powers=(), cofactor=abs(v))
        rest = [f.primes for f in facs if f is not None]
        part = a._replace(factorizations=tuple(facs))
        assert part.support == frozenset().union(*rest) and not part.certified

    def test_raw_families_uncertified(self, contexts):
        for ctx in contexts.values():
            for q in enumerate_S0(ctx, 2):
                for raw in build_A1_A2(ctx, q):
                    assert raw.support == frozenset() and not raw.certified

    def test_empty_family_certified(self):
        # an intersection with no element has nothing left to factor
        assert ASet(family="A1", q_list=(3, 7), elements=()).certified

    def test_panel_support_is_union(self, a3_panel):
        budget = FactorBudget(rho_iterations=10**6)
        for a3, _ in a3_panel:
            out = prime_support(a3, budget)
            facs = [f for f in out.factorizations if f is not None]
            assert len(facs) == sum(v != 0 for v in a3.elements)
            assert out.support == frozenset(p for f in facs for p in f.primes)
            assert out.certified == all(f.complete for f in facs)


FAMILIES = {"A1": 0, "A2": 1}


def members(ctx, family, s0):
    return [build_A1_A2(ctx, q)[FAMILIES[family]] for q in s0]


def intersect(ms, budget=FactorBudget()):
    inter = intersection_set(ms, budget)
    return inter.support, inter.certified


class TestIntersectSupports:
    def test_length_one_equals_support(self, ctx20):
        s0 = enumerate_S0(ctx20, 1)
        primes, cert = intersect(members(ctx20, "A1", s0))
        assert primes == prime_support(build_A1_A2(ctx20, s0[0])[0]).support
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
        elems7 = [v for v in build_A1_A2(ctx20, s0[1])[0].elements if v != 0]
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
    return make_field(D)


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

    def test_gcds_divide_every_member(self, ctx20):
        # at trial bound 10 every gcd has two primes above the bound, so
        # factoring goes past trial division, and gives the same set
        s0 = enumerate_S0(ctx20, 4)
        ms = members(ctx20, "A1", s0)
        inter = intersection_set(ms, FactorBudget(trial_bound=10))
        assert inter.elements
        assert (inter.support, inter.certified) == intersect(ms)
        for g in inter.elements:
            for m in ms:
                assert prod(v for v in m.elements if v) % g == 0

    @pytest.mark.parametrize("family", ["A1", "A2"])
    def test_one_member_factors_each_element(self, family):
        ctx = _field(-3299)
        s0 = enumerate_S0(ctx, 1)
        first = prime_support(build_A1_A2(ctx, s0[0])[FAMILIES[family]])
        assert first.certified
        assert intersect(members(ctx, family, s0)) == (first.support, True)

    @pytest.mark.parametrize("count", [1, 2])
    def test_large_primes_of_different_elements_stay_apart(self, ctx20, count):
        # two 61/63-bit primes in different elements: each is certified on
        # its own, but their product is beyond a 10-step rho
        p1, p2 = 2**61 - 1, 4611686018427388039
        s0 = enumerate_S0(ctx20, count)
        elements = [(6 * p1, 10 * p2), (7 * p1, 11 * p2)][:count]
        fakes = [ASet(family="A1", q_list=(q.l,), elements=e)
                 for q, e in zip(s0, elements)]
        budget = FactorBudget(trial_bound=100, rho_iterations=10)
        expected = {p1, p2} | ({2, 3, 5} if count == 1 else set())
        assert intersect(fakes, budget) == (frozenset(expected), True)

    @pytest.mark.parametrize("member", [0, 1])
    def test_member_without_nonzero_elements(self, ctx20, member):
        s0 = enumerate_S0(ctx20, 3)
        ms = members(ctx20, "A1", s0)
        ms[member] = ASet(family="A1", q_list=(s0[member].l,), elements=(0,))
        assert factor_then_filter(ms) == (frozenset(), True)
        assert intersect(ms) == (frozenset(), True)


# the elements are compared, not their factorizations: the least budget, no rho
NO_EFFORT = FactorBudget(trial_bound=2, rho_iterations=0)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# 0, small-prime products of either sign (so gcds share primes), and any int
intersection_elements = st.one_of(
    st.just(0),
    st.builds(lambda sign, ps: sign * prod(ps), st.sampled_from((1, -1)),
              st.lists(st.sampled_from(SMALL_PRIMES), max_size=6)),
    st.integers(-(10**12), 10**12),
)


class TestIntersectionOracle:
    """intersection_set's elements equal the gcd-of-products reference
    exactly: the values, not only their supports, and never negative."""

    @pytest.mark.parametrize("family", ["A1", "A2"])
    def test_golden_fields_truncations_1_to_4(self, golden_contexts, family):
        for D, ctx in golden_contexts.items():
            ms = trace_families(ctx, enumerate_S0(ctx, 4))[family]
            for k in range(1, len(ms) + 1):
                expected = reference_intersection([m.elements for m in ms[:k]])
                assert intersection_set(ms[:k], NO_EFFORT).elements == expected, (D, k)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(intersection_elements, max_size=6), min_size=1, max_size=5))
    @example([[-12, 0, 12, -30, 1, -1]])
    @example([[-12, 18, -18, 35], [0, 0]])
    @example([[-12, 18, -18, 35], [0, -6, -6, 7], [-10, 21]])
    @example([[60, -84, 0], [30, 42, -7], [-4, 0, 14], [3, 7], [-1]])
    def test_equals_reference(self, members):
        ms = [ASet(family="A1", q_list=(i,), elements=tuple(m))
              for i, m in enumerate(members)]
        assert intersection_set(ms, NO_EFFORT).elements == reference_intersection(members)


def whole_element_factorizations(aset, budget):
    """The oracle: factor() on each whole nonzero element, as prime_support
    does."""
    return tuple(factor(v, budget) if v else None for v in aset.elements)


@pytest.fixture(scope="module")
def a3_panel():
    """The raw A3 family of every fundamental D in [-500, -3] with h_k > 1,
    and of -1151 (h = 41), each with its elements' (l, m, h)."""
    return [generators_A3(_field(D)) for D in [*class_group_fields(-500), -1151]]


class TestA3Split:
    BUDGET = FactorBudget(rho_iterations=10**6)

    def test_panel(self, a3_panel):
        # each element has an origin, and only elements have one
        assert len(a3_panel) == 145
        for a3, origin in a3_panel:
            assert tuple(sorted(origin)) == a3.elements

    def test_identity(self, a3_panel):
        for _, origin in a3_panel:
            for v, (l, m, h) in origin.items():
                assert v == trace_power(-m, l, 24 * h) - 2 * l ** (12 * h)
                if v == 0:
                    continue
                delta, psi = _lucas_parts(l, m, h)
                assert v == delta * prod(psi.values()) ** 2
                assert sorted(psi) == [d for d in range(2, 12 * h + 1) if 12 * h % d == 0]

    @pytest.mark.usefixtures("fresh")
    def test_equals_whole_element_oracle(self, a3_panel, monkeypatch):
        # a3_family factors every nonzero element through its Lucas parts
        calls = Counter()
        real = weilsets._factor_a3

        def counting(v, l, m, h, budget):
            calls[v] += 1
            return real(v, l, m, h, budget)

        monkeypatch.setattr(weilsets, "_factor_a3", counting)
        for a3, origin in a3_panel:
            h = origin[0][2]  # m = 0 gives the element 0 for every l
            split = a3_family(h, list(a3.q_list), self.BUDGET)
            assert split.elements == a3.elements
            assert split.certified, a3.q_list
            assert split.factorizations == whole_element_factorizations(a3, self.BUDGET)
        assert set(calls) == {v for a3, _ in a3_panel for v in a3.elements if v}

    def test_primitive_part_primes(self, a3_panel):
        # every prime of Psi_d divides d or is +-1 mod d, over the panel and
        # -2999 (h = 73, d up to 876), by full trial division and, as
        # _factor_a3 does, the torus run over (m^2 - 4l, l)
        ctx = _field(-2999)
        divides_d = set()
        for _, origin in [*a3_panel, generators_A3(ctx)]:
            for v, (l, m, h) in origin.items():
                if v == 0:
                    continue
                for d, part in _lucas_parts(l, m, h)[1].items():
                    f = factor(part, self.BUDGET, (m * m - 4 * l, l))
                    assert f.complete
                    for p in f.primes:
                        assert d % p == 0 or p % d in (1, d - 1), (l, m, d, p)
                        if d % p == 0:
                            divides_d.add((d, p))
        assert max(h for _, _, h in origin.values()) == 73
        # the primes of d are admissible for a reason: some Psi_d has one,
        # also where phi(d) > 2 and the classes +-1 are not all primes
        assert any(d not in (2, 3, 4, 6) for d, _ in divides_d), divides_d

    @pytest.mark.usefixtures("fresh")
    def test_one_factor_call_per_part(self, a3_panel, monkeypatch):
        # one factor() call for Delta and one for each Psi_d with the torus
        # (m^2 - 4l, l) of the element's first (m, l), whose result is
        # factor()'s
        calls = []

        def recording(n, budget, torus=None):
            calls.append((n, torus))
            got = factor(n, budget, torus)
            assert got == factor(n, budget)
            return got

        monkeypatch.setattr(weilsets, "factor", recording)
        a3, origin = a3_panel[-1]
        assert a3.q_list == (2,) and sum(v != 0 for v in a3.elements) == 1
        ((l, m, h),) = (o for v, o in origin.items() if v)
        weilsets._a3_part(l, h, self.BUDGET)
        delta, psi = _lucas_parts(l, m, h)
        assert calls == [(delta, None), *((p, (m * m - 4 * l, l)) for p in psi.values())]

    def test_degenerate_pair_rejected(self):
        # l | m only for degenerate pairs, whose element is 0
        assert trace_power(2, 2, 24) - 2 * 2**12 == 0
        with pytest.raises(AssertionError, match="degenerate"):
            weilsets._factor_a3(1, 2, 2, 1, self.BUDGET)

    def test_shared_element_keeps_largest_m(self):
        # the roots of X^2 + m*X + 7 for m = +-1, +-4, +-5 are a unit of Q(i)
        # or Q(sqrt(-3)) apart, so at h = 2 they give one A3 element; it
        # keeps m = -5, the first in trace_set's order, and a small budget
        # lists the primes of that m's Lucas parts: 23 from |m| = 5, where
        # |m| = 1 gives 71 and |m| = 4 gives 47
        ctx = _field(-40)
        assert ([q.l for q in ctx.generators], ctx.h) == ([7], 2)
        a3, origin = generators_A3(ctx)
        traces = trace_set(7, 2)
        v = traces[5] - 2 * 7**24
        assert [m for m, a in traces.items() if a - 2 * 7**24 == v] == [-5, -4, -1, 1, 4, 5]
        i = a3.elements.index(v)
        assert origin[v] == (7, -5, 2)
        tiny = FactorBudget(trial_bound=3, rho_iterations=0)
        assert a3_family(2, [7], tiny).factorizations[i].primes == [2, 3, 5, 11, 13, 23]
        assert weilsets._factor_a3(v, 7, 1, 2, tiny).primes == [2, 3, 5, 11, 13, 71]
        assert weilsets._factor_a3(v, 7, 4, 2, tiny).primes == [2, 3, 5, 47]

    def test_incomplete_cofactor_is_squared(self):
        # on a tiny budget each unfinished Psi_d enters the cofactor squared
        ctx = _field(-1151)
        a3, origin = generators_A3(ctx)
        tiny = FactorBudget(trial_bound=50, rho_iterations=2)
        out = a3_family(ctx.h, list(a3.q_list), tiny)
        assert not out.certified
        unfinished = [(origin[v], f) for v, f in zip(out.elements, out.factorizations)
                      if f is not None and not f.complete]
        assert unfinished
        for (l, m, h), f in unfinished:
            delta, psi = _lucas_parts(l, m, h)
            expected = prod(factor(p, tiny).cofactor or 1 for p in psi.values()) ** 2
            assert f.cofactor == expected * (factor(delta, tiny).cofactor or 1)
            assert f.reconstruct() == f.value


class TestPastTrialDivision:
    """Values with two primes above the trial bound, counted with
    multiplicity: exactly those for which trial division leaves a composite
    part, so the values that the square check, the torus run or rho must
    finish; each of them must still factor completely."""

    P, Q = 1000003, 1000033  # the first primes above the default trial bound

    @pytest.mark.parametrize("v, trial_bound, past_trial", [
        (-732921459200, 10**6, False),  # 2^9*5^2*7^2*23^2*47^2: trial division alone
        (-732921459200, 10, True),  # the same value below its primes 23 and 47
        (2 * 3 * P, 10**6, False),  # one large prime: left prime after trial division
        (2 * P * P, 10**6, True),  # the square check splits what trial division leaves
        (-5 * P * Q, 10**6, True),  # rho splits what trial division leaves
    ])
    def test_two_primes_above_trial_bound(self, v, trial_bound, past_trial):
        f = factor(v, FactorBudget(trial_bound=trial_bound))
        assert f.complete
        assert (sum(e for p, e in f.prime_powers if p > trial_bound) >= 2) == past_trial
        _, rest = arith._trial_divide(abs(v), arith._PRIMES, trial_bound)
        assert (rest > 1 and not is_prime(rest)) == past_trial

    @pytest.mark.usefixtures("fresh")
    def test_minus_1151_element_split_by_torus_run(self, monkeypatch):
        # the Psi_492 part of its one nonzero A3 element leaves a 72-bit
        # composite after trial division, which the torus run over D = -7
        # splits
        calls = []
        real_torus = arith._torus_pm1

        def recording_torus(n, bound, D, l):
            calls.append(("torus", n, D, l))
            return real_torus(n, bound, D, l)

        monkeypatch.setattr(arith, "_torus_pm1", recording_torus)
        ctx = _field(-1151)
        (l,) = [q.l for q in ctx.generators]
        out = weilsets._a3_part(l, ctx.h, FactorBudget())
        assert calls == [("torus", 4626154257697182281987, -7, 2)]
        nonzero = [f for v, f in zip(out.elements, out.factorizations) if v]
        assert len(nonzero) == 1 and nonzero[0].complete
        assert sum(e for p, e in nonzero[0].prime_powers if p > FactorBudget().trial_bound) >= 2

    def test_tiny_budget_leaves_incomplete(self):
        ctx = _field(-1151)
        out = a3_family(ctx.h, [q.l for q in ctx.generators],
                        FactorBudget(trial_bound=50, rho_iterations=2))
        assert not out.certified
        assert any(f is not None and not f.complete for f in out.factorizations)


@pytest.fixture(scope="module")
def fields_to_1000():
    """(D, h, S's primes) of every fundamental D in [-1000, -3] with h_k > 1."""
    ctxs = [_field(D) for D in class_group_fields(-1000)]
    return [(ctx.D, ctx.h, [q.l for q in ctx.generators]) for ctx in ctxs]


@pytest.mark.usefixtures("fresh")
class TestA3Parts:
    """a3_family merges the factored A3 part of each prime of S, kept for the
    whole process under (l, h, budget), into the family that one pass over
    all of S's primes gives once each element is factored through its
    first (l, m, h)."""

    BUDGETS = (FactorBudget(), FactorBudget(3, 0), FactorBudget(50, 2))

    def test_merged_parts_equal_one_pass(self, fields_to_1000):
        assert len(fields_to_1000) == 296
        assert sum(len(ls) >= 2 for _, _, ls in fields_to_1000) == 101
        assert (-84, 2, [5, 11]) in fields_to_1000
        direct = {}
        # forwards, then in reverse: a part is first built by another field
        # than before, at each budget in turn
        for fields in (fields_to_1000, fields_to_1000[::-1]):
            for D, h, ls in fields:
                for budget in self.BUDGETS:
                    if (D, budget) not in direct:
                        one_pass, origin = build_A3(h, ls)
                        direct[D, budget] = one_pass._replace(factorizations=tuple(
                            weilsets._factor_a3(v, *origin[v], budget) if v else None
                            for v in one_pass.elements))
                    assert a3_family(h, ls, budget) == direct[D, budget], (D, budget)

    def test_each_element_factored_once(self, fields_to_1000, monkeypatch):
        # five fields share S = {3} and h = 4: their A3 elements are
        # factored for the first alone
        calls = Counter()
        real = weilsets._factor_a3

        def counting(v, l, m, h, budget):
            calls[v] += 1
            return real(v, l, m, h, budget)

        monkeypatch.setattr(weilsets, "_factor_a3", counting)
        same = [D for D, h, ls in fields_to_1000 if (h, ls) == (4, [3])]
        assert same == [-56, -68, -155, -203, -323]
        sets = [assemble_sets(_field(D)).families["A3"][0] for D in same]
        assert all(a3 == sets[0] for a3 in sets)
        assert calls == Counter(v for v in sets[0].elements if v)
