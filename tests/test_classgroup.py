import random
import time
from itertools import combinations, islice
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composition_reference import reference_dirichlet, reference_generator, reference_reduce
from conftest import class_group_fields
from pipeline_reference import (
    prime_ideal_above,
    reference_order,
    reference_reduced_forms,
    shortest_generator,
)
from quatbound import classgroup
from quatbound.arith import is_prime, kronecker, primes_up_to
from quatbound.classgroup import (
    ClassNumberOne,
    QuadForm,
    _prime_classes,
    check_s0_count,
    compose,
    enumerate_S0,
    form_order,
    form_power,
    generates,
    prime_form,
    principal_form,
    principal_generator,
    reduce_form,
    subgroup_closure,
)
from quatbound.quadfield import is_fundamental, make_field, split_primes
from quatbound.weilsets import beta_for


def disc(f: QuadForm) -> int:
    return f.b * f.b - 4 * f.a * f.c


def is_reduced(f: QuadForm) -> bool:
    """|b| <= a <= c, with b >= 0 when |b| = a or a = c."""
    if not (abs(f.b) <= f.a <= f.c):
        return False
    return not (f.b < 0 and (abs(f.b) == f.a or f.a == f.c))


def group(D: int) -> list[QuadForm]:
    """The field's class group, as the generating-set walk gives it."""
    return sorted(make_field(D).classes)


def dirichlet_class_number(D: int) -> int:
    """Independent oracle: h = |sum_{a=1}^{|D|-1} (D|a) * a| / |D| for D < -4."""
    assert D < -4
    total = sum(kronecker(D, a) * a for a in range(1, abs(D)))
    assert total % D == 0
    return abs(total) // abs(D)


class TestReducedForms:
    def test_examples(self):
        assert group(-20) == [QuadForm(1, 0, 5), QuadForm(2, 2, 3)]
        assert group(-4) == [QuadForm(1, 0, 1)]
        assert set(group(-23)) == {
            QuadForm(1, 1, 6), QuadForm(2, 1, 3), QuadForm(2, -1, 3)
        }

    def test_all_reduced_primitive(self):
        for D in (-20, -23, -24, -47, -84, -163, -999):
            if not is_fundamental(D):
                continue
            for f in group(D):
                assert disc(f) == D
                assert is_reduced(f)

    def test_class_number_examples(self):
        assert make_field(-20).class_number == 2
        assert make_field(-23).class_number == 3
        assert make_field(-47).class_number == 5

    def test_dirichlet_oracle_full_range(self):
        for D in range(-5, -1000, -1):
            if not is_fundamental(D):
                continue
            ctx = make_field(D)
            assert ctx.class_number == dirichlet_class_number(D), D
            assert all(disc(f) == D and is_reduced(f) for f in ctx.classes), D

    def test_matches_form_search(self):
        # the generating-set walk's group against the search over every
        # (a, b), on every fundamental D in [-20000, -3]
        fields = [D for D in range(-3, -20001, -1) if is_fundamental(D)]
        assert len(fields) == 6079
        for D in fields:
            assert group(D) == reference_reduced_forms(D), D

    # ramified primes generate a class that no split prime up to the cut
    # reaches (-20, -84); a cut at 4p^2 <= |D| drops the one generating
    # prime (-15, -35, -91, -187, -403)
    @pytest.mark.parametrize("D, h_k", [(-20, 2), (-84, 4), (-15, 2), (-35, 2),
                                        (-91, 2), (-187, 2), (-403, 2)])
    def test_generating_primes_edges(self, D, h_k):
        forms = reference_reduced_forms(D)
        assert len(forms) == h_k
        assert group(D) == forms
        ctx = make_field(D)
        assert ctx.class_number == h_k
        assert subgroup_closure(D, {q.form for q in ctx.generators}) == set(forms)

    def test_large_discriminant(self):
        # the form search takes seconds here; the walk stops at the first
        # split prime, whose class generates the cyclic group
        ctx = make_field(-99999971)
        assert (ctx.class_number, ctx.h) == (3019, 3019)
        assert [q.l for q in ctx.generators] == [3]


class TestCompose:
    def test_identity_law(self):
        e = QuadForm(1, 0, 5)
        g = QuadForm(2, 2, 3)
        assert compose(-20, e, g) == g

    def test_order_two_class(self):
        g = QuadForm(2, 2, 3)
        assert compose(-20, g, g) == QuadForm(1, 0, 5)

    def test_inverse_law(self):
        f = QuadForm(2, 1, 3)
        assert compose(-23, f, reduce_form(f.a, -f.b, f.c)) == principal_form(-23)

    @pytest.mark.parametrize("D", [-20, -23, -24, -47, -84])
    def test_group_laws_all_triples(self, D):
        forms = group(D)
        ident = principal_form(D)
        for f in forms:
            assert compose(D, f, ident) == f
            assert compose(D, f, reduce_form(f.a, -f.b, f.c)) == ident
        for f, g in combinations(forms, 2):
            assert compose(D, f, g) == compose(D, g, f)
        for f in forms:
            for g in forms:
                for h in forms:
                    assert compose(D, compose(D, f, g), h) == compose(
                        D, f, compose(D, g, h)
                    )


class TestDirichletAgainstReference:
    """_dirichlet's gcds and inverses from math.gcd and pow against the
    extended Euclid it replaced: the same unreduced (a, b, c)."""

    @pytest.mark.parametrize("D", [-20, -84, -419, -2999, -3299])
    def test_every_ordered_pair_of_classes(self, D):
        # -20 and -84 have ramified classes, whose squares have content e > 1
        forms = sorted(make_field(D).classes)
        for f in forms:
            for g in forms:
                assert classgroup._dirichlet(D, f, g) == reference_dirichlet(D, f, g), (f, g)

    @pytest.mark.parametrize("D", [-1151, -2999, -57911])
    def test_every_form_power_step(self, monkeypatch, D):
        # each composition of q^n, 1 <= n <= h, for the S0 primes q
        real, steps = classgroup._dirichlet, []

        def checked(D, f, g):
            got = real(D, f, g)
            assert got == reference_dirichlet(D, f, g), (f, g)
            steps.append(got)
            return got

        monkeypatch.setattr(classgroup, "_dirichlet", checked)
        ctx = make_field(D)
        for q in enumerate_S0(ctx, 4):
            for n in range(1, ctx.h + 1):
                assert form_power(D, q.ideal, n).a == q.l**n
        assert len(steps) > 4 * ctx.h


class TestExponent:
    @pytest.mark.parametrize("D, h_k, h", [(-20, 2, 2), (-23, 3, 3), (-24, 2, 2), (-47, 5, 5),
                                           (-84, 4, 2), (-299, 8, 8)])  # -84: all 2-torsion
    def test_examples(self, D, h_k, h):
        assert (make_field(D).class_number, make_field(D).h) == (h_k, h)

    def test_exponent_is_not_the_coset_count(self):
        # S = {3, 5}: 5 adds two cosets and 5^2 is not principal, so the
        # cyclic group's exponent is 2 * 4, not the coset count 2 alone
        assert [q.l for q in make_field(-299).generators] == [3, 5]
        assert make_field(-299).h == 8

    def test_orders_in_the_thousands(self):
        # the cyclic walk at orders in the thousands: the S0 members of a
        # group of 3,680 classes against repeated reference composition
        ctx = make_field(-1000000003)
        s0 = enumerate_S0(ctx, 10)
        orders = [form_order(ctx.D, q.form) for q in s0]
        assert orders == [reference_order(ctx.D, q.form) for q in s0]
        assert orders == [1840, 368, 1840, 460, 20, 1840, 1840, 1840, 1840, 368]
        assert (ctx.class_number, ctx.h) == (3680, 1840)


class TestIdealClasses:
    def test_examples(self):
        q3 = prime_form(-20, 3)
        assert reduce_form(q3.a, q3.b, q3.c) == QuadForm(2, 2, 3)
        sq = form_power(-20, q3, 2)
        assert reduce_form(sq.a, sq.b, sq.c) == principal_form(-20) == QuadForm(1, 0, 5)


class TestS0:
    def test_examples(self, ctx20):
        assert [q.l for q in enumerate_S0(ctx20, 3)] == [3, 7, 23]
        assert [q.l for q in enumerate_S0(ctx20, 1)] == [3]

    def test_29_is_principal_so_excluded(self, ctx20):
        # 29 = 3^2 + 5*2^2 splits but is principal
        q29 = prime_form(-20, 29)
        assert reduce_form(q29.a, q29.b, q29.c) == QuadForm(1, 0, 5)

    def test_class_number_one_rejected(self):
        ctx = make_field(-1)
        with pytest.raises(ClassNumberOne, match="class number is 1"):
            enumerate_S0(ctx, 1)
        assert ctx.generators == ()
        assert ctx.class_number == 1

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_1_rejected(self, ctx20, count):
        # the rule the CLI checks before any class data, shared
        with pytest.raises(ValueError, match=f"^S0 count must be >= 1, got {count}$"):
            enumerate_S0(ctx20, count)
        with pytest.raises(ValueError, match=f"^S0 count must be >= 1, got {count}$"):
            check_s0_count(count)

    def test_first_members_power_principal(self, contexts):
        for ctx in contexts.values():
            for q in enumerate_S0(ctx, 10):
                assert ctx.h % form_order(ctx.D, q.form) == 0
                qh = form_power(ctx.D, prime_form(ctx.D, q.l), ctx.h)
                assert qh.a == q.l**ctx.h
                assert reduce_form(qh.a, qh.b, qh.c) == principal_form(ctx.D)
                assert principal_generator(qh) is not None


class TestGeneratesAndChooseS:
    def test_examples(self):
        k20, k84 = make_field(-20), make_field(-84)
        assert generates(k20, {QuadForm(2, 2, 3)})
        assert not generates(k20, {QuadForm(1, 0, 5)})
        # D=-84: exponent 2 with four classes needs two generators
        non_identity = [f for f in group(-84) if f != principal_form(-84)]
        for f in non_identity:
            assert not generates(k84, {f})

    def test_generators_fields(self, contexts):
        for ctx in contexts.values():
            S = ctx.generators
            assert S
            assert generates(ctx, {q.form for q in S})
            assert all(q.form != principal_form(ctx.D) for q in S)
        assert [q.l for q in contexts[-20].generators] == [3]
        assert len(contexts[-23].generators) == 1
        assert len(contexts[-47].generators) == 1

    def test_closure_sizes(self):
        assert len(subgroup_closure(-84, set())) == 1


def unimodular_image(f: QuadForm, rng: random.Random, steps: int, bits: int) -> QuadForm:
    """f under a random product of `steps` translations by t of up to
    `bits` bits, each followed by the swap (a, b, c) -> (c, -b, a): an
    unreduced form of f's class whose reduction takes about `steps` steps."""
    a, b, c = f
    for _ in range(steps):
        t = rng.randrange(-(1 << bits), 1 << bits)
        b, c = b + 2 * a * t, a * t * t + b * t + c
        a, b, c = c, -b, a
    return QuadForm(a, b, c)


class TestReduceAgainstReference:
    """classgroup.reduce_form, which updates c after each translation,
    against reference_reduce, which recomputes it from the discriminant: the
    same form.  principal_generator, which runs Cornacchia's Euclid, against
    reference_generator, which reads the generator off reference_reduce's
    vector (x, y): the same (t, y), or None for both."""

    def test_unimodular_images(self):
        rng = random.Random(5)
        principal = 0
        for D in (-20, -23, -3299, -1000000003, -(10**40 + 3)):
            for f in [principal_form(D), *(prime_form(D, l) for l in (3, 7, 11, 13)
                                           if kronecker(D, l) == 1)]:
                # a of up to about 10^5 bits, after up to about 100 steps
                for steps, bits in ((1, 8), (5, 64), (40, 40), (50, 200), (10, 5000)):
                    g = unimodular_image(f, rng, steps, bits)
                    got = reduce_form(*g)
                    assert got == reference_reduce(*g)[0], (D, f, steps, bits)
                    assert got == reduce_form(*f)
                    beta = principal_generator(g)
                    assert beta == reference_generator(g), (D, f, steps, bits)
                    principal += beta is not None
        # the images of the principal form, and of no prime form
        assert principal == 5 * 5

    def test_random_forms_to_100000_bits(self):
        # a, b, c of up to 10^5 bits with b^2 < 4ac: few steps on huge entries
        rng = random.Random(17)
        for bits in (10, 100, 1000, 10_000, 100_000):
            for _ in range(5):
                a = rng.getrandbits(bits) + 1
                c = rng.getrandbits(rng.randrange(1, bits + 1)) + 1
                r = isqrt(4 * a * c - 1)
                b = rng.randrange(-r, r + 1)
                f = QuadForm(a, b, c)
                assert reduce_form(*f) == reference_reduce(*f)[0], bits
                assert principal_generator(f) == reference_generator(f), bits

    def test_every_beta_for_of_the_golden_fields(self, golden_contexts):
        # beta_for runs principal_generator on q^h for each S0 member; the
        # reference reduces its (a, -b, c)
        reductions = 0
        for ctx in golden_contexts.values():
            for q in enumerate_S0(ctx, 4):
                qh = form_power(ctx.D, q.ideal, ctx.h)
                assert reduce_form(qh.a, -qh.b, qh.c) == reference_reduce(qh.a, -qh.b, qh.c)[0]
                assert beta_for(ctx, q) == principal_generator(qh) == reference_generator(qh)
                reductions += 1
        assert reductions == 4 * len(golden_contexts)

    def test_beta_for_at_h_31057_within_5_s(self):
        # q^h has a of 107,440 bits; a reduction that recomputed c at every
        # step took minutes.  beta_for takes 0.8-1.0 s: form_power about 0.4 s
        # and Cornacchia's Euclid on 2a about 0.4 s
        ctx = make_field(-100000000003)
        q = enumerate_S0(ctx, 1)[0]
        assert (ctx.h, q.l) == (31057, 11)
        t0 = time.monotonic()
        t, y = beta_for(ctx, q)
        assert time.monotonic() - t0 < 5
        assert t * t - ctx.D * y * y == 4 * 11**31057


class TestPrimeForm:
    """prime_form's square root mod l against the linear scan over b of
    `pipeline_reference.prime_ideal_above`."""

    def test_matches_scan(self):
        fields = [D for D in range(-3, -401, -1) if is_fundamental(D)][::4]
        fields += [-1151, -2999, -3299, -5879, -999_995, -4_000_004, -8_000_008]
        pairs = ramified = 0
        for D in fields:
            for l in primes_up_to(3000):
                if kronecker(D, l) == -1:
                    continue
                f, I = prime_form(D, l), prime_ideal_above(D, l)
                assert (f.a, f.b) == (I.a, I.b), (D, l)
                assert f.b * f.b - 4 * f.a * f.c == D
                pairs += 1
                ramified += D % l == 0
        assert (len(fields), pairs, ramified) == (38, 8100, 60)

    def test_large_l(self):
        # the scan takes about 0.8 s for this l, and would not end for
        # the 89-bit Mersenne prime, which is only BPSW-probable
        assert prime_form(-20, 10_000_103) == QuadForm(10_000_103, 5_860_194, 858_538)
        l = 2**89 - 1
        f = prime_form(-23, l)
        assert f.a == l and 0 < f.b < 2 * l and f.b * f.b - 4 * l * f.c == -23

    def test_composite_l_ends(self):
        # every loop is bounded: a composite l, squares included, gets a
        # valid form or the AssertionError, never a hang
        for D in (-7, -20, -23, -84):
            for l in range(9, 600, 2):
                if is_prime(l) or kronecker(D, l) == -1:
                    continue
                try:
                    f = prime_form(D, l)
                except AssertionError:
                    continue
                assert (f.b * f.b - D) % (4 * l) == 0
        with pytest.raises(AssertionError):
            prime_form(-7, 15)  # (-7|15) = 1, yet -7 is a square mod neither 3 nor 5

    def test_sqrt_mod_every_square(self, monkeypatch):
        # every nonzero square mod each prime l < 1000 of the classes 3 mod
        # 4, 5 mod 8 and 1 mod 8; for l = 3 mod 4 no non-residue is sought
        real = classgroup.kronecker
        monkeypatch.setattr(classgroup, "kronecker",
                            lambda z, l: real(z, l) if l % 4 == 1 else pytest.fail(str(l)))
        classes = set()
        for l in primes_up_to(1000)[1:]:
            classes.add(l % 8 if l % 4 == 1 else 3)
            for n in {x * x % l for x in range(1, l)}:
                r = classgroup._sqrt_mod(n, l)
                assert 0 <= r < l and r * r % l == n, (n, l)
        assert classes == {1, 3, 5}


class TestPrimeClasses:
    """_prime_classes, which reads the split primes from the field's list
    and the ramified ones from ctx.ram_primes, against every prime p with
    3p^2 <= |D| that is not inert, classified afresh."""

    @staticmethod
    def expected(D: int) -> set:
        # no prime p has 3p^2 <= |D| when |D| < 12
        ps = primes_up_to(isqrt(-D // 3)) if D <= -12 else []
        return {reduce_form(*prime_form(D, p)) for p in ps if kronecker(D, p) != -1}

    def test_every_field_to_3000(self):
        fields = [D for D in range(-3, -3001, -1) if is_fundamental(D)]
        for D in fields:
            want = self.expected(D)
            ctx = make_field(D)
            assert _prime_classes(ctx) == want, D
            # the walk extends the field's list; the classes stay the same
            assert subgroup_closure(D, want) == ctx.classes, D
            assert _prime_classes(ctx) == want, D
        assert len(fields) == 911

    def test_class_number_one(self):
        # 2, 3, 5 and 7 are inert in Q(sqrt(-163)): no class to reach
        ctx = make_field(-163)
        assert _prime_classes(ctx) == self.expected(-163) == set()
        assert ctx.class_number == 1 and ctx.generators == ()


# fundamental D of both kinds, 4 < |D| <= 10^6: -4m and -4m - 3
FUNDAMENTAL = st.one_of(st.integers(2, 250_000).map(lambda m: -4 * m),
                        st.integers(1, 249_999).map(lambda m: -4 * m - 3)).filter(is_fundamental)


def lattice_generator(D: int, f: QuadForm):
    """The Gauss-Lagrange oracle's generator of the ideal of f, as (t, y)."""
    beta = shortest_generator(D, f.a, f.b)
    return None if beta is None else (beta.x, beta.y)


class TestPrincipalGenerator:
    """Generators found by Cornacchia's algorithm against Gauss-Lagrange
    reduction of the ideal lattice in `pipeline_reference`."""

    def test_examples(self):
        q3 = prime_form(-20, 3)
        assert principal_generator(principal_form(-20)) == (2, 0)  # 1
        assert principal_generator(q3) is None
        # 2 + sqrt(-5), trace 4, norm 9; no norm-3 element exists
        assert principal_generator(form_power(-20, q3, 2)) == (4, 1)

    def test_matches_lattice_reduction_oracle(self):
        # every reduced form, and q, q^2, q^h, q^2h for the first four
        # split non-principal primes q, h the exponent
        fields = class_group_fields(-1500)
        nones = 0
        for D in [*fields, -2999, -5711]:
            ctx = make_field(D)
            forms = group(D)
            for q in enumerate_S0(ctx, 4):
                f = prime_form(D, q.l)
                forms += [form_power(D, f, n) for n in (1, 2, ctx.h, 2 * ctx.h)]
            for f in forms:
                g = principal_generator(f)
                assert g == lattice_generator(D, f), (D, f)
                nones += g is None
        assert (len(fields), nones) == (448, 8504)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(FUNDAMENTAL, st.data())
    def test_matches_lattice_oracle_at_random_fields(self, D, data):
        # the principal form (a = 1), a reduced form of the group, a
        # ramified prime's form and an unreduced power f^n of a split or
        # ramified prime's form, n a multiple of the exponent h or any n <= 2h
        ctx = make_field(D)
        ram = sorted(ctx.ram_primes)
        f = prime_form(D, data.draw(st.sampled_from([*islice(split_primes(ctx), 6), *ram])))
        n = data.draw(st.integers(1, 2).map(lambda k: k * ctx.h) | st.integers(1, 2 * ctx.h))
        forms = [principal_form(D), data.draw(st.sampled_from(sorted(ctx.classes))),
                 prime_form(D, data.draw(st.sampled_from(ram))),
                 form_power(D, f, n)]
        for g in forms:
            assert principal_generator(g) == lattice_generator(D, g), (D, g)
