import json
import random
from collections import Counter
from pathlib import Path

import pytest

from quatbound import bound, classgroup, weilsets
from quatbound.arith import FactorBudget, primes_up_to
from quatbound.bound import (
    BoundParams,
    assemble_bound,
    candidate_discriminants,
    verify_prime_membership,
)
from quatbound.classgroup import ClassNumberOne
from quatbound.cli import main
from quatbound.quadfield import make_field, splitting_type
from quatbound.weilsets import trace_families


@pytest.fixture(scope="module")
def report20(ctx20):
    return assemble_bound(ctx20, BoundParams(mazur_bound=10**4))


class TestAssemble:
    def test_small_term_included(self, ctx20, report20):
        assert set(primes_up_to(23)) <= report20.union

    def test_components_d20(self, ctx20, report20):
        assert report20.components["ram"] == {2, 5}
        assert report20.components["l_of_S"] == {3}
        assert report20.union == frozenset().union(*report20.components.values())

    def test_class_number_one_error(self):
        ctx = make_field(-1)
        with pytest.raises(ClassNumberOne, match="class number is 1"):
            assemble_bound(ctx)

    def test_monotone_in_s0_count(self, ctx20):
        r2 = assemble_bound(ctx20, BoundParams(s0_count=2, mazur_bound=10**4))
        r4 = assemble_bound(ctx20, BoundParams(s0_count=4, mazur_bound=10**4))
        assert r4.components["a1_intersection"] <= r2.components["a1_intersection"]
        assert r4.components["a2_intersection"] <= r2.components["a2_intersection"]
        assert r4.union <= r2.union

    def test_s_override_changes_only_a3_and_l(self, ctx20, report20):
        alt = assemble_bound(
            ctx20, BoundParams(mazur_bound=10**4, S_override=(7,))
        )
        for name in ("ram", "small", "a1_intersection", "a2_intersection",
                     "mazur_primes"):
            assert alt.components[name] == report20.components[name]
        assert alt.components["l_of_S"] == {7}

    def test_bad_overrides_rejected(self, ctx20):
        with pytest.raises(ValueError, match="does not split"):
            assemble_bound(ctx20, BoundParams(mazur_bound=10**4, S_override=(11,)))
        with pytest.raises(ValueError, match="does not split"):
            assemble_bound(ctx20, BoundParams(mazur_bound=10**4, S_override=(2,)))
        with pytest.raises(ValueError, match="principal"):
            assemble_bound(ctx20, BoundParams(mazur_bound=10**4, S_override=(29,)))
        with pytest.raises(ValueError, match="S override: 3 listed twice"):
            assemble_bound(ctx20, BoundParams(mazur_bound=10**4, S_override=(3, 7, 3)))
        # the Kronecker symbol is multiplicative, so a composite can look split
        for D, S, bad in [
            (-71, (4,), 4),  # (-71|4) = 1: certified with 4 in the union
            (-52, (-3,), -3),  # ended in an AssertionError from prime_form
            (-3299, (3, 5, 9), 9),  # "9 is not a fundamental discriminant"
            (-20, (0,), 0),  # "kronecker: n must be nonzero"
        ]:
            with pytest.raises(ValueError, match=f"^S override: {bad} is not a prime$"):
                assemble_bound(make_field(D), BoundParams(mazur_bound=10**3, S_override=S))

    def test_non_generating_override_rejected(self, contexts):
        # the class group of -84 is (Z/2)^2: one class generates only Z/2
        with pytest.raises(ValueError, match="does not generate"):
            assemble_bound(contexts[-84], BoundParams(mazur_bound=10**4, S_override=(5,)))

    def test_all_fields_certified(self, contexts):
        for ctx in contexts.values():
            rep = assemble_bound(ctx, BoundParams(mazur_bound=10**4))
            assert rep.certified
            assert rep.union
            assert any("mazur set truncated" in c for c in rep.caveats)

    def test_mazur_result_carried(self, report20):
        assert report20.mazur.bound == 10**4
        assert frozenset(report20.mazur.members) == report20.components["mazur_primes"]
        assert "mazur set truncated at bound 10000" in report20.caveats

    def test_intersection_sets_carried(self, report20):
        for name, inter in (("a1_intersection", report20.sets["A1"]),
                            ("a2_intersection", report20.sets["A2"])):
            assert inter.certified and inter.support == report20.components[name]
            assert inter.q_list == tuple(q.l for q in report20.s0_truncation)
            assert all(f.reconstruct() == v
                       for v, f in zip(inter.elements, inter.factorizations))


    def test_families_carried(self, ctx20, report20):
        s0 = report20.s0_truncation
        pairs = [trace_families(ctx20, [q], report20.S) for q in s0]
        assert report20.families["A1"] == tuple(f["A1"][0] for f in pairs)
        assert report20.families["A2"] == tuple(f["A2"][0] for f in pairs)
        assert report20.sets["A3"].q_list == tuple(q.l for q in report20.S)
        assert report20.families["A3"] == (report20.sets["A3"]._replace(factorizations=()),)


class TestBuildOnce:
    @pytest.mark.parametrize("D, composes, orders", [
        (-2999, 72, 1), (-1151, 40, 1), (-3299, 28, 2)])
    def test_class_group_walked_once(self, monkeypatch, D, composes, orders):
        # the generating-set walk gives S and h: one class order per member
        # q of S, of the first power of q in the group before it, which is
        # the principal form for the first member; S0 needs no class order
        # and one beta per member
        calls = Counter()
        for module, name in ((classgroup, "compose"), (classgroup, "form_order"),
                             (weilsets, "beta_for")):
            def counting(*args, _name=name, _real=getattr(module, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        rep = assemble_bound(make_field(D), BoundParams(
            mazur_bound=10**4, factor_budget=FactorBudget(rho_iterations=10**6)))
        assert len(rep.S) == orders
        assert calls == {"compose": composes, "form_order": orders, "beta_for": 4}


class TestVerify:
    def test_examples(self, ctx20, report20):
        assert "ram" in verify_prime_membership(ctx20, 2, report20)
        assert "small" in verify_prime_membership(ctx20, 19, report20)
        claims = verify_prime_membership(ctx20, 5, report20)
        assert {"ram", "small", "mazur_primes"} <= set(claims)

    def test_union_and_absent_primes(self, contexts):
        rng = random.Random(31)
        pool = primes_up_to(10**5)
        for ctx in contexts.values():
            rep = assemble_bound(ctx, BoundParams(mazur_bound=10**4))
            for p in sorted(rep.union):
                assert verify_prime_membership(ctx, p, rep)
            absent = [p for p in pool if p not in rep.union]
            for p in rng.sample(absent, 50):
                assert not verify_prime_membership(ctx, p, rep)

    @pytest.mark.parametrize("D", [-20, -23, -84, -71, -419, -3299])
    def test_shared_walk_same_claims(self, D):
        # the benchmark's verify fields at the default bound of 10^6: a
        # context whose split primes the report's assembly found makes the
        # claims of a fresh context
        ctx = make_field(D)
        rep = assemble_bound(ctx)
        union = sorted(rep.union)
        assert ([verify_prime_membership(ctx, p, rep) for p in union]
                == [verify_prime_membership(make_field(D), p, rep) for p in union])
        assert any("mazur_primes" in verify_prime_membership(ctx, p, rep) for p in union)


class TestVerifyMismatch:
    @staticmethod
    def _with(report, name, primes):
        components = dict(report.components)
        components[name] = frozenset(primes)
        return report._replace(components=components)

    def test_dropped_intersection_prime(self, ctx20, report20):
        a1 = report20.components["a1_intersection"]
        p = max(a1)
        verify_prime_membership(ctx20, p, report20)
        bad = self._with(report20, "a1_intersection", a1 - {p})
        with pytest.raises(RuntimeError, match="evidence mismatch"):
            verify_prime_membership(ctx20, p, bad)

    def test_added_mazur_prime(self, ctx20, report20):
        mz = report20.components["mazur_primes"]
        p = next(p for p in primes_up_to(report20.mazur.bound)
                 if p % 4 == 1 and p not in mz)
        verify_prime_membership(ctx20, p, report20)
        bad = self._with(report20, "mazur_primes", mz | {p})
        with pytest.raises(RuntimeError, match="evidence mismatch"):
            verify_prime_membership(ctx20, p, bad)

    def test_added_l_of_S_prime(self, ctx20, report20):
        # 7 splits in k and is claimed by small, a1 and a3, but S = {3}
        assert report20.components["l_of_S"] == {3}
        bad = self._with(report20, "l_of_S", {3, 7})
        with pytest.raises(RuntimeError, match="for p=7 in l_of_S: re-derived False"):
            verify_prime_membership(ctx20, 7, bad)

    def test_dropped_l_of_S_prime(self, ctx20, report20):
        bad = self._with(report20, "l_of_S", set())
        with pytest.raises(RuntimeError, match="for p=3 in l_of_S: re-derived True"):
            verify_prime_membership(ctx20, 3, bad)


class TestVerifyUncertified:
    # too small a budget to factor every -84 family element, so some prime
    # of a factored component hides in an unfactored cofactor
    ARGV = ("verify", "--d", "-84", "--trial-bound", "50", "--rho-iters", "2",
            "--mazur-bound", "10000", "--s0-count", "1")

    def test_passes_uncertified(self, tmp_path):
        out = tmp_path / "out.json"
        assert main([*self.ARGV, "--json", str(out)]) == 0
        assert json.loads(out.read_text())["bound"]["certified"] is False

    def test_factored_rows_exempt(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bound, "COMPONENTS", tuple(
            (name, primes, claims, False) for name, primes, claims, _ in bound.COMPONENTS))
        with pytest.raises(RuntimeError,
                           match="evidence mismatch for p=59 in a1_intersection"):
            main([*self.ARGV, "--json", str(tmp_path / "out.json")])

    def test_added_mazur_prime(self, contexts):
        ctx = contexts[-84]
        rep = assemble_bound(ctx, BoundParams(s0_count=1, mazur_bound=10**4,
                                              factor_budget=FactorBudget(50, 2)))
        assert not rep.certified
        mz = rep.components["mazur_primes"]
        p = next(p for p in primes_up_to(rep.mazur.bound) if p % 4 == 1 and p not in mz)
        verify_prime_membership(ctx, p, rep)
        components = dict(rep.components, mazur_primes=mz | {p})
        with pytest.raises(RuntimeError, match=f"for p={p} in mazur_primes"):
            verify_prime_membership(ctx, p, rep._replace(components=components))


@pytest.fixture(scope="module")
def field_reports(contexts):
    return [(ctx, assemble_bound(ctx, BoundParams(mazur_bound=10**4)))
            for ctx in contexts.values()]


class TestComponentTable:
    def test_components_in_table_order(self, field_reports):
        names = tuple(name for name, *_ in bound.COMPONENTS)
        assert names == ("ram", "small", "a1_intersection", "a2_intersection",
                         "a3_support", "mazur_primes", "l_of_S")
        for _, rep in field_reports:
            assert tuple(rep.components) == names

    @pytest.mark.parametrize("verdict", [True, False], ids=["always_yes", "always_no"])
    @pytest.mark.parametrize("row", range(len(bound.COMPONENTS)),
                             ids=[name for name, *_ in bound.COMPONENTS])
    def test_row_mutant_caught(self, monkeypatch, field_reports, row, verdict):
        table = list(bound.COMPONENTS)
        name, primes, _, factored = table[row]
        table[row] = (name, primes, lambda ctx, p, rep: verdict, factored)
        monkeypatch.setattr(bound, "COMPONENTS", tuple(table))

        def caught(ctx, rep, p):
            try:
                verify_prime_membership(ctx, p, rep)
            except RuntimeError:
                return True
            return False

        assert any(caught(ctx, rep, p) for ctx, rep in field_reports
                   for p in [*sorted(rep.union),
                             *[q for q in primes_up_to(500) if q not in rep.union]])

    def test_benchmark_names_match(self, monkeypatch):
        # the benchmark's output check names the components again; importing
        # its workloads module has no side effects
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import workloads

        names = sorted(name for name, *_ in bound.COMPONENTS)
        assert sorted(workloads.ALWAYS_EQUAL + workloads.EQUAL_IF_CERTIFIED) == names
        assert (sorted(workloads.EQUAL_IF_CERTIFIED)
                == sorted(name for name, _, _, factored in bound.COMPONENTS if factored))


class TestCandidates:
    def test_small_union_empty(self, ctx20, report20):
        # restricted to primes <= 23 the split ones (3, 7, 23) are all
        # 3 mod 4, so no candidate survives
        small = report20._replace(union=frozenset(p for p in report20.union if p <= 23))
        assert candidate_discriminants(ctx20, small, 4) == []

    def test_pair_example(self, ctx20, report20):
        fake = report20._replace(union=frozenset({13, 29}))
        assert splitting_type(ctx20, 29) == "split"
        assert splitting_type(ctx20, 13) == "inert"
        assert candidate_discriminants(ctx20, fake, 2) == [377]

    def test_empty_union(self, ctx20, report20):
        fake = report20._replace(union=frozenset())
        assert candidate_discriminants(ctx20, fake, 2) == []

    def test_invariants(self, contexts):
        for ctx in contexts.values():
            rep = assemble_bound(ctx, BoundParams(mazur_bound=10**4))
            cands = candidate_discriminants(ctx, rep, 4)
            assert cands == sorted(cands)
            for d in cands:
                from quatbound.arith import factor

                f = factor(d)
                assert f.complete
                assert all(e == 1 for _, e in f.prime_powers)
                assert len(f.prime_powers) % 2 == 0
                split = [p for p in f.primes if splitting_type(ctx, p) == "split"]
                assert split
                assert all(p % 4 == 1 for p in split)
                assert all(p in rep.union for p in f.primes)

    def test_odd_max_factors_rejected(self, ctx20, report20):
        with pytest.raises(ValueError):
            candidate_discriminants(ctx20, report20, 3)
