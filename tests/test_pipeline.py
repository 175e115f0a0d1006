"""The whole pipeline against the reference rebuilt from the definitions:
class data, S, S0, h, every family and every component below E, and the
claims verify makes on those primes."""

import pytest

from conftest import class_group_fields
from pipeline_reference import (QuadInt, all_primes, ideal_class, ideal_mul, module_hnf,
                                reference_bound, reference_closure, reference_compose)
from quatbound.arith import FactorBudget
from quatbound.bound import BoundParams, assemble_bound, verify_claims
from quatbound.classgroup import compose, form_order, form_power, subgroup_closure
from quatbound.quadfield import make_field
from quatbound.weilsets import beta_for

E = 2000
BELOW_E = frozenset(all_primes(E))
# six S0 members; Mazur members lie above the bound and below E
PARAMS = BoundParams(s0_count=6, mazur_bound=1000)


def check_against_reference(D: int, params: BoundParams = PARAMS):
    """Compare the field's class data, its report's families, verify's
    claims below E and, on a certified report, its components below E with
    the reference; return the report and the reference."""
    ctx = make_field(D)
    ref = reference_bound(D, params.s0_count, params.mazur_bound, E)
    forms = sorted(ctx.classes)
    assert forms == ref.forms and [form_order(D, f) for f in forms] == ref.orders
    for f in forms:
        for g in forms:
            assert compose(D, f, g) == reference_compose(D, f, g), (f, g)
    # h is the lcm of the orders, and the order of some class
    assert (ctx.h, [q.l for q in ctx.generators]) == (ref.h, ref.S) and ref.h in ref.orders
    rep = assemble_bound(ctx, params)
    s0 = rep.s0_truncation
    assert [(q.l, q.form) for q in s0] == [(m.l, m.form) for m in ref.s0]
    for k in range(1, len(s0) + 1):
        gens = [q.form for q in s0[:k]]
        assert subgroup_closure(D, set(gens)) == reference_closure(D, gens), k
    for q, m in zip(s0, ref.s0):
        for r, n in zip(s0, ref.s0):
            assert (compose(D, q.ideal, r.ideal) == compose(D, q.form, r.form)
                    == ideal_class(ideal_mul(m.ideal, n.ideal))), (q.l, r.l)
        qh = form_power(D, q.ideal, ctx.h)
        assert (qh.a, qh.b) == (m.power.a, m.power.b), q.l
        assert beta_for(ctx, q) == (m.beta.x, m.beta.y), q.l
    assert {key: [f.elements for f in fs] for key, fs in rep.families.items()} == ref.families
    assert all(0 not in f for key in ("A1", "A2") for f in ref.families[key])  # none vanishes
    # the raw families make the claims, so they agree on any report
    assert verify_claims(ctx, BELOW_E, rep) == ref.components
    if rep.certified:
        assert {name: ps & BELOW_E for name, ps in rep.components.items()} == ref.components
    return rep, ref


@pytest.mark.parametrize("D", class_group_fields(-500))
def test_fields_to_500(D):
    assert check_against_reference(D)[0].certified


def test_field_count():
    assert len(class_group_fields(-500)) == 144


def test_h41_with_l2_in_s0():
    rep, ref = check_against_reference(-1151)
    assert rep.certified and ref.h == 41 and ref.s0[0].l == 2


def test_uncertified_report_hides_primes_in_cofactors():
    # verify --d -84 --trial-bound 50 --rho-iters 2 --s0-count 1
    # --mazur-bound 10000: the budget leaves cofactors, and verify checks
    # the union's primes only; below E the reference finds primes that the
    # factored components miss, each in a cofactor of its own component
    rep, ref = check_against_reference(-84, BoundParams(
        s0_count=1, mazur_bound=10**4, factor_budget=FactorBudget(50, 2)))
    assert not rep.certified
    keys = {"a1_intersection": "A1", "a2_intersection": "A2", "a3_support": "A3"}
    missing = {name: ref.components[name] - rep.components[name] for name in keys}
    assert any(missing.values())
    for name, key in keys.items():
        assert rep.components[name] & BELOW_E <= ref.components[name]
        cofactors = [f.cofactor for f in rep.sets[key].factorizations if f and f.cofactor]
        assert all(any(c % p == 0 for c in cofactors) for p in missing[name]), name
    for name in ("ram", "small", "mazur_primes", "l_of_S"):
        assert rep.components[name] & BELOW_E == ref.components[name]


def test_reference_invariants_raise_under_python_O():
    # raised, not bare asserts, so that python -O keeps them
    with pytest.raises(AssertionError, match="every generator is 0"):
        module_hnf(-20, [])
    with pytest.raises(AssertionError, match="combined"):
        QuadInt(1, 1, -3) + QuadInt(0, 1, -20)
