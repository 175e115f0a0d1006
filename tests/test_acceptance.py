"""Acceptance suite: one test per criterion, each printing a pass line
with its measured evidence.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import random
import time

import pytest

from ideal_reference import QuadInt
from quatbound.arith import kronecker, primes_up_to
from quatbound.bound import BoundParams, assemble_bound, verify_claims
from quatbound.classgroup import enumerate_S0
from quatbound.cli import main
from quatbound.mazur import mazur_prime_set
from quatbound.quadfield import is_fundamental, make_field
from quatbound.weilsets import beta_for, trace_families, trace_power, trace_set

TEST_FIELDS = (-20, -23, -24, -47, -84)


def _ctx(D):
    return make_field(D)


def _report(msg):
    print(f"PASS: {msg}")


def test_criterion_1_end_to_end_sqrt_minus_5(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "report.json"
    assert main(["bound", "--d", "-5", "--json", str(out)]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    doc = json.loads(out.read_text())
    assert doc["field"] == {"D": "-20", "ram": ["2", "5"], "h_k": "2", "h": "2"}
    assert doc["S"] == ["3"]

    ctx = _ctx(-20)
    q3 = enumerate_S0(ctx, 1)[0]
    beta = QuadInt(*beta_for(ctx, q3), -20)
    assert beta == QuadInt(4, 1, -20)  # 2 + sqrt(-5), canonicalized

    # iterated-squaring oracle with a norm check at every step
    acc, e = beta, 1
    while e < 8:
        acc = acc * acc
        e *= 2
        assert acc.norm == 9**e
    p8 = acc
    p24 = p8 * p8 * p8
    assert p24.norm == 9**24
    assert p8.trace == 11842 and p24.trace == 131360949442
    assert trace_power(beta.trace, 9, 8) == 11842
    assert trace_power(beta.trace, 9, 24) == 131360949442

    families = trace_families(ctx, [q3], [q3])
    (a1,), (a2,), (a3,) = families["A1"], families["A2"], families["A3"]
    assert 0 in a3.elements
    assert 0 not in a1.elements
    assert 0 not in a2.elements

    assert doc["bound"]["certified"] is True
    union = {int(p) for p in doc["bound"]["union"]}
    assert {2, 3, 5, 7, 11, 13, 17, 19, 23} <= union
    assert len(union) < 10**4  # explicit finite set
    _report(
        f"criterion 1: bound --d -5 in {elapsed:.1f}s, union of {len(union)} "
        f"primes, beta and traces verified"
    )


def test_criterion_2_dirichlet_class_numbers():
    t0 = time.monotonic()
    checked = 0
    for D in range(-5, -1000, -1):
        if not is_fundamental(D):
            continue
        total = sum(kronecker(D, a) * a for a in range(1, abs(D)))
        oracle = abs(total) // abs(D)
        assert make_field(D).class_number == oracle, D
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(f"criterion 2: {checked} class numbers match Dirichlet in {elapsed:.1f}s")


def test_criterion_3_trace_power_ring_oracle():
    def ring_trace(t, n, e):
        def mul(p, q):
            return (
                p[0] * q[0] - n * p[1] * q[1],
                p[0] * q[1] + p[1] * q[0] + t * p[1] * q[1],
            )

        acc, base, k = (1, 0), (0, 1), e
        while k:
            if k & 1:
                acc = mul(acc, base)
            base = mul(base, base)
            k >>= 1
        return 2 * acc[0] + t * acc[1]

    rng = random.Random(2024)
    for _ in range(200):
        t = rng.randrange(-100, 101)
        n = rng.randrange(-100, 101)
        e = rng.randrange(0, 201)
        assert trace_power(t, n, e) == ring_trace(t, n, e), (t, n, e)
    _report("criterion 3: trace_power equals ring oracle on 200 instances")


def test_criterion_4_weil_bound():
    count = 0
    for D in TEST_FIELDS[:4]:  # -20, -23, -24, -47
        ctx = _ctx(D)
        for q in enumerate_S0(ctx, 4):
            ts = trace_set(q.l, ctx.h)
            cap = 2 * q.l ** (12 * ctx.h)
            for s in ts.values():
                assert abs(s) <= cap
                count += 1
            assert ts[0] == cap
    _report(f"criterion 4: Weil bound on {count} trace entries, anchors exact")


def test_criterion_5_nonvanishing():
    for D in TEST_FIELDS:
        ctx = _ctx(D)
        for q in enumerate_S0(ctx, 5):
            families = trace_families(ctx, [q], [q])
            (a1,), (a2,) = families["A1"], families["A2"]
            assert 0 not in a1.elements, (D, q.l)
            assert 0 not in a2.elements, (D, q.l)
    _report("criterion 5: 0 absent from A1 and A2 for first 5 of S0, all fields")


def test_criterion_6_mazur_oracle():
    ctx = _ctx(-20)
    res = mazur_prime_set(ctx, 10**5)
    members = set(res.members)
    assert 5 in members and 17 in members
    assert 13 not in members and 29 not in members
    split = {l for l in primes_up_to(25000)
             if l > 2 and kronecker(-20, l) == 1}
    for p in res.members:
        for l in split:
            if 4 * l >= p:
                continue
            assert pow(p % l, (l - 1) // 2, l) != 1, (p, l)
    _report(f"criterion 6: {len(members)} mazur primes re-verified by Legendre loop")


def test_criterion_7_monotonicity():
    ctx = _ctx(-20)
    r2 = assemble_bound(ctx, BoundParams(s0_count=2, mazur_bound=10**4))
    r4 = assemble_bound(ctx, BoundParams(s0_count=4, mazur_bound=10**4))
    assert r4.components["a1_intersection"] <= r2.components["a1_intersection"]
    assert r4.components["a2_intersection"] <= r2.components["a2_intersection"]
    assert r4.union <= r2.union
    _report(
        f"criterion 7: union shrank {len(r2.union)} -> {len(r4.union)} "
        f"as s0_count grew 2 -> 4"
    )


def test_criterion_8_verification_agreement():
    rng = random.Random(8)
    pool = primes_up_to(10**5)
    total = 0
    for D in TEST_FIELDS:
        ctx = _ctx(D)
        rep = assemble_bound(ctx, BoundParams(mazur_bound=10**4))
        absent = [p for p in pool if p not in rep.union]
        primes = rep.union | set(rng.sample(absent, 50))
        # some row claims each union prime, and none a sampled absent one
        claimed = verify_claims(ctx, primes, rep)
        assert frozenset().union(*claimed.values()) == rep.union
        total += len(primes)
    _report(f"criterion 8: membership evidence re-derived for {total} primes")


def test_criterion_9_determinism(tmp_path):
    paths = [tmp_path / n for n in ("a.json", "b.json", "c.json")]
    cache = tmp_path / "cache.txt"
    args = ["bound", "--d", "-5", "--mazur-bound", "20000"]
    assert main([*args, "--json", str(paths[0])]) == 0
    assert main([*args, "--json", str(paths[1])]) == 0
    assert main([*args, "--cache", str(cache), "--json", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    _report("criterion 9: byte-identical JSON across reruns and cache on/off")


def test_criterion_10_pipeline_robustness():
    expected = {-20: (2, 2), -23: (3, 3), -24: (2, 2), -47: (5, 5), -84: (4, 2)}
    t0 = time.monotonic()
    for D in TEST_FIELDS:
        ctx = _ctx(D)
        assert (ctx.class_number, ctx.h) == expected[D], D
        rep = assemble_bound(ctx, BoundParams(mazur_bound=10**5))
        assert rep.certified
        assert rep.union == frozenset().union(*rep.components.values())
        verify_claims(ctx, rep.union, rep)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(f"criterion 10: all 5 fields assembled and verified in {elapsed:.1f}s")
