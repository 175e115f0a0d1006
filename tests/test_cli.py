import hashlib
import inspect
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbound import bound, classgroup, cli, quadfield, weilsets
from quatbound.arith import FactorBudget, FactoredInteger, factor
from quatbound.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--json", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


BASE = ("--mazur-bound", "10000")
# a trial bound below the primes of the -5 family elements, so that factoring
# goes past trial division
STORED = ("--trial-bound", "10")


class TestSubcommands:
    def test_field(self, tmp_path):
        code, doc = run(tmp_path, "field", "--d", "-5")
        assert code == 0
        assert doc["field"] == {"D": "-20", "ram": ["2", "5"], "h_k": "2", "h": "2"}

    def test_classgroup(self, tmp_path):
        code, doc = run(tmp_path, "classgroup", "--d", "-23")
        assert code == 0
        assert len(doc["forms"]) == 3

    def test_s0(self, tmp_path):
        code, doc = run(tmp_path, "s0", "--d", "-5", "--s0-count", "3")
        assert code == 0
        assert [e["l"] for e in doc["s0"]] == ["3", "7", "23"]

    def test_mazur(self, tmp_path):
        code, doc = run(tmp_path, "mazur", "--d", "-5", *BASE)
        assert code == 0
        primes = [int(p) for p in doc["mazur"]["primes"]]
        assert 5 in primes and 17 in primes and 13 not in primes

    def test_bound(self, tmp_path):
        code, doc = run(tmp_path, "bound", "--d", "-5", *BASE)
        assert code == 0
        union = {int(p) for p in doc["bound"]["union"]}
        assert {2, 3, 5, 7, 11, 13, 17, 19, 23} <= union
        assert doc["bound"]["certified"] is True
        assert doc["S"] == ["3"]

    def test_candidates_and_verify(self, tmp_path):
        code, doc = run(tmp_path, "candidates", "--d", "-5", *BASE)
        assert code == 0
        assert "candidates" in doc
        code, doc = run(tmp_path, "verify", "--d", "-5", *BASE)
        assert code == 0

    def test_sets(self, tmp_path):
        code, doc = run(tmp_path, "sets", "--d", "-5", *BASE)
        assert code == 0
        fams = {f["family"] for f in doc["families"]}
        assert fams == {"A1", "A2", "A3"}


class TestFamiliesSection:
    @pytest.mark.parametrize("sub", ["sets", "bound"])
    def test_a1_a2_raw_a3_factored(self, tmp_path, sub):
        code, doc = run(tmp_path, sub, "--d", "-5", *BASE)
        assert code == 0
        for fam in doc["families"]:
            for entry in fam["elements"]:
                if fam["family"] == "A3" and entry["value"] != "0":
                    assert "factors" in entry
                elif fam["family"] != "A3":
                    assert entry.keys() == {"value"}


class TestIntersections:
    @staticmethod
    def _product(entry):
        out = int(entry.get("cofactor", "1"))
        for p, e in entry["factors"]:
            out *= int(p) ** int(e)
        return out

    def test_listed_and_matching_components(self, tmp_path):
        code, doc = run(tmp_path, "bound", "--d", "-5", *BASE)
        assert code == 0
        listed = doc["bound"]["intersections"]
        assert [f["family"] for f in listed] == ["A1", "A2"]
        for fam, name in zip(listed, ("a1_intersection", "a2_intersection")):
            assert fam["l"] == sorted(doc["s0_truncation"], key=int)
            assert fam["elements"]
            assert all(self._product(e) == int(e["value"]) for e in fam["elements"])
            primes = {p for e in fam["elements"] for p, _ in e["factors"]}
            assert sorted(primes, key=int) == doc["bound"]["components"][name]

    def test_cofactor_listed_on_tiny_budget(self, tmp_path):
        code, doc = run(tmp_path, "bound", "--d", "-5", *BASE, "--s0-count", "1",
                        "--trial-bound", "50", "--rho-iters", "2")
        assert code == 0
        assert doc["bound"]["certified"] is False
        a1 = doc["bound"]["intersections"][0]["elements"]
        unfinished = [e for e in a1 if "cofactor" in e]
        assert unfinished
        assert all(self._product(e) == int(e["value"]) for e in unfinished)


class TestOneMazurSearch:
    @pytest.mark.parametrize("sub", ["bound", "verify"])
    def test_single_call_per_request(self, tmp_path, monkeypatch, sub):
        calls = []
        real = bound.mazur_prime_set

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bound, "mazur_prime_set", counting)
        monkeypatch.setattr(cli, "mazur_prime_set", counting)
        code, doc = run(tmp_path, sub, "--d", "-5", *BASE)
        assert code == 0
        assert len(calls) == 1
        assert doc["mazur"]["bound"] == "10000"

    def test_verify_classifies_each_split_prime_once(self, tmp_path, monkeypatch):
        # the generating set, S0, the Mazur sieve and every Mazur claim read
        # the field's one list of split primes
        pairs = Counter()
        real = quadfield.legendre

        def counting(D, l):
            pairs[D, l] += 1
            return real(D, l)

        monkeypatch.setattr(quadfield, "legendre", counting)
        code, doc = run(tmp_path, "verify", "--d", "-3299", *BASE)
        assert code == 0
        claims = [p for p in map(int, doc["bound"]["union"]) if p % 4 == 1 and p <= 10**4]
        assert len(claims) > 1 and len(pairs) >= 20
        assert {D for D, _ in pairs} == {-3299}
        assert [pair for pair, n in pairs.items() if n > 1] == []

    def test_sets_runs_none(self, tmp_path, monkeypatch):
        # sets prints no Mazur primes, so it must not search for them
        def refuse(*args):
            raise RuntimeError("sets ran the Mazur search")

        monkeypatch.setattr(bound, "mazur_prime_set", refuse)
        monkeypatch.setattr(cli, "mazur_prime_set", refuse)
        out = tmp_path / "sets.json"
        assert_pinned(["sets", "--d", "-419", *BASE], "sets_-419.json", out)
        with pytest.raises(RuntimeError):
            main(["bound", "--d", "-419", *BASE, "--json", str(out)])


class TestOneFamilyBuild:
    @pytest.mark.usefixtures("fresh")
    def test_each_family_built_once_per_verify(self, tmp_path, monkeypatch):
        # one beta per S0 member for both A1 and A2, and class orders only
        # for the generating set that gives h
        calls = Counter()
        for module, name in ((bound, "trace_families"), (bound, "a3_family"),
                             (weilsets, "trace_set"), (weilsets, "beta_for"),
                             (classgroup, "form_order")):
            def counting(*args, _name=name, _real=getattr(module, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        code, doc = run(tmp_path, "verify", "--d", "-5", *BASE)
        assert code == 0
        s0_count = len(doc["s0_truncation"])
        assert s0_count == 4
        # one trace set per l of S0 for A1 and A2, and one per l of S for
        # the A3 parts, which a new process has not kept yet
        s0_ls, S = set(doc["s0_truncation"]), doc["S"]
        assert calls == {"trace_families": 1, "a3_family": 1,
                         "trace_set": len(s0_ls) + len(S),
                         "beta_for": s0_count, "form_order": len(S)}
        # one A1 and one A2 family per S0 member, and one A3 family
        assert [f["family"] for f in doc["families"]] == ["A1", "A2"] * s0_count + ["A3"]


class TestPrimeFormsOncePerField:
    @pytest.mark.parametrize("argv, primes", [
        (["bound", "--d", "-2999"], [2, 3, 5, 7, 11, 13, 31]),
        (["verify", "--d", "-3299"], [3, 5, 11, 13, 17, 19, 23, 29, 31]),
    ], ids=["bound_-2999", "verify_-3299"])
    def test_each_prime_built_once_per_request(self, tmp_path, monkeypatch, argv, primes):
        # the class-group targets, the walk, S0 and each beta read the
        # field's forms; a second request builds a fresh field, so it makes
        # the same calls again: nothing is kept across fields
        calls = []
        real = classgroup.prime_form

        def counting(D, l):
            calls.append(l)
            return real(D, l)

        for module in (bound, classgroup, cli, quadfield, weilsets):
            if getattr(module, "prime_form", None) is real:
                monkeypatch.setattr(module, "prime_form", counting)
        seen = []
        for _ in range(2):
            del calls[:]
            assert run(tmp_path, *argv)[0] == 0
            assert sorted(calls) == primes
            seen.append(list(calls))
        assert seen[0] == seen[1]


GOLDEN = Path(__file__).parent / "data"

# Every pinned request, as (argv, pin): pin is a file under tests/data/ or the
# SHA-256 of the report, recorded with json.dumps(indent=2, sort_keys=True).
# To pin a new request, add a row.
PINNED = [
    # h_k = 3680: class data with no O(|D|) form search
    (["field", "--d", "-1000000003"], "field_-1000000003.json"),
    # the forms of the walk's group, 3,680 of them at -1000000003
    (["classgroup", "--d", "-3299"], "classgroup_-3299.json"),
    (["classgroup", "--d", "-1000000003"],
     "9aae509f65f60000fba9168c62af85b129e65ae9415ec2626a5980e9ff4f4a31"),
    # class_order is computed where the s0 report prints it: cyclic walks to
    # order 1,840 at -1000000003
    (["s0", "--d", "-2999", "--s0-count", "10"], "s0_-2999.json"),
    (["s0", "--d", "-3299", "--s0-count", "10"], "s0_-3299.json"),
    (["s0", "--d", "-1000000003", "--s0-count", "10"],
     "b960f4099d07b689b182827365bf144baa29cfc4425f80f5439dc500f515f17f"),
    (["mazur", "--d", "-2999", "--mazur-bound", "10000000"], "mazur_-2999.json"),
    # the widest groups of split primes
    (["mazur", "--d", "-3299", "--mazur-bound", "100000000"], "mazur_-3299.json"),
    # families by name, no Mazur search
    (["sets", "--d", "-419"], "sets_-419.json"),
    # h = 362: elements above str()'s 4,300-digit limit
    (["sets", "--d", "-57911", "--rho-iters", "0"],
     "62cb078757389810817de330520f91eb31b991309b53ff7c99910fa0cef32357"),
    # h = 41: A3 elements of 494 bits, factored through their Lucas parts
    (["bound", "--d", "-1151", "--require-certified"], "bound_-1151.json"),
    (["bound", "--d", "-1151", "--rho-iters", "1000000", "--require-certified"],
     "bound_-1151.json"),
    # a budget too small for -1151: composite cofactors in A3 and in an A1
    # intersection, and the "factor budget exhausted" caveat
    (["bound", "--d", "-1151", "--trial-bound", "50", "--rho-iters", "2",
      "--mazur-bound", "1000"], "bound_-1151_tiny.json"),
    # h = 73: Psi_876 leaves a 104-bit part that 10^6 rho iterations do not
    # split; p-1 over the trial primes does, and the report equals the one
    # recorded at the default budget
    (["bound", "--d", "-2999", "--require-certified"], "bound_-2999.json"),
    (["bound", "--d", "-2999", "--rho-iters", "1000000", "--require-certified"],
     "bound_-2999.json"),
    # trial bound 3 and no rho: composite parts below 41^2 but above 9, such
    # as 1085 = 5*7*31, stay listed cofactors
    (["bound", "--d", "-84", "--trial-bound", "3", "--rho-iters", "0",
      "--mazur-bound", "1000"], "bound_-84_tb3.json"),
    # S = {7}, h = 2: m = +-1, +-4, +-5 give one A3 element, factored through
    # the Lucas parts of m = -5, which list 23 at this budget
    (["bound", "--d", "-40", "--trial-bound", "3", "--rho-iters", "0",
      "--mazur-bound", "1000"], "bound_-40_tb3.json"),
    # uncertified at default flags (a 98-bit BPSW-probable part); verify
    # writes the bound document
    (["bound", "--d", "-5879"], "bound_-5879.json"),
    (["verify", "--d", "-5879"], "bound_-5879.json"),
    (["candidates", "--d", "-84", *BASE], "candidates_-84.json"),
    *((["verify", "--d", D, *BASE], f"verify_{D}.json")
      for D in ("-20", "-23", "-71", "-84", "-419", "-3299")),
]


def assert_pinned(argv, pin, out):
    """Runs argv into out and checks exit 0 and the pin; returns the text."""
    assert main([*argv, "--json", str(out)]) == 0, argv
    data = out.read_bytes()
    if pin.endswith(".json"):
        assert data == (GOLDEN / pin).read_bytes(), argv
    else:
        assert hashlib.sha256(data).hexdigest() == pin, argv
    return data.decode()


def count_prime_classes(monkeypatch) -> Counter:
    calls = Counter()

    def counting(ctx, _real=classgroup._prime_classes):
        calls[ctx.D] += 1
        return _real(ctx)

    monkeypatch.setattr(classgroup, "_prime_classes", counting)
    return calls


class TestClassData:
    def test_bound_lists_no_forms(self, tmp_path, monkeypatch):
        # the class number, h and S come from the one generating-set walk
        calls = count_prime_classes(monkeypatch)
        assert_pinned(["bound", "--d", "-2999", "--rho-iters", "1000000"],
                      "bound_-2999.json", tmp_path / "bound.json")
        assert calls == {-2999: 1}

    def test_classgroup_lists_the_walks_group(self, tmp_path, monkeypatch):
        # the report's forms are the group of the walk that gives h_k
        calls = count_prime_classes(monkeypatch)
        assert_pinned(["classgroup", "--d", "-3299"], "classgroup_-3299.json",
                      tmp_path / "classgroup.json")
        assert calls == {-3299: 1}


class TestGoldenVerify:
    def test_cross_bound_bytes_in_one_process(self, tmp_path):
        # one process, one list of primes: the trial bound 50 after the list
        # and its run products have reached 10^6, then 10^6 again
        tiny = ["--trial-bound", "50", "--rho-iters", "2", "--mazur-bound", "1000"]
        for flags, golden in (([], "bound_-1151.json"), (tiny, "bound_-1151_tiny.json"),
                              ([], "bound_-1151.json")):
            assert_pinned(["bound", "--d", "-1151", *flags], golden, tmp_path / "bound.json")

    @pytest.mark.usefixtures("fresh")
    @pytest.mark.parametrize("argv, pin", PINNED, ids=[" ".join(a) for a, _ in PINNED])
    def test_pinned_request(self, tmp_path, argv, pin):
        # in a fresh process's state; 20 s bounds the -1000000003 requests,
        # whose class data needs no O(|D|) form search
        start = time.perf_counter()
        text = assert_pinned(argv, pin, tmp_path / "out.json")
        assert time.perf_counter() - start < 20
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_every_golden_file_pinned(self):
        pins = {pin for _, pin in PINNED}
        assert {p.name for p in GOLDEN.glob("*.json")} <= pins
        assert all((GOLDEN / pin).is_file() or re.fullmatch("[0-9a-f]{64}", pin) for pin in pins)

    @pytest.mark.usefixtures("fresh")
    def test_every_golden_in_one_process(self, tmp_path):
        # A3 parts are kept across requests under (l, h, budget): each
        # request, after the others and at other budgets, in both orders
        for argv, pin in PINNED + PINNED[::-1]:
            assert_pinned(argv, pin, tmp_path / "out.json")

    def test_clock_changes_nothing(self, tmp_path, monkeypatch):
        # factoring is bounded by iterations alone: a clock that jumps by
        # 10^6 s on every read changes no factorization and no byte
        clock = iter(range(0, 10**15, 10**6))
        monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
        p, q = 1000000007, 998244353
        assert factor(p * q, FactorBudget(trial_bound=100)).complete
        assert_pinned(["bound", "--d", "-1151", "--rho-iters", "1000000"],
                      "bound_-1151.json", tmp_path / "bound.json")

    def test_time_flag_zero_changes_nothing(self, tmp_path):
        # --time-per-int-ms is accepted as 0 only, and not read
        with_flag, without = tmp_path / "with.json", tmp_path / "without.json"
        assert main(["verify", "--d", "-84", *BASE, "--time-per-int-ms", "0",
                     "--json", str(with_flag)]) == 0
        assert main(["verify", "--d", "-84", *BASE, "--json", str(without)]) == 0
        assert with_flag.read_bytes() == without.read_bytes()


class TestRequestDefaults:
    def test_flags_default_to_the_librarys(self, tmp_path):
        # BoundParams() and FactorBudget() at their defaults
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
        assert main(["bound", "--d", "-20", "--json", str(implicit)]) == 0
        assert main(["bound", "--d", "-20", "--s0-count", "4", "--mazur-bound", "1000000",
                     "--trial-bound", "1000000", "--rho-iters", "10000000",
                     "--json", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_max_factors_defaults_to_the_librarys(self, tmp_path):
        # bound.MAX_FACTORS, the default of candidate_discriminants too
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
        args = ["candidates", "--d", "-84", "--mazur-bound", "10000"]
        assert main([*args, "--json", str(implicit)]) == 0
        assert main([*args, "--max-factors", "4", "--json", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()


class TestMaxFactors:
    def test_two_factors(self, tmp_path):
        # the 105 entries of the default (four-factor) list that are
        # products of two union primes; the other 4,620 are of four
        golden = json.loads((GOLDEN / "candidates_-84.json").read_text())
        union = [int(p) for p in golden["bound"]["union"]]

        def factor_count(c):
            return sum(int(c) % p == 0 for p in union)

        assert Counter(map(factor_count, golden["candidates"])) == {2: 105, 4: 4620}
        code, doc = run(tmp_path, "candidates", "--d", "-84", *BASE, "--max-factors", "2")
        assert code == 0
        assert doc["candidates"] == [c for c in golden["candidates"] if factor_count(c) == 2]
        assert doc.keys() == golden.keys()
        assert all(doc[k] == golden[k] for k in doc if k != "candidates")

    @pytest.mark.parametrize("count", ["3", "0"])
    def test_odd_or_zero_rejected(self, tmp_path, capsys, count):
        out = tmp_path / "o.json"
        assert main(["candidates", "--d", "-84", *BASE, "--max-factors", count,
                     "--json", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "even integer >= 2" in err


def refuse(*args):
    raise RuntimeError("called before the flags were checked")


class TestEarlyChecks:
    """A bad --mazur-bound, --s0-count or --max-factors exits 1 before any
    family of -5879 (h = 101) is built, which takes about a second."""

    @pytest.fixture(autouse=True)
    def no_families(self, monkeypatch):
        monkeypatch.setattr(bound, "trace_families", refuse)

    def test_mazur_bound(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        assert main(["bound", "--d", "-5879", "--mazur-bound", "4", "--json", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: mazur_prime_set: bound must be >= 5\n"

    @pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
    def test_max_factors(self, tmp_path, capsys, monkeypatch, sub):
        # every subcommand checks it before the field's class data
        monkeypatch.setattr(cli, "make_field", refuse)
        out = tmp_path / "o.json"
        assert main([sub, "--d", "-5879", "--max-factors", "3", "--json", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: max_factors must be an even integer >= 2\n"

    @pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
    @pytest.mark.parametrize("flag, value, message", [
        ("--mazur-bound", "4", "mazur_prime_set: bound must be >= 5"),
        ("--mazur-bound", "-7", "mazur_prime_set: bound must be >= 5"),
        ("--s0-count", "0", "S0 count must be >= 1, got 0"),
        ("--s0-count", "-1", "S0 count must be >= 1, got -1"),
    ])
    @pytest.mark.parametrize("D", ["-419", "-1"])
    def test_bound_and_count(self, tmp_path, capsys, monkeypatch, sub, flag, value,
                             message, D):
        # every subcommand checks both before the field's class data, so
        # class number 1 (-1) exits 1 too
        monkeypatch.setattr(cli, "make_field", refuse)
        out = tmp_path / "o.json"
        assert main([sub, "--d", D, flag, value, "--json", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"


# quotes, backslashes, control characters, non-ASCII and lone surrogates:
# one of each kind that encode_basestring_ascii escapes differently
TEXT = st.text(st.sampled_from(
    '"\\/ aZ0~\x7f' '\b\f\n\r\t\x00\x1f' '\x80\xe9\u2028\ufffd'
    '\ud800\udbff\udc00\udfff' '\U0001f600\U0010ffff'), max_size=8)
DOCS = st.recursive(
    TEXT | st.booleans(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(TEXT, children)),
    max_leaves=20,
)


def assert_writes_like_dumps(writer):
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              report_multiple_bugs=False)
    @given(DOCS)
    def check(doc):
        assert writer(doc) == json.dumps(doc, indent=2, sort_keys=True)

    check()


class TestJsonWriter:
    def test_matches_json_dumps(self):
        assert_writes_like_dumps(cli._json)

    def test_empty_containers(self):
        for doc in ([], (), {}, {"a": []}, [{}, [[]]]):
            assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [1, 1.5, None])
    def test_other_types_rejected(self, value):
        # json.dumps would write these, and turn such keys into strings
        for doc in (value, [value], {"k": value}, {value: "v"}):
            with pytest.raises(TypeError):
                cli._json(doc)

    def test_mutant_without_sort_keys_fails(self):
        source = inspect.getsource(cli._json)
        ordered = "sorted(x.items())"
        assert ordered in source
        namespace = dict(vars(cli))
        exec(source.replace(ordered, "x.items()"), namespace)
        with pytest.raises(AssertionError):
            assert_writes_like_dumps(namespace["_json"])


def fac_doc(f):
    """The dict a factorization was written from before families were
    written as text: the reference for _family_json."""
    doc = {"factors": [[str(p), str(e)] for p, e in f.prime_powers]}
    if f.cofactor is not None:
        doc["cofactor"] = str(f.cofactor)
    return doc


def family_doc(aset):
    """The reference dict of a family, with every integer written by str()."""
    elements = []
    facs = aset.factorizations or (None,) * len(aset.elements)
    for v, f in zip(aset.elements, facs):
        entry = {"value": str(v)}
        if v != 0 and f is not None:
            entry.update(fac_doc(f))
        elements.append(entry)
    return {"family": aset.family, "l": [str(l) for l in sorted(aset.q_list)],
            "elements": elements}


# above str()'s default limit of 4,300 digits
HUGE = 7 * 10**4400 + 3
VALUES = st.integers(-(10**40), 10**40) | st.sampled_from([0, HUGE, -HUGE])
FACTORIZATIONS = st.none() | st.builds(
    FactoredInteger,
    value=st.just(1),
    prime_powers=st.lists(st.tuples(st.integers(2, 10**30), st.integers(1, 99)),
                          max_size=4).map(tuple),
    cofactor=st.none() | st.integers(2, 10**40) | st.just(HUGE),
)


@st.composite
def asets(draw):
    elements = tuple(draw(st.lists(VALUES, max_size=5)))
    factored = draw(st.booleans())
    facs = tuple(draw(FACTORIZATIONS) for _ in elements) if factored else ()
    return weilsets.ASet(family=draw(st.sampled_from(["A1", "A2", "A3"])),
                         q_list=tuple(draw(st.lists(st.integers(2, 10**4), max_size=4))),
                         elements=elements, factorizations=facs)


def assert_families_write_like_dumps(writer):
    """writer(doc) is the bytes of json.dumps(indent=2, sort_keys=True) of
    the reference docs, for a family under "families" and under
    "bound.intersections", the two places a report holds one."""
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              report_multiple_bugs=False)
    @given(asets())
    def check(aset):
        with digit_limit(4300):
            got = writer({"families": [aset], "bound": {"intersections": [aset, aset]}})
        ref = family_doc(aset)
        want = {"families": [ref], "bound": {"intersections": [ref, ref]}}
        assert got == json.dumps(want, indent=2, sort_keys=True)

    # no digit limit but the writer's, so that examples print
    with digit_limit(0):
        check()


class TestFamilyWriter:
    def test_matches_reference_dicts(self):
        assert_families_write_like_dumps(cli._json)

    def test_edge_cases(self):
        # a zero element with a factorization slot, no factorizations at all,
        # an empty q_list, an empty family, and a cofactor with no factors
        f = FactoredInteger(value=-12, prime_powers=((2, 2), (3, 1)))
        cases = [
            weilsets.ASet("A1", (7, 3), (0, -12), (None, f)),
            weilsets.ASet("A2", (), (-HUGE, 5)),
            weilsets.ASet("A3", (5,), ()),
            weilsets.ASet("A3", (5,), (HUGE,), (FactoredInteger(HUGE, (), HUGE),)),
            weilsets.ASet("A1", (3,), (0,), (None,)),
        ]
        for aset in cases:
            with digit_limit(0):
                want = json.dumps([family_doc(aset)], indent=2, sort_keys=True)
            with digit_limit(4300):
                assert cli._json([aset]) == want

    def test_mutant_factors_before_cofactor_fails(self):
        source = inspect.getsource(cli._family_json)
        cofactor_first = """f'"cofactor": "{_decimal(f.cofactor)}",{i3}' + head"""
        assert cofactor_first in source
        mutant = source.replace(cofactor_first,
                                """head + f'"cofactor": "{_decimal(f.cofactor)}",{i3}'""")
        namespace = dict(vars(cli))
        exec(inspect.getsource(cli._json) + "\n\n" + mutant, namespace)
        with pytest.raises(AssertionError):
            assert_families_write_like_dumps(namespace["_json"])


@contextmanager
def digit_limit(digits):
    """sys.set_int_max_str_digits(digits) inside the block only (0 lifts
    the limit); a no-op on an interpreter without the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestDecimal:
    """Integers too long for str() under the interpreter's digit limit are
    written by the decimal module, with the same digits as str()."""

    @staticmethod
    def values(most):
        """0, +-1, and random n and 10^k +- 1 of either sign with up to
        most digits."""
        rng = random.Random(most)
        out = [0, 1, -1, 10**512 - 1, 10**512]
        for digits in (1, 511, 512, 513, 640, 641, 1025, 4300, 4301, 5000, 10**4,
                       33333, 10**5):
            if digits <= most:
                n = rng.randrange(10 ** (digits - 1), 10**digits)
                out += [n, -n]
        for k in (511, 512, 1024, 4299, 4300, 4301, 8192, 20000):
            if k < most:
                out += [10**k - 1, 10**k + 1, -(10**k - 1), -(10**k + 1)]
        return out

    @pytest.mark.parametrize("limit, most", [(4300, 10**5), (640, 5000)])
    def test_matches_str(self, limit, most):
        for n in self.values(most):
            with digit_limit(0):
                want = str(n)
            with digit_limit(limit):
                assert cli._decimal(n) == want, len(want)
                if hasattr(sys, "set_int_max_str_digits") and len(want.lstrip("-")) > limit:
                    # the decimal module ran: str() itself refuses n here
                    with pytest.raises(ValueError):
                        str(n)

    def test_sets_above_the_limit(self, tmp_path, monkeypatch):
        # -57911 (h = 362) has family elements of over 4,300 digits; each
        # value and cofactor is written with the digits of the integer in
        # the family it came from
        families = []
        real = cli._all_families

        def recording(report):
            written = real(report)
            families.extend(written)
            return written

        monkeypatch.setattr(cli, "_all_families", recording)
        with digit_limit(4300):
            code, doc = run(tmp_path, "sets", "--d", "-57911", "--rho-iters", "0")
        assert code == 0
        values = [e["value"] for f in doc["families"] for e in f["elements"]]
        assert max(len(v.lstrip("-")) for v in values) > 4300
        cofactors = 0
        with digit_limit(0):
            for aset, fam in zip(families, doc["families"], strict=True):
                facs = aset.factorizations or (None,) * len(aset.elements)
                for v, f, e in zip(aset.elements, facs, fam["elements"], strict=True):
                    assert e["value"] == str(v)
                    if v != 0 and f is not None and f.cofactor is not None:
                        assert e["cofactor"] == str(f.cofactor)
                        cofactors += 1
                    else:
                        assert "cofactor" not in e
        assert cofactors > 0


class TestLazyDecimal:
    """decimal is imported only to write an integer above str()'s digit
    limit.  Each check runs in a fresh interpreter without site packages,
    since pytest plugins such as hypothesis import decimal themselves; it
    prints what it finds, so that no check rests on an assert under -O."""

    @staticmethod
    def run_python(code):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_not_imported_by_cli_or_a_request(self, tmp_path):
        out = tmp_path / "out.json"
        assert self.run_python(
            "import sys\n"
            "import quatbound.cli as cli\n"
            "print('decimal' in sys.modules)\n"
            f"print(cli.main(['bound', '--d', '-20', '--json', {str(out)!r}]))\n"
            "print('decimal' in sys.modules)\n") == ["False", "0", "False"]
        assert json.loads(out.read_text())["field"]["D"] == "-20"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no str() digit limit on this interpreter")
    def test_imported_above_the_limit(self):
        assert self.run_python(
            "import sys\n"
            "import quatbound.cli as cli\n"
            "print(sys.get_int_max_str_digits(), 'decimal' in sys.modules)\n"
            "print(cli._decimal(10**5000) == '1' + '0' * 5000)\n"
            "print('decimal' in sys.modules)\n") == ["4300", "False", "True", "True"]


class TestParserReuse:
    """The parser is built once per process, and no option of one request
    reaches the next."""

    PLAIN = ["bound", "--d", "-20", *BASE]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_option_carries_over(self, tmp_path, capsys):
        with_s = [*self.PLAIN, "--S", "3,7"]

        def stdout_of(argv, fresh_parser=False):
            if fresh_parser:
                cli.build_parser.cache_clear()
            assert main(argv) == 0
            return capsys.readouterr().out

        # each request's stand-alone bytes, from a parser built for it alone
        plain = stdout_of(self.PLAIN, fresh_parser=True)
        s_report = stdout_of(with_s, fresh_parser=True)
        assert s_report != plain

        assert stdout_of(with_s) == s_report
        assert stdout_of(self.PLAIN) == plain
        out = tmp_path / "out.json"
        assert stdout_of([*self.PLAIN, "--json", str(out)]) == ""
        assert out.read_text() == plain
        assert stdout_of(self.PLAIN) == plain
        with pytest.raises(SystemExit) as e:
            main([*with_s, "--s0-count", "x"])
        assert e.value.code == 1
        assert "usage:" in capsys.readouterr().err
        assert stdout_of(self.PLAIN) == plain


class TestExitCodes:
    def test_class_number_one(self, tmp_path, capsys):
        # class data and the Mazur search exist for Q(i); everything built
        # on S0 or S has nothing to bound
        codes = {"field": 0, "classgroup": 0, "mazur": 0, "s0": 2, "sets": 2,
                 "bound": 2, "candidates": 2, "verify": 2}
        assert sorted(codes) == sorted(cli.SUBCOMMANDS)
        for sub, code in codes.items():
            out = tmp_path / f"{sub}.json"
            assert main([sub, "--d", "-1", *BASE, "--json", str(out)]) == code, sub
            err = capsys.readouterr().err
            if code == 2:
                assert "class number is 1" in err, sub
                assert not out.exists(), sub
            else:
                assert err == "", sub
                field = json.loads(out.read_text())["field"]
                # the generating set is empty, and lcm() = 1
                assert (field["h_k"], field["h"]) == ("1", "1"), sub

    @pytest.mark.parametrize("argv", [
        ["bound", "--d", "abc"],
        ["bound"],
        ["frobnicate", "--d", "-5"],
        ["bound", "--d", "-5", "--s0-count", "x"],
        ["bound", "--d", "-5", "--time-per-int-ms", "5"],
    ])
    def test_malformed_flags(self, argv, capsys):
        # usage errors exit 1, not 2, which means class number 1
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("trial_bound", ["-40", "0", "1"])
    def test_negative_trial_bound(self, tmp_path, trial_bound):
        # a trial bound below 2 would list composites as primes
        out = tmp_path / "o.json"
        assert main(["bound", "--d", "-5", "--trial-bound", trial_bound,
                     "--mazur-bound", "1000", "--json", str(out)]) == 1
        assert not out.exists()

    def test_module_entry_point(self):
        # the __main__ block exits with main()'s code, under this interpreter's -O too
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-m",
                               "quatbound.cli", "s0", "--d", "-1"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "class number is 1" in done.stderr

    def test_negative_rho_iters(self, tmp_path, capsys):
        # -1 ran as no rho at all: an uncertified report at exit 0
        out = tmp_path / "o.json"
        assert main(["bound", "--d", "-2999", "--rho-iters", "-1",
                     "--mazur-bound", "1000", "--json", str(out)]) == 1
        assert not out.exists()
        assert "rho iterations must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["bound", "verify", "s0"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_s0_count_below_1(self, tmp_path, capsys, sub, count):
        # bound and verify ran a count below 1 as 1, s0 printed [] for 0
        out = tmp_path / "o.json"
        assert main([sub, "--d", "-5", "--s0-count", count, "--mazur-bound", "1000",
                     "--json", str(out)]) == 1
        assert not out.exists()
        assert f"S0 count must be >= 1, got {count}" in capsys.readouterr().err

    def test_domain_error(self, tmp_path):
        assert main(["bound", "--d", "-12", *BASE]) == 1
        assert main(["bound", "--d", "5", *BASE]) == 1
        assert main(["bound", "--d", "-84", "--S", "5", *BASE]) == 1  # does not generate

    def test_s_listed_twice(self, tmp_path, capsys):
        # 5 was kept twice: "S" printed ["5", "5", "11"] and exit 0
        out = tmp_path / "o.json"
        assert main(["bound", "--d", "-84", "--S", "5,11,5", *BASE,
                     "--json", str(out)]) == 1
        assert not out.exists()
        assert "error: S override: 5 listed twice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bound", "--d", "-71", "--S", "4"],
        ["bound", "--d", "-52", "--S=-3"],
        ["verify", "--d", "-3299", "--S", "3,5,9"],
        ["bound", "--d", "-5", "--S", "0"],
    ])
    def test_s_not_prime(self, tmp_path, capsys, argv):
        # 4 was certified into the -71 union; the others failed elsewhere
        out = tmp_path / "o.json"
        assert main([*argv, "--mazur-bound", "1000", "--json", str(out)]) == 1
        assert not out.exists()
        bad = argv[-1].rsplit(",", 1)[-1].removeprefix("--S=")
        assert f"error: S override: {bad} is not a prime" in capsys.readouterr().err

    def test_unwritable_json_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        assert main(["field", "--d", "-5", "--json", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{out}'" in err

    def test_unwritable_cache_dir(self, tmp_path, capsys):
        # the error names the cache path itself, not a temporary .cache-XXXX
        # file beside it
        cache = tmp_path / "missing" / "factors.cache"
        assert main(["bound", "--d", "-5", *BASE, "--cache", str(cache),
                     "--json", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{cache}'" in err
        assert ".cache-" not in err
        # the file is touched before the report is written, so none is left
        assert not (tmp_path / "o.json").exists()

    def test_require_certified_ok_when_certified(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(["bound", "--d", "-5", *BASE, "--require-certified",
                     "--json", str(out)])
        assert code == 0

    TINY = ("--trial-bound", "50", "--rho-iters", "2")

    def test_require_certified_fails_on_tiny_budget(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(["bound", "--d", "-1151", *BASE, "--require-certified",
                     *self.TINY, "--json", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["bound"]["certified"] is False

    def test_tiny_budget_certifies_small_a3_parts(self, tmp_path):
        # the A3 elements of -47 split into parts small enough for the tiny
        # budget, which then gives the default union
        tiny, default = tmp_path / "tiny.json", tmp_path / "default.json"
        assert main(["bound", "--d", "-47", *BASE, "--require-certified",
                     *self.TINY, "--json", str(tiny)]) == 0
        assert main(["bound", "--d", "-47", *BASE, "--json", str(default)]) == 0
        tiny_doc, default_doc = json.loads(tiny.read_text()), json.loads(default.read_text())
        assert tiny_doc["bound"]["certified"] is True
        assert tiny_doc["bound"]["union"] == default_doc["bound"]["union"]


# The plain request of each --cache test, and the golden file that its report
# equals, if any: --cache changes no report byte.
CACHE_CASES = [
    (["bound", "--d", "-5", *BASE, *STORED], None),
    (["bound", "--d", "-1151", "--require-certified"], "bound_-1151.json"),
]


def assert_same_report(argv, golden, *outs):
    """The reports outs of argv are byte-identical, and equal golden if given."""
    data = {out.read_bytes() for out in outs}
    assert len(data) == 1, argv
    if golden:
        assert data == {(GOLDEN / golden).read_bytes()}, argv


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["bound", "--d", "-5", *BASE, "--json", str(a)]) == 0
        assert main(["bound", "--d", "-5", *BASE, "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cache_does_not_change_output(self, tmp_path):
        # without the file, then with it cold and warm
        for i, (argv, golden) in enumerate(CACHE_CASES):
            a, b, c = (tmp_path / f"{name}{i}.json" for name in "abc")
            cache = tmp_path / f"factors{i}.cache"
            assert main([*argv, "--json", str(a)]) == 0
            assert main([*argv, "--cache", str(cache), "--json", str(b)]) == 0
            assert cache.exists()
            assert main([*argv, "--cache", str(cache), "--json", str(c)]) == 0
            assert_same_report(argv, golden, a, b, c)


class TestInertCache:
    """--cache only creates its file.  The flag stays while perfbench's
    survey_warm workload passes it and primes the file that it creates."""

    def test_rejected_lines_ignored(self, tmp_path):
        # each of these lines was rejected when the file was loaded, and the
        # request exited 1
        lines = b"30=2^1*C3*C15\n5=5^1*C1\n6=2^1*3^1*C1\n"
        for i, (argv, golden) in enumerate(CACHE_CASES):
            cache = tmp_path / f"factors{i}.cache"
            cache.write_bytes(lines)
            a, b = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
            assert main([*argv, "--json", str(a)]) == 0
            assert main([*argv, "--cache", str(cache), "--json", str(b)]) == 0
            assert_same_report(argv, golden, a, b)
            assert cache.read_bytes() == lines

    def test_missing_file_created_empty(self, tmp_path):
        cache = tmp_path / "factors.cache"
        assert main(["bound", "--d", "-5", *BASE, *STORED, "--cache", str(cache),
                     "--json", str(tmp_path / "o.json")]) == 0
        assert cache.read_bytes() == b""
