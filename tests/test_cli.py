import json
import time
from collections import Counter
from pathlib import Path

import pytest

from quatbound import bound, classgroup, cli, weilsets
from quatbound.arith import FactorBudget, FactoredInteger, factor
from quatbound.cli import cache_load, cache_store, main


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--json", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


BASE = ("--mazur-bound", "10000")
# a trial bound below the primes of the -5 and -20 family elements, so that
# factor_cached stores them in a --cache file
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


class TestOneFamilyBuild:
    def test_each_family_built_once_per_verify(self, tmp_path, monkeypatch):
        # one beta per S0 member for both A1 and A2, and class orders only
        # for the generating set that gives h
        calls = Counter()
        for module, name in ((bound, "families_A1_A2"), (bound, "family_A3"),
                             (weilsets, "beta_for"), (classgroup, "form_order")):
            def counting(*args, _name=name, _real=getattr(module, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        code, doc = run(tmp_path, "verify", "--d", "-5", *BASE)
        assert code == 0
        s0_count = len(doc["s0_truncation"])
        assert s0_count == 4
        assert calls == {"families_A1_A2": s0_count, "family_A3": 1,
                         "beta_for": s0_count, "form_order": len(doc["S"])}


GOLDEN = Path(__file__).parent / "data"


class TestGoldenVerify:
    @pytest.mark.parametrize("D", ["-20", "-23", "-71", "-84", "-419", "-3299"])
    def test_verify_bytes(self, tmp_path, D):
        out = tmp_path / "verify.json"
        assert main(["verify", "--d", D, *BASE, "--json", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"verify_{D}.json").read_bytes()

    @pytest.mark.parametrize("D", ["-2999", "-3299"])
    def test_s0_bytes(self, tmp_path, D):
        # class_order is computed where the s0 report prints it
        out = tmp_path / "s0.json"
        assert main(["s0", "--d", D, "--s0-count", "10", "--json", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"s0_{D}.json").read_bytes()

    def test_bound_large_h_bytes(self, tmp_path):
        # h = 41: A3 elements of 494 bits, factored through their Lucas parts
        out = tmp_path / "bound.json"
        assert main(["bound", "--d", "-1151", "--rho-iters", "1000000",
                     "--json", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "bound_-1151.json").read_bytes()

    def test_bound_minus_2999_certified_at_1e6_rho(self, tmp_path):
        # h = 73: Psi_876 leaves a 104-bit part that 10^6 rho iterations do
        # not split; p-1 over the trial primes does, and the report equals
        # the one recorded at the default budget
        out = tmp_path / "bound.json"
        assert main(["bound", "--d", "-2999", "--rho-iters", "1000000",
                     "--require-certified", "--json", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "bound_-2999.json").read_bytes()

    def test_bound_uncertified_bytes(self, tmp_path):
        # a budget too small for -1151: composite cofactors in A3 and in an
        # A1 intersection, and the "factor budget exhausted" caveat
        out = tmp_path / "bound.json"
        assert main(["bound", "--d", "-1151", "--trial-bound", "50", "--rho-iters", "2",
                     "--mazur-bound", "1000", "--json", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "bound_-1151_tiny.json").read_bytes()

    def test_clock_changes_nothing(self, tmp_path, monkeypatch):
        # factoring is bounded by iterations alone: a clock that jumps by
        # 10^6 s on every read changes no factorization and no byte
        clock = iter(range(0, 10**15, 10**6))
        monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
        p, q = 1000000007, 998244353
        assert factor(p * q, FactorBudget(trial_bound=100)).complete
        out = tmp_path / "bound.json"
        assert main(["bound", "--d", "-1151", "--rho-iters", "1000000",
                     "--json", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "bound_-1151.json").read_bytes()

    def test_time_flag_zero_changes_nothing(self, tmp_path):
        # --time-per-int-ms is accepted as 0 only, and not read
        with_flag, without = tmp_path / "with.json", tmp_path / "without.json"
        assert main(["verify", "--d", "-84", *BASE, "--time-per-int-ms", "0",
                     "--json", str(with_flag)]) == 0
        assert main(["verify", "--d", "-84", *BASE, "--json", str(without)]) == 0
        assert with_flag.read_bytes() == without.read_bytes()


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

    def test_negative_trial_bound(self, tmp_path):
        # a trial bound below 2 would list composites as primes
        out = tmp_path / "o.json"
        assert main(["bound", "--d", "-5", "--trial-bound", "-40",
                     "--mazur-bound", "1000", "--json", str(out)]) == 1
        assert not out.exists()

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
        # the error named the temporary .cache-XXXX file beside the cache
        cache = tmp_path / "missing" / "factors.cache"
        assert main(["bound", "--d", "-5", *BASE, "--cache", str(cache),
                     "--json", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{cache}'" in err
        assert ".cache-" not in err
        # the report was written before the store and left behind
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


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["bound", "--d", "-5", *BASE, "--json", str(a)]) == 0
        assert main(["bound", "--d", "-5", *BASE, "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cache_does_not_change_output(self, tmp_path):
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        cache = tmp_path / "factors.cache"
        assert main(["bound", "--d", "-5", *BASE, *STORED, "--json", str(a)]) == 0
        assert main(["bound", "--d", "-5", *BASE, *STORED, "--cache", str(cache),
                     "--json", str(b)]) == 0
        assert cache.exists()
        assert main(["bound", "--d", "-5", *BASE, *STORED, "--cache", str(cache),
                     "--json", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()


class TestCacheStore:
    @staticmethod
    def _counting_store(monkeypatch):
        stores = []
        real = cli.cache_store

        def counting(*args):
            stores.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "cache_store", counting)
        return stores

    def test_unchanged_cache_not_rewritten(self, tmp_path, monkeypatch):
        cache = tmp_path / "factors.cache"
        argv = ["bound", "--d", "-5", *BASE, *STORED, "--cache", str(cache),
                "--json", str(tmp_path / "out.json")]
        assert main(argv) == 0
        first = cache.read_bytes()
        assert first
        stores = self._counting_store(monkeypatch)
        assert main(argv) == 0
        assert stores == []
        assert cache.read_bytes() == first

    def test_new_entries_written(self, tmp_path, monkeypatch):
        cache = tmp_path / "factors.cache"
        assert main(["bound", "--d", "-5", *BASE, *STORED, "--cache", str(cache),
                     "--json", str(tmp_path / "a.json")]) == 0
        before = cache_load(str(cache))
        stores = self._counting_store(monkeypatch)
        assert main(["bound", "--d", "-23", *BASE, *STORED, "--cache", str(cache),
                     "--json", str(tmp_path / "b.json")]) == 0
        assert len(stores) == 1
        after = cache_load(str(cache))
        assert before.items() < after.items()


class TestCacheFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.txt"
        table = {
            564859072962: FactoredInteger(
                value=564859072962, prime_powers=((2, 1), (3, 24))
            ),
            -90: FactoredInteger(
                value=-90, prime_powers=((2, 1), (3, 2), (5, 1))
            ),
            1000036000099: FactoredInteger(
                value=1000036000099, prime_powers=(),
                cofactor=1000036000099,
            ),
        }
        cache_store(str(path), table)
        assert cache_load(str(path)) == table

    def test_empty_file(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("")
        assert cache_load(str(path)) == {}

    def test_example_line(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("564859072962=2^1*3^24\n")
        table = cache_load(str(path))
        assert table[564859072962].prime_powers == ((2, 1), (3, 24))

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("abc=2\n")
        with pytest.raises(ValueError, match="line 1"):
            cache_load(str(path))

    def test_inconsistent_entry_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("10=2^1*3^1\n")
        with pytest.raises(ValueError, match="line 1"):
            cache_load(str(path))

    @pytest.mark.parametrize("line", ["15=15^1", "1=1^1"])
    def test_composite_listed_prime_rejected(self, tmp_path, line):
        path = tmp_path / "cache.txt"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="line 1"):
            cache_load(str(path))

    def test_probable_listed_prime_rejected(self, tmp_path):
        p98 = 242158526118349748939022266021
        path = tmp_path / "cache.txt"
        path.write_text(f"{2 * p98}=2^1*{p98}^1\n")
        with pytest.raises(ValueError, match="line 1: listed prime .* probable"):
            cache_load(str(path))
        assert main(["bound", "--d", "-5", *BASE, "--cache", str(path)]) == 1

    def test_composite_listed_prime_exits_1(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("15=15^1\n")
        assert main(["bound", "--d", "-5", *BASE, "--cache", str(path)]) == 1
        assert path.read_text() == "15=15^1\n"

    @pytest.mark.parametrize("extra", ["*1000003^0", "*7^-1*7^1"])
    def test_exponent_below_1_rejected(self, tmp_path, extra):
        # a zero exponent put 1000003 in the -20 union and made verify
        # raise; a negative one multiplied back through a float
        path = tmp_path / "cache.txt"
        argv = ["bound", "--d", "-20", "--mazur-bound", "1000", *STORED,
                "--cache", str(path)]
        assert run(tmp_path, *argv)[0] == 0
        lines = path.read_text().splitlines()
        lines[0] += extra
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 1: exponent"):
            cache_load(str(path))
        assert main(argv) == 1

    @pytest.mark.parametrize("rhs", [
        "7^2*5^2*2^9*23^2*47^2",
        "47^2*23^2*7^2*5^2*2^9",
        "2^8*2^1*5^2*7^2*23^2*47^2",
    ])
    def test_primes_not_ascending_rejected(self, tmp_path, rhs):
        # the report printed the line's factors as listed: reversed, the
        # -20 report's factors started with 47 instead of 2
        path = tmp_path / "cache.txt"
        argv = ["bound", "--d", "-20", "--mazur-bound", "1000", *STORED,
                "--cache", str(path)]
        assert run(tmp_path, *argv)[0] == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "-732921459200=2^9*5^2*7^2*23^2*47^2"
        lines[0] = "-732921459200=" + rhs
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 1: .*not strictly ascending"):
            cache_load(str(path))
        assert main(argv) == 1

    @pytest.mark.parametrize("line", ["30=2^1*C3*C15", "30=C15*2^1", "5=5^1*C1"])
    def test_cofactor_not_once_last_and_above_1_rejected(self, tmp_path, line):
        # each multiplied back: the C3 was dropped, and a C1 kept
        path = tmp_path / "cache.txt"
        path.write_text(f"6=2^1*3^1\n{line}\n")
        with pytest.raises(ValueError, match="line 2: .*cofactor"):
            cache_load(str(path))
        assert main(["bound", "--d", "-5", *BASE, "--cache", str(path)]) == 1

    def test_each_distinct_prime_tested_once(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.txt"
        path.write_text("6=2^1*3^1\n12=2^2*3^1\n-18=2^1*3^2\n")
        tested = []

        def status(p):
            tested.append(p)
            return "prime"

        monkeypatch.setattr(cli, "prime_status", status)
        assert len(cache_load(str(path))) == 3
        assert sorted(tested) == [2, 3]


def _recording_factor_cached(monkeypatch):
    """Every (value, factorization) that factor_cached returns."""
    seen = {}
    real = weilsets.factor_cached

    def recording(v, budget, cache, lucas=None):
        seen[v] = real(v, budget, cache, lucas)
        return seen[v]

    monkeypatch.setattr(weilsets, "factor_cached", recording)
    return seen


class TestStoredEntries:
    # a slice of the fields in [-400, -3] with h_k > 1: four of them store
    # entries, at the survey's rho budget
    SURVEY = ("-340", "-344", "-347", "-355", "-356", "-359", "-367", "-371", "-372")
    SURVEY_FLAGS = (*BASE, "--rho-iters", "1000000")

    def test_cold_pass_stores_exactly_the_rule(self, tmp_path, monkeypatch):
        seen = _recording_factor_cached(monkeypatch)
        cache = tmp_path / "factors.cache"
        for D in self.SURVEY:
            assert main(["bound", "--d", D, *self.SURVEY_FLAGS, "--cache", str(cache),
                         "--json", str(tmp_path / "o.json")]) == 0
        expected = {v: f for v, f in seen.items() if f.complete
                    and sum(e for p, e in f.prime_powers if p > 10**6) >= 2}
        assert len(expected) == 7 and len(seen) > 100
        assert cache_load(str(cache)) == expected

    def test_file_listing_every_value_still_loads(self, tmp_path, monkeypatch):
        # files written before the rule listed every factored value; they
        # still load, give a hit for every value, and change no report
        fields = ("-20", "-372", "-1151")
        seen = _recording_factor_cached(monkeypatch)
        plain = [main(["bound", "--d", D, *BASE, "--json", str(tmp_path / f"p{D}.json")])
                 for D in fields]
        assert plain == [0, 0, 0]
        every = tmp_path / "every.cache"
        cache_store(str(every), seen)
        listed = every.read_bytes()
        small = tmp_path / "small.cache"
        calls = []
        monkeypatch.setattr(weilsets, "factor", lambda n, budget: calls.append(n) or factor(n, budget))
        runs = [("every", every), ("cold", small), ("warm", small)]
        for D in fields:
            for name, path in runs:
                before = len(calls)
                assert main(["bound", "--d", D, *BASE, "--cache", str(path),
                             "--json", str(tmp_path / f"{name}{D}.json")]) == 0
                if name == "every":
                    assert len(calls) == before
            want = (tmp_path / f"p{D}.json").read_bytes()
            assert all((tmp_path / f"{name}{D}.json").read_bytes() == want for name, _ in runs)
        assert every.read_bytes() == listed
        assert len(cache_load(str(small))) < len(seen) == len(cache_load(str(every)))
