import json
import time
from pathlib import Path

import pytest

from quatbound import bound, cli
from quatbound.arith import FactorBudget, FactoredInteger, factor
from quatbound.cli import cache_load, cache_store, main


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--json", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


BASE = ("--mazur-bound", "10000")


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
        calls = {"family_A1": 0, "family_A2": 0, "family_A3": 0}
        for name in calls:
            real = getattr(bound, name)

            def counting(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(bound, name, counting)
        code, doc = run(tmp_path, "verify", "--d", "-5", *BASE)
        assert code == 0
        s0_count = len(doc["s0_truncation"])
        assert s0_count == 4
        assert calls == {"family_A1": s0_count, "family_A2": s0_count, "family_A3": 1}


GOLDEN = Path(__file__).parent / "data"


class TestGoldenVerify:
    @pytest.mark.parametrize("D", ["-20", "-84", "-419"])
    def test_verify_bytes(self, tmp_path, D):
        out = tmp_path / "verify.json"
        assert main(["verify", "--d", D, *BASE, "--json", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"verify_{D}.json").read_bytes()

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
        assert main(["bound", "--d", "-1", *BASE]) == 2

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
        assert main(["bound", "--d", "-5", *BASE, "--json", str(a)]) == 0
        assert main(["bound", "--d", "-5", *BASE, "--cache", str(cache),
                     "--json", str(b)]) == 0
        assert cache.exists()
        assert main(["bound", "--d", "-5", *BASE, "--cache", str(cache),
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
        argv = ["bound", "--d", "-5", *BASE, "--cache", str(cache),
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
        assert main(["bound", "--d", "-5", *BASE, "--cache", str(cache),
                     "--json", str(tmp_path / "a.json")]) == 0
        before = cache_load(str(cache))
        stores = self._counting_store(monkeypatch)
        assert main(["bound", "--d", "-23", *BASE, "--cache", str(cache),
                     "--json", str(tmp_path / "b.json")]) == 0
        assert len(stores) == 1
        after = cache_load(str(cache))
        assert before.items() < after.items()


class TestCacheFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.txt"
        table = {
            564859072962: FactoredInteger(
                value=564859072962, sign=1, prime_powers=((2, 1), (3, 24))
            ),
            -90: FactoredInteger(
                value=-90, sign=-1, prime_powers=((2, 1), (3, 2), (5, 1))
            ),
            1000036000099: FactoredInteger(
                value=1000036000099, sign=1, prime_powers=(),
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
        argv = ["bound", "--d", "-20", "--mazur-bound", "1000", "--cache", str(path)]
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
        argv = ["bound", "--d", "-20", "--mazur-bound", "1000", "--cache", str(path)]
        assert run(tmp_path, *argv)[0] == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "-732921459200=2^9*5^2*7^2*23^2*47^2"
        lines[0] = "-732921459200=" + rhs
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 1: .*not strictly ascending"):
            cache_load(str(path))
        assert main(argv) == 1

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
