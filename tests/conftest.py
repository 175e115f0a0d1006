import pytest

from quatbound import arith, weilsets
from quatbound.quadfield import make_field

TEST_FIELDS = (-20, -23, -24, -47, -84)


@pytest.fixture(scope="session")
def contexts():
    return {D: make_field(D) for D in TEST_FIELDS}


@pytest.fixture(scope="session")
def golden_contexts():
    """The fields of every golden bound, verify, sets and candidates request,
    and -57911 (h = 362), whose sets report test_cli.PINNED pins by its SHA-256."""
    return {D: make_field(D)
            for D in (-20, -23, -40, -71, -84, -419, -1151, -2999, -3299, -5879, -57911)}


@pytest.fixture(scope="session")
def ctx20(contexts):
    return contexts[-20]


@pytest.fixture
def fresh(monkeypatch):
    """A fresh process-wide list of primes, as in a new process: walks and
    trial division sieve from 4 again.  The A3 parts kept across fields are
    dropped too, so that every A3 element is factored again."""
    monkeypatch.setattr(arith, "_PRIMES", arith._TrialPrimes())
    weilsets._a3_part.cache_clear()
    yield
    weilsets._a3_part.cache_clear()


@pytest.fixture
def segment_calls(monkeypatch):
    """The (lo, hi) of every _segment call from here on, in order."""
    calls = []
    real = arith._segment

    def recording(lo, hi, base):
        calls.append((lo, hi))
        return real(lo, hi, base)

    monkeypatch.setattr(arith, "_segment", recording)
    return calls
