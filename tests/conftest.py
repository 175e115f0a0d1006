import pytest

from quatbound import arith, make_field

TEST_FIELDS = (-20, -23, -24, -47, -84)


@pytest.fixture(scope="session")
def contexts():
    return {D: make_field(D) for D in TEST_FIELDS}


@pytest.fixture(scope="session")
def ctx20(contexts):
    return contexts[-20]


@pytest.fixture
def fresh(monkeypatch):
    """A fresh process-wide list of primes, as in a new process: walks and
    trial division sieve from 4 again.  The class lists filter the list
    that is _PRIMES when they grow, so they are dropped with it."""
    monkeypatch.setattr(arith, "_PRIMES", arith._TrialPrimes())
    arith._class_primes.cache_clear()
    yield
    arith._class_primes.cache_clear()


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
