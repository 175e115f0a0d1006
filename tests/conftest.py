import pytest

from quatbound import make_field

TEST_FIELDS = (-20, -23, -24, -47, -84)


@pytest.fixture(scope="session")
def contexts():
    return {D: make_field(D) for D in TEST_FIELDS}


@pytest.fixture(scope="session")
def ctx20(contexts):
    return contexts[-20]
