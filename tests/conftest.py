import pytest

from fqzeta import PrimePower, make_field, mzv
from fqzeta.fqpoly import canonical_polys


@pytest.fixture(scope="session")
def q2():
    return PrimePower(2, 1)


@pytest.fixture(scope="session")
def q3():
    return PrimePower(3, 1)


@pytest.fixture(scope="session")
def q4():
    return PrimePower(2, 2)


@pytest.fixture(scope="session")
def q8():
    return PrimePower(2, 3)


@pytest.fixture(scope="session")
def q9():
    return PrimePower(3, 2)


@pytest.fixture(scope="session")
def F2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def F3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def F4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def F8():
    return make_field(2, 3)


@pytest.fixture(scope="session")
def F9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def sweep_tuples():
    """(s, value, classification) of each tuple of ``mzv.sweep_rows(field,
    ranges)`` in sweep order, each row's values read by one
    ``canonical_polys`` batch and classified by ``mzv.classification``."""

    def tuples(field, ranges):
        for head, tails, values in mzv.sweep_rows(field, ranges):
            polys = canonical_polys(field, values)
            for x, value in zip(tails, polys):
                yield head + (x,), value, mzv.classification(len(head) + 1, value)

    return tuples
