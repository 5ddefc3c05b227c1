from __future__ import annotations

import pytest

from invopoly import gf
from invopoly.gf import make_field


def pytest_addoption(parser):
    parser.addoption("--quick", action="store_true", default=False,
                     help="subsample the largest acceptance sweeps")


@pytest.fixture(scope="session")
def quick(request):
    return request.config.getoption("--quick")


@pytest.fixture(scope="session")
def f2():
    return make_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f7():
    return make_field(7)


@pytest.fixture(scope="session")
def f8():
    return make_field(2, 3)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def f11():
    return make_field(11)


@pytest.fixture(scope="session")
def f13():
    return make_field(13)


@pytest.fixture(scope="session")
def f16():
    return make_field(2, 4)


@pytest.fixture(scope="session")
def f25():
    return make_field(5, 2)


@pytest.fixture(scope="session")
def f64():
    return make_field(2, 6)


@pytest.fixture(scope="session")
def f81():
    return make_field(3, 4)


@pytest.fixture(scope="session")
def f256():
    return make_field(2, 8)


@pytest.fixture(scope="session")
def f3_6():
    return make_field(3, 6)


@pytest.fixture(scope="session")
def f3_8():
    return make_field(3, 8)


def table_free_fields() -> list[gf.Field]:
    """2^6, 3^4 and 13 built without exp/log tables, as fields above
    TABLE_LIMIT are until a whole-field pass builds them.  The first value
    table or sweep over one builds its tables, so each test (each example
    of a property test) that needs them table-free builds its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "TABLE_LIMIT", 0)
        fields = [make_field(2, 6), make_field(3, 4), make_field(13)]
    assert all(field.log_table is None for field in fields)
    return fields


@pytest.fixture
def table_free():
    """table_free_fields, fresh for each test."""
    return table_free_fields()


@pytest.fixture(scope="session")
def text_fields():
    """Fields whose elements print as decimals or as 'a^k': table-backed
    ones, table-free ones and 2^18, above TABLE_LIMIT, where k comes from
    Pohlig-Hellman."""
    return [make_field(p, n) for p, n in
            [(2, 1), (7, 1), (13, 1), (2, 4), (3, 2), (5, 2), (2, 8), (3, 5), (2, 18)]
            ] + table_free_fields()
