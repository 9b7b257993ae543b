import functools

import pytest

from partition_records import build_tables


@pytest.fixture(scope="session")
def tables():
    """One shared exact Bell table, B_0 through B_1003 (the shift-expansion
    checks at n = 1000 read B_{n+3})."""
    return build_tables(1003)


@functools.cache
def _stirling2(n: int, k: int) -> int:
    """S(n, k) of the second kind by the direct recursion
    S(n, k) = k S(n-1, k) + S(n-1, k-1), S(0, 0) = 1."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@pytest.fixture(scope="session")
def stirling2():
    """The tests' one Stirling-number oracle, independent of every layer
    of the package: the block counts of enumeration and the Bell table's
    row sums are checked against it."""
    return _stirling2
