"""Bell/Stirling tables, the aggregate EGF, and the exact total formula."""

import math
from fractions import Fraction

import pytest

from partition_records import (
    BellStirlingTables,
    UniSeries,
    bell_egf,
    bell_numbers,
    build_tables,
    egf_w,
    enumerate_rgs,
    total_swrec_bruteforce,
    total_swrec_formula,
)


def test_bell_small_values():
    assert bell_numbers(5) == [1, 1, 2, 5, 15, 52]


def test_bell_binomial_recurrence(tables):
    # B_{n+1} = sum_j C(n,j) B_j, an independent identity on the table
    for n in range(20):
        assert tables.bell_number(n + 1) == sum(
            math.comb(n, j) * tables.bell_number(j) for j in range(n + 1)
        )


def test_stirling_values(tables):
    assert tables.stirling_number(4, 2) == 7
    assert tables.stirling_number(4, 2) == sum(1 for _ in enumerate_rgs(4, 2))
    for n in range(1, 20):
        assert tables.stirling_number(n, n) == 1
        assert tables.stirling_number(n, 1) == 1


def test_bell_is_row_sum_of_stirling(tables):
    for n in range(tables.stirling_max_n + 1):
        assert tables.bell_number(n) == sum(
            tables.stirling_number(n, k) for k in range(n + 1)
        )


def test_build_tables_caps():
    t = build_tables(50, stirling_max_n=10)
    assert t.max_n == 50 and t.stirling_max_n == 10
    with pytest.raises(ValueError):
        t.stirling_number(11, 2)
    with pytest.raises(ValueError):
        t.bell_number(51)
    with pytest.raises(ValueError):
        build_tables(5, stirling_max_n=6)


def test_bell_egf_matches_series_exponential(tables):
    order = 30
    inner = UniSeries([0] + [Fraction(1, math.factorial(n)) for n in range(1, order + 1)])
    assert inner.exp() == bell_egf(order, tables)


def test_egf_w_small_coefficients(tables):
    w = egf_w(6, tables)
    assert w.egf_coefficient(0) == 0
    assert w.egf_coefficient(1) == 1
    assert w.egf_coefficient(3) == 32 == total_swrec_bruteforce(3)


def test_egf_w_requires_headroom():
    small = build_tables(8)
    with pytest.raises(ValueError):
        egf_w(6, small)


def test_total_formula_values(tables):
    assert total_swrec_formula(0, tables) == 0
    assert total_swrec_formula(1, tables) == 1
    assert total_swrec_formula(2, tables) == 6
    assert total_swrec_formula(10, tables) == 8962070


def test_total_formula_matches_bruteforce(tables):
    for n in range(9):
        assert total_swrec_formula(n, tables) == total_swrec_bruteforce(n)


def test_total_formula_is_always_integral(tables):
    for n in range(501):
        assert isinstance(total_swrec_formula(n, tables), int)


def test_total_formula_matches_rational_form(tables):
    # The integer evaluation against the paper's rational form.
    b = tables.bell
    for n in range(tables.max_n - 2):
        expected = (
            Fraction(3, 4) * (b[n + 3] - b[n + 2])
            - (n + Fraction(7, 4)) * b[n + 1]
            - Fraction(n + 1, 2) * b[n]
        )
        assert total_swrec_formula(n, tables) == expected


def test_total_formula_rejects_corrupt_tables():
    bell = list(bell_numbers(12))
    bell[9] += 1  # 4T moves by 3: not a multiple of 4 at n = 6
    corrupt = BellStirlingTables(bell=tuple(bell), stirling=((1,),))
    with pytest.raises(ArithmeticError, match="n=6 is not an integer"):
        total_swrec_formula(6, corrupt)


def test_total_formula_needs_tables():
    small = build_tables(4)
    with pytest.raises(ValueError):
        total_swrec_formula(2, small)
