"""The Bell table, the aggregate EGF, and the exact total formula."""

import math
from collections import defaultdict
from fractions import Fraction

import pytest

from partition_records import (
    bell_numbers,
    build_tables,
    egf_w,
    enumerate_rgs,
    total_swrec_bruteforce,
    total_swrec_formula,
)
from partition_records.closedform import BELL_FORM_4T, W_BRACKET


def test_bell_small_values():
    assert bell_numbers(5) == [1, 1, 2, 5, 15, 52]


def test_bell_binomial_recurrence(tables):
    # B_{n+1} = sum_j C(n,j) B_j, an independent identity on the table
    for n in range(20):
        assert tables[n + 1] == sum(math.comb(n, j) * tables[j] for j in range(n + 1))


def test_stirling_values(stirling2):
    assert stirling2(4, 2) == 7
    assert stirling2(4, 2) == sum(1 for _ in enumerate_rgs(4, 2))
    for n in range(1, 20):
        assert stirling2(n, n) == 1
        assert stirling2(n, 1) == 1


def test_bell_is_row_sum_of_stirling(tables, stirling2):
    for n in range(31):
        assert tables[n] == sum(stirling2(n, k) for k in range(n + 1))


def test_build_tables_caps():
    # the one keyword call shape left: stirling_max_n=0, and nothing else
    assert build_tables(50, stirling_max_n=0) == build_tables(50)
    assert len(build_tables(50)) == 51
    with pytest.raises(ValueError):
        build_tables(50, stirling_max_n=6)


def test_egf_w_small_coefficients(tables):
    w = egf_w(6, tables)
    assert w.egf_coefficient(0) == 0
    assert w.egf_coefficient(1) == 1
    assert w.egf_coefficient(3) == 32 == total_swrec_bruteforce(3)


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
    for n in range(len(tables) - 3):
        expected = (
            Fraction(3, 4) * (tables[n + 3] - tables[n + 2])
            - (n + Fraction(7, 4)) * tables[n + 1]
            - Fraction(n + 1, 2) * tables[n]
        )
        assert total_swrec_formula(n, tables) == expected


def test_total_formula_rejects_corrupt_tables():
    bell = list(bell_numbers(12))
    bell[9] += 1  # 4T moves by 3: not a multiple of 4 at n = 6
    corrupt = tuple(bell)
    with pytest.raises(ArithmeticError, match="n=6 is not an integer"):
        total_swrec_formula(6, corrupt)


def test_total_formula_needs_tables(tables):
    small = build_tables(4)  # one entry short: n = 2 reads B_5
    with pytest.raises(ValueError, match="tables must cover n\\+3 = 5, have 4"):
        total_swrec_formula(2, small)
    # a bare tuple would read tables[-1] here
    with pytest.raises(ValueError, match="n must be >= 0"):
        total_swrec_formula(-1, tables)


# ---------------------------------------------------------------------------
# Theorem 2 <=> Theorem 3, for every n, from the two tables
# ---------------------------------------------------------------------------
#
# A series E * F(x, y), with E = e^(e^x - 1), y = e^x and F in Q[x, y], is
# stored as F: {(i, j): c} for the sum of c x^i y^j.  Since E' = y E and
# y' = y, d/dx acts on F as D(F) = y F + dF/dx + y dF/dy.  The EGF of
# B_{n+h} is D^h E, and x * d/dx multiplies the n-th EGF coefficient by n,
# so sum_h (slope n + const) B_{n+h} has the EGF
# E * sum_h (slope x D + const) D^h 1.


def _d(f: dict) -> dict:
    out = defaultdict(Fraction)
    for (i, j), c in f.items():
        out[i, j + 1] += c  # y F
        out[i, j] += j * c  # y dF/dy
        if i:
            out[i - 1, j] += i * c  # dF/dx
    return out


def _add_scaled(total: dict, f: dict, c: int) -> None:
    for key, v in f.items():
        total[key] += c * v


def test_bell_form_and_w_bracket_agree_for_every_n():
    total = defaultdict(Fraction)
    d_h = {(0, 0): Fraction(1)}  # D^h E = E * d_h, from h = 0
    for h in range(max(BELL_FORM_4T) + 1):
        slope, const = BELL_FORM_4T.get(h, (0, 0))
        d_next = _d(d_h)
        _add_scaled(total, d_h, const)
        _add_scaled(total, {(i + 1, j): v for (i, j), v in d_next.items()}, slope)
        d_h = d_next
    # 4 W: -2 - 7y + 6y^2 + 3y^3 - 6xy - 4xy^2
    assert {key: v for key, v in total.items() if v} == {
        key: 4 * c for key, c in W_BRACKET.items()
    }
