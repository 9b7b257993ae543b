"""Root solving and asymptotic diagnostics against a bisection oracle."""

import math
from fractions import Fraction

import pytest

from partition_records import (
    asymptotic_report,
    bell_shift_error,
    build_tables,
    egf_w,
    solve_r,
    total_swrec_estimate,
    total_swrec_formula,
)
from partition_records.asymptotics import REPORT_REACH, format_significant
from partition_records.closedform import BELL_FORM_REACH


def bisect_root(t, tol=1e-10):
    """Independent oracle: bisection for r e^r = t on a doubling bracket."""
    lo, hi = 0.0, 1.0
    while hi * math.exp(hi) < t:
        hi *= 2
    while hi - lo > tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_r_exact_point():
    assert abs(solve_r(math.e) - 1.0) < 1e-12


def test_solve_r_against_bisection():
    for t in (0.1, 2.0, 11.0, 101.0, 1001.0):
        assert abs(solve_r(t) - bisect_root(t)) < 1e-9


def test_solve_r_known_value():
    assert abs(solve_r(2.0) - 0.8526055020) < 1e-9


def test_solve_r_residual_tolerance():
    for t in (5e-324, 1e-300, 1e-50, 0.5, 2.0, 11.0, 1001.0, 1e6):
        r = solve_r(t)
        assert abs(r * math.exp(r) - t) <= 1e-12 * t


def test_solve_r_monotone():
    ts = [0.5, 1.0, 2.0, 5.0, 11.0, 50.0, 1001.0]
    rs = [solve_r(t) for t in ts]
    assert all(a < b for a, b in zip(rs, rs[1:]))


def test_solve_r_rejects_nonpositive():
    with pytest.raises(ValueError):
        solve_r(0.0)
    with pytest.raises(ValueError):
        solve_r(-3.0)
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_r(t)


def test_solve_r_overflow_is_an_error_not_nan():
    # Within 0.2% of the largest double, Newton's first overshoot makes
    # r e^r overflow; the solver must say so rather than return nan.
    with pytest.raises(ArithmeticError):
        solve_r(1.7976931348623157e308)


def test_estimate_n10(tables):
    r = bisect_root(11.0)
    expected = tables[10] * 1000.0 / r**3 * (1 + r / 10)
    got = total_swrec_estimate(10, tables)
    assert abs(float(got) - expected) / expected < 1e-9


def test_estimate_survives_huge_bell(tables):
    # B_800 is far beyond double range; the estimate is an exact Fraction
    est = total_swrec_estimate(800, tables)
    assert isinstance(est, Fraction)
    assert est > 10**300


def test_estimate_rejects_n0(tables):
    with pytest.raises(ValueError):
        total_swrec_estimate(0, tables)


def test_negative_n_reads_no_table_entry_from_the_end(tables):
    # a bare tuple reads tables[-1] silently: none of these may return a number
    with pytest.raises(ValueError):
        total_swrec_estimate(-1, tables)
    with pytest.raises(ValueError):
        bell_shift_error(-1, 1, tables)
    with pytest.raises(ValueError):
        bell_shift_error(-5, 2, tables)
    for n in (-1, -7):
        with pytest.raises(ValueError, match="n must be >= 0"):
            bell_shift_error(n, 0, tables)


# Each Bell-table reader with its reach: the last B_m it reads.
TABLE_READERS = {
    "egf_w": (lambda t: egf_w(6, t).coeffs, 6),
    "total_swrec_formula": (lambda t: total_swrec_formula(10, t), 10 + BELL_FORM_REACH),
    "total_swrec_estimate": (lambda t: total_swrec_estimate(10, t), 10),
    "bell_shift_error": (lambda t: bell_shift_error(10, 3, t), 10 + 3),
    "asymptotic_report": (lambda t: asymptotic_report([10, 50], t), 50 + REPORT_REACH),
}


@pytest.mark.parametrize("reader", sorted(TABLE_READERS))
def test_table_reader_needs_exactly_its_reach(reader, tables):
    read, reach = TABLE_READERS[reader]
    with pytest.raises(ValueError, match="tables must cover"):
        read(build_tables(reach - 1))
    assert read(build_tables(reach)) == read(tables)


def test_ratio_n10(tables):
    ratio = 8962070 / float(total_swrec_estimate(10, tables))
    assert abs(ratio - 0.386) < 1e-3


def test_bell_shift_h0_is_zero(tables):
    assert bell_shift_error(10, 0, tables) == 0.0


def test_bell_shift_n10_h1(tables):
    assert abs(bell_shift_error(10, 1, tables) - 0.039) < 1e-3


def test_bell_shift_improves_with_n(tables):
    for h in (1, 2, 3):
        assert bell_shift_error(100, h, tables) < bell_shift_error(10, h, tables)


def test_report_n10(tables):
    (rep,) = asymptotic_report([10], tables)
    assert rep.exact_total == 8962070
    assert abs(rep.r * math.exp(rep.r) - 11.0) < 1e-9
    assert set(rep.bell_shift_errors) == {1, 2, 3}
    d = rep.to_json_dict()
    assert set(d) == {"n", "r", "exact_total", "estimate", "ratio", "bell_shift_errors"}
    assert d["exact_total"] == 8962070


def test_report_empty(tables):
    assert asymptotic_report([], tables) == []


def test_report_r_monotone(tables):
    reports = asymptotic_report([10, 100], tables)
    assert reports[0].r < reports[1].r


# Each expected string is mpmath 1.3.0's nstr(x, digits) of x evaluated
# to 1000 digits: the layout the JSON "estimate" field and demo 04 print.
NSTR = [
    (Fraction(1), 4, "1.0"),
    (Fraction(3), 10, "3.0"),
    (Fraction(1000), 4, "1000.0"),
    (Fraction(9999), 4, "9999.0"),  # exponent digits - 1: fixed
    (Fraction(49997, 5), 4, "9999.0"),
    (Fraction(10**4), 4, "1.0e+4"),  # exponent digits: scientific
    (Fraction(19999, 2), 4, "1.0e+4"),  # rounds up across the switch
    (Fraction(12344), 4, "1.234e+4"),
    (Fraction(12345), 4, "1.235e+4"),  # half up
    (Fraction(12344999999, 10**7), 4, "1234.0"),  # rounded once, not twice
    (Fraction(1234567), 4, "1.235e+6"),
    (Fraction(2 * 10**9, 3), 10, "666666666.7"),
    (Fraction(2 * 10**10, 3), 10, "6666666667.0"),
    (Fraction(2469135781, 2), 10, "1234567891.0"),  # exponent digits - 1: fixed
    (Fraction(12345678901), 10, "1.23456789e+10"),  # exponent digits: scientific
    (Fraction(12345678904999, 10**3), 10, "1.23456789e+10"),
    (Fraction(19999999999, 2), 10, "1.0e+10"),
    (Fraction(10**13), 10, "1.0e+13"),
    (Fraction(10**400 + 1, 7), 10, "1.428571429e+399"),
]


@pytest.mark.parametrize("x, digits, expected", NSTR)
def test_format_significant_matches_nstr(x, digits, expected):
    assert format_significant(x, digits) == expected


def test_format_significant_of_the_estimate(tables):
    assert format_significant(total_swrec_estimate(5, tables), 4) == "2845.0"
    assert format_significant(total_swrec_estimate(1, tables), 10) == "2.989087007"


def test_format_significant_refuses_below_one():
    for x in (Fraction(999, 1000), Fraction(0), Fraction(-5)):
        with pytest.raises(ValueError, match="x must be >= 1"):
            format_significant(x, 10)
