"""Root solving and asymptotic diagnostics against a bisection oracle."""

import math

import mpmath as mp
import pytest

from partition_records import (
    asymptotic_report,
    bell_shift_error,
    build_tables,
    solve_r,
    total_swrec_estimate,
)


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
    # B_800 is far beyond double range; the estimate must stay finite in mpmath
    est = total_swrec_estimate(800, tables)
    assert mp.isfinite(est) and est > 0
    assert float(mp.log10(est)) > 300


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


def test_bell_shift_needs_the_shifted_entry():
    one_short = build_tables(12)  # n = 10, h = 3 reads B_13
    assert bell_shift_error(10, 2, one_short) > 0
    with pytest.raises(IndexError):
        bell_shift_error(10, 3, one_short)


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
