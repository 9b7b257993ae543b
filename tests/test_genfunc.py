"""Generating functions vs. the enumeration oracle and each other."""

from fractions import Fraction

import pytest

from partition_records import (
    BiSeries,
    enumerate_rgs,
    gf_product,
    gf_recurrence,
    partial_fraction_coeffs,
    partial_fraction_eval,
    pole_expansion_coeffs,
    swrec,
    swrec_histogram,
    total_swrec_rational,
    total_swrec_series,
)


def sum_of_squares(n):
    """1^2 + 2^2 + ... + n^2, summed term by term."""
    return sum(i * i for i in range(1, n + 1))


F = Fraction


def test_product_k1():
    assert gf_product(1, 3) == BiSeries.from_terms([(1, 1, 1), (2, 1, 1), (3, 1, 1)], 3)


def test_product_k2_small_coefficients():
    p = gf_product(2, 4)
    assert p.q_coefficients(2) == {5: 1}
    assert p.q_coefficients(3) == {5: 2, 7: 1}


def test_product_matches_histograms():
    for k in range(1, 8):
        series = gf_product(k, 7)
        for n in range(k, 8):
            assert series.q_coefficients(n) == dict(swrec_histogram(n, k))


def test_product_rejects_bad_k():
    with pytest.raises(ValueError):
        gf_product(0, 5)


def test_recurrence_base_case():
    assert gf_recurrence(1, 6) == gf_product(1, 6)


def test_recurrence_k2_x4():
    assert gf_recurrence(2, 4).q_coefficients(4) == {9: 1, 7: 2, 5: 4}


def test_recurrence_matches_product():
    for k in range(1, 5):
        assert gf_recurrence(k, 8) == gf_product(k, 8)


def test_recurrence_step_from_below_matches_full_chain():
    for k in range(2, 11):
        assert gf_recurrence(k, 12, gf_recurrence(k - 1, 12)) == gf_recurrence(k, 12), k


def test_recurrence_step_rejects_below_of_another_order():
    with pytest.raises(ValueError):
        gf_recurrence(3, 12, gf_recurrence(2, 11))


def test_recurrence_step_rejects_below_at_k1():
    with pytest.raises(ValueError):
        gf_recurrence(1, 6, gf_recurrence(1, 6))


def test_q_power_bounds():
    # every swrec value s at x^n satisfies k(k+1)/2 <= s <= sum of squares(n),
    # and the smallest one is exactly 1^2 + ... + k^2 (words starting 12..k)
    for k in range(1, 7):
        series = gf_product(k, 8)
        for n in range(k, 9):
            powers = series.q_coefficients(n)
            assert min(powers) == sum_of_squares(k)
            assert min(powers) >= k * (k + 1) // 2
            assert max(powers) <= sum_of_squares(n)


def test_q_weighted_sum_of_product():
    assert gf_product(2, 3).q_weighted_sum() == (0, 0, 5, 17)


# ---------------------------------------------------------------------------
# per-k total series (the q-derivative at q = 1, in closed form)
# ---------------------------------------------------------------------------


def test_total_series_k1():
    assert total_swrec_series(1, 5) == (0, 1, 1, 1, 1, 1)


def test_total_series_k2_x3():
    assert total_swrec_series(2, 3)[3] == 17


def test_total_series_diagonal():
    # [x^n] for k = n counts the single word 12..n
    for n in range(1, 9):
        assert total_swrec_series(n, n)[n] == sum_of_squares(n)


def test_total_series_equals_weighted_product():
    # k > order (x^k lies past the truncation) and order 0 ride along
    for k, order in [(1, 9), (2, 9), (3, 9), (4, 9), (5, 9), (5, 3), (2, 0)]:
        weighted, closed = gf_product(k, order).q_weighted_sum(), total_swrec_series(k, order)
        assert weighted == closed, (k, order)
        assert len(closed) == order + 1
        assert all(type(c) is int for c in weighted + closed)
        if k > order:
            assert closed == (0,) * (order + 1)


def test_total_series_matches_enumeration():
    for n in range(1, 8):
        for k in range(1, n + 1):
            expected = sum(swrec(w) for w in enumerate_rgs(n, k))
            assert total_swrec_series(k, n)[n] == expected


# ---------------------------------------------------------------------------
# rational form and partial fractions
# ---------------------------------------------------------------------------


def test_rational_values():
    assert total_swrec_rational(1, 2) == 1
    assert total_swrec_rational(2, 3) == 3
    assert total_swrec_rational(2, 4) == F(17, 18)


def test_rational_rejects_poles():
    for y in (1, 2):
        with pytest.raises(ValueError):
            total_swrec_rational(2, y)
    total_swrec_rational(2, F(3, 2))  # non-integer between the poles is fine


def test_rational_k1_is_simple_pole():
    # for one block the function collapses to 1/(y-1), matching the series
    # x + x^2 + ... under x -> 1/y
    for y in (F(5), F(7, 2), F(-3)):
        assert total_swrec_rational(1, y) == 1 / (y - 1)


def test_partial_fraction_coeffs_k2():
    d = partial_fraction_coeffs(2)
    assert d.a == {1: F(-2), 2: F(0)}
    assert d.b == {1: F(-7), 2: F(7)}


def test_partial_fraction_coeffs_k1():
    d = partial_fraction_coeffs(1)
    assert d.a == {1: F(0)}
    assert d.b == {1: F(1)}


def test_a_vanishes_at_m_equals_k():
    for k in range(1, 13):
        assert partial_fraction_coeffs(k).a[k] == 0


def test_partial_fraction_eval_examples():
    assert partial_fraction_eval(partial_fraction_coeffs(2), 3) == 3
    assert partial_fraction_eval(partial_fraction_coeffs(1), 2) == 1
    assert partial_fraction_eval(partial_fraction_coeffs(2), 4) == F(17, 18)


def test_partial_fraction_eval_rejects_poles():
    with pytest.raises(ValueError):
        partial_fraction_eval(partial_fraction_coeffs(3), 2)


def test_reconstruction_at_rational_points():
    for k in range(1, 8):
        d = partial_fraction_coeffs(k)
        for step in range(12):
            y = F(2 * (k + 1) + step, 2)  # k+1, k+3/2, ...
            assert partial_fraction_eval(d, y) == total_swrec_rational(k, y)
        # negative and fractional points away from the poles
        for y in (F(-1), F(-7, 3), F(1, 2)):
            assert partial_fraction_eval(d, y) == total_swrec_rational(k, y)


def reference_rational(k, y):
    """total_swrec_rational term by term in Fraction arithmetic."""
    prod = F(1)
    bracket = F(k * (k + 1) * (2 * k + 1), 6)
    for i in range(1, k + 1):
        prod *= y - i
        bracket += F(i * (1 + k + i) * (k - i), 2) / (y - i)
    return bracket / prod


def reference_partial_fraction(d, y):
    """partial_fraction_eval term by term in Fraction arithmetic."""
    return sum((d.a[m] / (y - m) ** 2 + d.b[m] / (y - m) for m in range(1, d.k + 1)), F(0))


def test_rational_evaluations_match_fraction_reference():
    points = [
        F(-5), F(-7, 3), F(-1, 3), F(0), F(1, 3), F(5, 3), F(10, 3), F(7, 2),
        F(123457, 1000), F(10**18 + 1), F(-(10**20), 3), F(1, 10**15),
    ]
    for k in range(1, 13):
        d = partial_fraction_coeffs(k)
        for y in points:
            if y.denominator == 1 and 1 <= y <= k:
                continue
            expected = reference_rational(k, y)
            assert total_swrec_rational(k, y) == expected, (k, y)
            assert partial_fraction_eval(d, y) == reference_partial_fraction(d, y) == expected


def test_integer_partial_fraction_eval_matches_fraction_reference_off_grid():
    for k in (1, 5, 20, 60):
        d = partial_fraction_coeffs(k)
        for y in (F(-1), F(-9, 4), F(-(10**6) - 1, 7), F(7, 3), 10**6 + F(1, 7)):
            assert partial_fraction_eval(d, y) == reference_partial_fraction(d, y), (k, y)


def test_rational_evaluations_reject_every_pole():
    for k in range(1, 7):
        d = partial_fraction_coeffs(k)
        for m in range(1, k + 1):
            for y in (m, F(m), F(2 * m, 2)):
                with pytest.raises(ValueError):
                    total_swrec_rational(k, y)
                with pytest.raises(ValueError):
                    partial_fraction_eval(d, y)


def test_pole_expansion_oracle_matches_explicit_coeffs():
    # the two-term Taylor expansion at each pole is independent of the
    # explicit formulas; they must agree everywhere
    for k in range(1, 11):
        d = partial_fraction_coeffs(k)
        for m in range(1, k + 1):
            a, b = pole_expansion_coeffs(k, m)
            assert (a, b) == (d.a[m], d.b[m])


def test_pole_expansion_spot_values():
    assert pole_expansion_coeffs(2, 1) == (F(-2), F(-7))
    assert pole_expansion_coeffs(2, 2) == (F(0), F(7))
    assert pole_expansion_coeffs(1, 1) == (F(0), F(1))


def test_pole_expansion_rejects_bad_m():
    with pytest.raises(ValueError):
        pole_expansion_coeffs(3, 4)
