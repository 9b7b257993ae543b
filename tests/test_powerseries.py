"""Exact series arithmetic: frozen examples plus algebraic property tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_records import BiSeries, UniSeries

F = Fraction


def bell_triangle(max_n):
    """Independent Bell-number oracle (row-by-row additions only)."""
    bell = [1]
    row = [1]
    for _ in range(max_n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        bell.append(nxt[0])
        row = nxt
    return bell


# ---------------------------------------------------------------------------
# UniSeries
# ---------------------------------------------------------------------------


def test_mul_difference_of_squares():
    a = UniSeries([1, 1], order=3)
    b = UniSeries([1, -1], order=3)
    assert a * b == UniSeries([1, 0, -1, 0])


def test_mul_identity():
    s = UniSeries([2, F(1, 3), 0, 5])
    assert s * UniSeries.one(3) == s


def test_mul_geometric_squared():
    # hand convolution of (1 + x + x^2 + x^3)^2
    g = UniSeries([1, 1, 1, 1])
    assert (g * g).coeffs == (1, 2, 3, 4)


def test_add_sub_scale():
    a = UniSeries([1, 2, 3])
    b = UniSeries([0, F(1, 2), -3])
    assert (a + b).coeffs == (1, F(5, 2), 0)
    assert (a + b.scale(-1)).coeffs == (1, F(3, 2), 6)
    assert a.scale(F(1, 2)).coeffs == (F(1, 2), 1, F(3, 2))
    assert a.scale(2).coeffs == (2, 4, 6)


def test_shift():
    a = UniSeries([1, 2, 3])
    assert a.shift(1).coeffs == (0, 1, 2)
    assert a.shift(0) == a


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        UniSeries.one(2) + UniSeries.one(3)
    with pytest.raises(ValueError):
        UniSeries.one(2) * UniSeries.one(3)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        UniSeries([1.5, 2])
    with pytest.raises(TypeError):
        UniSeries([1, 2]).scale(0.5)


def test_bool_coefficients_rejected():
    with pytest.raises(TypeError):
        UniSeries([True, 0])
    with pytest.raises(TypeError):
        UniSeries([1, 2]).scale(True)


def test_reading_past_order_rejected():
    with pytest.raises(ValueError):
        UniSeries([1, 2]).coefficient(2)


def test_exp_of_zero():
    assert UniSeries([], order=4).exp() == UniSeries.one(4)


def test_exp_of_x():
    assert UniSeries.x(4).exp().coeffs == (1, 1, F(1, 2), F(1, 6), F(1, 24))


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        UniSeries([1, 1]).exp()


def test_exp_of_exp_minus_one_gives_bell_numbers():
    order = 30
    inner = UniSeries([0] + [F(1, math.factorial(n)) for n in range(1, order + 1)])
    series = inner.exp()
    oracle = bell_triangle(order)
    for n in range(order + 1):
        assert series.egf_coefficient(n) == oracle[n]


def test_reciprocal_geometric():
    assert UniSeries([1, -1], order=3).reciprocal().coeffs == (1, 1, 1, 1)
    assert UniSeries([1, -2], order=2).reciprocal().coeffs == (1, 2, 4)


def test_reciprocal_round_trip():
    a = UniSeries([1, 3, 1], order=4)
    assert a.reciprocal().reciprocal() == a


def test_reciprocal_requires_nonzero_constant():
    with pytest.raises(ValueError):
        UniSeries([0, 1]).reciprocal()


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


@st.composite
def uni_series(draw, order=None, nonzero_constant=False):
    n = draw(st.integers(min_value=0, max_value=8)) if order is None else order
    coeffs = draw(st.lists(rationals, min_size=n + 1, max_size=n + 1))
    if nonzero_constant and coeffs[0] == 0:
        coeffs[0] = F(1)
    return UniSeries(coeffs)


@given(uni_series(order=6), uni_series(order=6))
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=100)
@given(uni_series(order=7, nonzero_constant=True))
def test_reciprocal_is_inverse(a):
    assert a * a.reciprocal() == UniSeries.one(7)


@given(uni_series(order=5), uni_series(order=5), uni_series(order=5))
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_all_coefficients_stay_exact():
    a = UniSeries([F(2, 3) ** n for n in range(6)])
    out = (a * a + a.scale(F(1, 7))).reciprocal()
    assert all(isinstance(c, Fraction) for c in out.coeffs)


# Schoolbook references: one Fraction operation per term, no shared
# denominator and no skipping of zero terms.


def schoolbook_mul(a, b):
    n = len(a) - 1
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def schoolbook_reciprocal(a):
    out = [1 / a[0]]
    for n in range(1, len(a)):
        acc = F(0)
        for j in range(1, n + 1):
            acc += a[j] * out[n - j]
        out.append(-out[0] * acc)
    return tuple(out)


def schoolbook_exp(a):
    # (n+1) b_(n+1) = sum_(i=0..n) (i+1) a_(i+1) b_(n-i)
    out = [F(1)]
    for n in range(len(a) - 1):
        acc = F(0)
        for i in range(n + 1):
            acc += (i + 1) * a[i + 1] * out[n - i]
        out.append(acc / (n + 1))
    return tuple(out)


# zeros are drawn often, so sparse and all-zero series come up
mixed_denominators = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
wide_rationals = st.one_of(st.just(F(0)), mixed_denominators)
dense_rationals = mixed_denominators.filter(bool)


@st.composite
def exact_pair(draw, elements=wide_rationals):
    n = draw(st.integers(min_value=0, max_value=10))
    a = draw(st.lists(elements, min_size=n + 1, max_size=n + 1))
    b = draw(st.lists(elements, min_size=n + 1, max_size=n + 1))
    return a, b


def assert_exact(series, reference):
    assert series.coeffs == reference
    assert all(type(c) is Fraction for c in series.coeffs)


@settings(max_examples=50)
@given(exact_pair())
def test_mul_matches_schoolbook(pair):
    a, b = pair
    assert_exact(UniSeries(a) * UniSeries(b), schoolbook_mul(a, b))


@settings(max_examples=50)
@given(exact_pair())
def test_reciprocal_matches_schoolbook(pair):
    a, _ = pair
    a[0] = a[0] or F(-3, 7)
    assert_exact(UniSeries(a).reciprocal(), schoolbook_reciprocal(a))


@settings(max_examples=50)
@given(exact_pair())
def test_exp_matches_schoolbook(pair):
    a, _ = pair
    a[0] = F(0)
    assert_exact(UniSeries(a).exp(), schoolbook_exp(a))


@settings(max_examples=50)
@given(exact_pair(dense_rationals))
def test_exp_of_dense_series_matches_schoolbook(pair):
    a, _ = pair
    a[0] = F(0)
    assert_exact(UniSeries(a).exp(), schoolbook_exp(a))


@pytest.mark.parametrize("order", [0, 1, 5])
def test_kernels_on_zero_and_order_zero_series(order):
    zero = [F(0)] * (order + 1)
    other = [F(-7, 3)] + [F(5, 2 + j) for j in range(order)]
    assert_exact(UniSeries(zero) * UniSeries(other), schoolbook_mul(zero, other))
    assert_exact(UniSeries(other) * UniSeries(other), schoolbook_mul(other, other))
    assert_exact(UniSeries(zero).exp(), schoolbook_exp(zero))
    assert_exact(UniSeries(other).reciprocal(), schoolbook_reciprocal(other))


# ---------------------------------------------------------------------------
# BiSeries
# ---------------------------------------------------------------------------

# Schoolbook reference for BiSeries products: series as {(n, s): c} maps,
# one int operation per pair of terms, truncated at x^order.


def schoolbook_bimul(a, b, order):
    out = {}
    for (n1, s1), c1 in a.items():
        for (n2, s2), c2 in b.items():
            if n1 + n2 <= order:
                key = (n1 + n2, s1 + s2)
                out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def as_map(series):
    return {(n, s): c for n, s, c in series.terms()}


def from_map(terms, order):
    return BiSeries.from_terms(((n, s, c) for (n, s), c in terms.items()), order)


def test_bi_monomial_product():
    a = BiSeries.from_terms([(1, 1, 1)], 3)  # x q
    b = BiSeries.geometric(0, 2, 5, 3)  # x q^2 / (1 - 0) = x q^2
    assert a * b == b * a == BiSeries.from_terms([(2, 3, 1)], 3)
    assert as_map(a * b) == schoolbook_bimul(as_map(a), as_map(b), 3)


def test_bi_mul_identity():
    for args in ((1, 0, 0), (2, 3, 1), (-3, 1, 4), (0, 2, 5)):
        g = BiSeries.geometric(*args, 4)
        assert BiSeries.one(4) * g == g


def test_bi_mul_geometric_factors():
    # (x q^3 / (1 - x q^2)) * (x q^2 / (1 - 2x)): coefficient of x^3 is q^7 + 2 q^5
    a = BiSeries.geometric(1, 3, 2, 3)
    b = BiSeries.geometric(2, 2, 0, 3)
    assert (a * b).q_coefficients(3) == {7: 1, 5: 2}
    assert as_map(a * b) == schoolbook_bimul(as_map(a), as_map(b), 3)


def test_bi_substitute():
    assert BiSeries.from_terms([(1, 1, 1)], 4).substitute_x_qpow(2) == BiSeries.from_terms(
        [(1, 3, 1)], 4
    )
    a = BiSeries.from_terms([(1, 2, 3), (2, 5, -1)], order=4)
    assert a.substitute_x_qpow(0) == a
    assert BiSeries.from_terms([(2, 5, 1)], 4).substitute_x_qpow(3) == BiSeries.from_terms(
        [(2, 11, 1)], 4
    )


def test_bi_q_weighted_sum():
    assert BiSeries.from_terms([(1, 1, 1)], 2).q_weighted_sum() == (0, 1, 0)
    assert BiSeries.from_terms([(2, 5, 1)], 2).q_weighted_sum() == (0, 0, 5)


def test_bi_rejects_nonint_coefficients():
    for bad in (F(1, 2), 1.0, True):
        with pytest.raises(TypeError):
            BiSeries.from_terms([(0, 0, bad)], 0)


def test_bi_drops_zero_coefficients():
    a = BiSeries.from_terms([(1, 2, 1), (1, 2, -1), (1, 3, 4)], order=2)
    assert a.q_coefficients(1) == {3: 4}


def test_bi_order_mismatch_rejected():
    with pytest.raises(ValueError):
        BiSeries.one(2) * BiSeries.one(3)
    with pytest.raises(ValueError):
        BiSeries.one(2) * BiSeries.geometric(1, 0, 0, 3)


def test_bi_product_needs_a_geometric_factor():
    x = BiSeries.from_terms([(0, 0, 1), (1, 2, -3)], 3)
    g = BiSeries.geometric(2, 1, 1, 3)
    for a, b in ((x, x), (BiSeries.one(3), x), (x * g, x), (g * x, g * g)):
        with pytest.raises(TypeError):
            a * b
    with pytest.raises(TypeError):
        x * 2


@st.composite
def bi_series(draw, order=4):
    n_terms = draw(st.integers(min_value=0, max_value=6))
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=order),
                st.integers(min_value=0, max_value=10),
                st.integers(min_value=-5, max_value=5),
            ),
            min_size=n_terms,
            max_size=n_terms,
        )
    )
    return BiSeries.from_terms(terms, order)


# ---------------------------------------------------------------------------
# closed-form geometric factors
# ---------------------------------------------------------------------------


def geometric_terms(c, qbase, qstep, order):
    return [(j + 1, qbase + j * qstep, c**j) for j in range(order)]


def plain_geometric(c, qbase, qstep, order):
    """The same rows through ``from_terms``, so they carry no factor."""
    return BiSeries.from_terms(geometric_terms(c, qbase, qstep, order), order)


def test_bi_geometric_rows():
    g = BiSeries.geometric(2, 3, 1, 4)
    assert list(g.terms()) == [(1, 3, 1), (2, 4, 2), (3, 5, 4), (4, 6, 8)]
    assert g == plain_geometric(2, 3, 1, 4)
    assert BiSeries.geometric(-3, 0, 0, 3) == plain_geometric(-3, 0, 0, 3)
    assert BiSeries.geometric(0, 2, 5, 3) == BiSeries.from_terms([(1, 2, 1)], 3)
    assert BiSeries.geometric(4, 1, 1, 0) == BiSeries.from_terms([], 0)


@pytest.mark.parametrize(
    "args, error",
    [
        ((1, -1, 0, 3), ValueError),
        ((1, 0, -1, 3), ValueError),
        ((1, 0, 0, -1), ValueError),
        ((F(1, 2), 0, 0, 3), TypeError),
        ((1.0, 0, 0, 3), TypeError),
        ((True, 0, 0, 3), TypeError),
        ((1, 0.0, 0, 3), TypeError),
        ((1, 0, F(1), 3), TypeError),
    ],
)
def test_bi_geometric_rejects_bad_arguments(args, error):
    with pytest.raises(error):
        BiSeries.geometric(*args)


geometric_args = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)


@given(st.data(), geometric_args)
def test_bi_mul_geometric_matches_convolution(data, args):
    order = data.draw(st.integers(min_value=0, max_value=5))
    x = data.draw(bi_series(order=order))
    factor = BiSeries.geometric(*args, order)
    expected = schoolbook_bimul(as_map(x), as_map(factor), order)
    assert as_map(x * factor) == expected
    assert as_map(factor * x) == expected


@given(st.integers(min_value=0, max_value=5), geometric_args, geometric_args)
def test_bi_mul_two_geometric_factors(order, f, g):
    a, b = BiSeries.geometric(*f, order), BiSeries.geometric(*g, order)
    expected = schoolbook_bimul(as_map(a), as_map(b), order)
    assert as_map(a * b) == expected
    assert as_map(b * a) == expected


@given(st.data(), geometric_args, geometric_args)
def test_bi_geometric_products_associate(data, f, g):
    order = data.draw(st.integers(min_value=0, max_value=5))
    x = data.draw(bi_series(order=order))
    gf, gg = BiSeries.geometric(*f, order), BiSeries.geometric(*g, order)
    expected = schoolbook_bimul(
        schoolbook_bimul(as_map(x), as_map(gf), order), as_map(gg), order
    )
    assert (x * gf) * gg == (x * gg) * gf == from_map(expected, order)


@given(st.data(), geometric_args)
def test_bi_geometric_product_commutes(data, f):
    order = data.draw(st.integers(min_value=0, max_value=5))
    x = data.draw(bi_series(order=order))
    g = BiSeries.geometric(*f, order)
    assert x * g == g * x


# ---------------------------------------------------------------------------
# canonical rows: outside input is checked, kernel rows need no check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rows, order, error",
    [
        ({0: {0: True}}, None, TypeError),
        ({0: {0.5: 1}}, None, TypeError),
        ({0: {True: 1}}, None, TypeError),
        ({0: {-1: 1}}, None, ValueError),
        ({}, -1, ValueError),
        ({True: {0: 1}}, 3, TypeError),
        ({1.0: {0: 1}}, 3, TypeError),
        ({5.0: {0: 1}}, 3, TypeError),
        ({-1: {0: 1}}, 3, ValueError),
        ({5: {-1: 1}}, 3, ValueError),
    ],
)
def test_bi_rejects_outside_input(rows, order, error):
    # rows maps x-power -> {q-power: coefficient}; order None truncates at
    # the largest x-power
    terms = [(n, s, c) for n, row in rows.items() for s, c in row.items()]
    with pytest.raises(error):
        BiSeries.from_terms(terms, max(rows, default=0) if order is None else order)


def rebuilt(series):
    """The same series through the validating constructor."""
    return BiSeries.from_terms(series.terms(), series.order)


def test_bi_rows_cancelling_to_zero_are_canonical():
    # (1 - x q) * x / (1 - x q): every row past x^1 cancels
    x = BiSeries.from_terms([(0, 0, 1), (1, 1, -1)], 3)
    product = x * BiSeries.geometric(1, 0, 1, 3)
    assert product == rebuilt(product) == BiSeries.from_terms([(1, 0, 1)], 3)


@given(st.data(), geometric_args, st.integers(min_value=0, max_value=4))
def test_bi_kernel_rows_are_canonical(data, args, k):
    # Equality compares stored rows, so a kernel row with a zero at either
    # end, or a zero row not stored as the shared empty row, differs from
    # the row the validating constructor builds for the same coefficients.
    order = data.draw(st.integers(min_value=0, max_value=5))
    x = data.draw(bi_series(order=order))
    c, _, qstep = args
    factor = BiSeries.geometric(*args, order)
    # x (1 - c x q^qstep), built by the reference: its products with the
    # factor cancel, at row ends and often to zero rows
    cancelling = from_map(
        schoolbook_bimul(as_map(x), {(0, 0): 1, (1, qstep): -c}, order), order
    )
    for series in (
        factor,
        x * factor,
        factor * x,
        cancelling * factor,
        factor * cancelling,
        x.substitute_x_qpow(k),
    ):
        assert series == rebuilt(series)
