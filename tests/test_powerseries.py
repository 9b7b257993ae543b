"""Exact series arithmetic: frozen examples plus algebraic property tests."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_records import BiSeries, UniSeries
from partition_records.powerseries import GeometricFactor

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
    a = UniSeries([1, 1, 0, 0])
    b = UniSeries([1, -1, 0, 0])
    assert a * b == UniSeries([1, 0, -1, 0])


def test_mul_identity():
    s = UniSeries([2, F(1, 3), 0, 5])
    assert s * UniSeries([1, 0, 0, 0]) == s


def test_mul_geometric_squared():
    # hand convolution of (1 + x + x^2 + x^3)^2
    g = UniSeries([1, 1, 1, 1])
    assert (g * g).coeffs == (1, 2, 3, 4)


def test_order_is_the_length_of_the_list_less_one():
    assert UniSeries([5]).order == 0
    assert UniSeries([1, 0, 0]).order == 2
    with pytest.raises(ValueError):
        UniSeries([])


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        UniSeries([1, 0, 0]) * UniSeries([1, 0, 0, 0])


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        UniSeries([1.5, 2])
    with pytest.raises(TypeError):
        UniSeries([1, 0.5])


def test_bool_coefficients_rejected():
    with pytest.raises(TypeError):
        UniSeries([True, 0])
    with pytest.raises(TypeError):
        UniSeries([1, True])


@pytest.mark.parametrize(
    "args, error",
    [
        (([True, 0], 1), TypeError),
        (([1, 2.0], 1), TypeError),
        (([1, F(1, 2)], 1), TypeError),
        (([1, F(2)], 1), TypeError),
        (([1, 2], True), TypeError),
        (([1, 2], 2.0), TypeError),
        (([1, 2], F(2)), TypeError),
        (([1, 2], 0), ValueError),
        (([1, 2], -3), ValueError),
        (([], 1), ValueError),
    ],
)
def test_from_numerators_rejects_bad_arguments(args, error):
    with pytest.raises(error):
        UniSeries.from_numerators(*args)


def test_from_numerators_is_the_factorial_basis():
    # [x^i] = nums[i] / (i! den), kept as given; equality compares values
    s = UniSeries.from_numerators([3, -4, 6, 0], 2)
    assert s.numerators() == ((3, -4, 6, 0), 2)
    assert s.coeffs == (F(3, 2), -2, F(3, 2), 0)
    assert s.egf_coefficient(2) == 3 and s.coefficient(2) == F(3, 2)
    assert s == UniSeries(s.coeffs) == UniSeries.from_numerators([6, -8, 12, 0], 4)
    assert s != UniSeries.from_numerators([3, -4, 6, 1], 2)
    assert s != UniSeries.from_numerators([3, -4, 6], 2)


def test_reading_past_order_rejected():
    with pytest.raises(ValueError):
        UniSeries([1, 2]).coefficient(2)


def test_exp_of_zero():
    assert UniSeries([0, 0, 0, 0, 0]).exp() == UniSeries([1, 0, 0, 0, 0])


def test_exp_of_x():
    assert UniSeries([0, 1, 0, 0, 0]).exp().coeffs == (1, 1, F(1, 2), F(1, 6), F(1, 24))


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
    assert UniSeries([1, -1, 0, 0]).reciprocal().coeffs == (1, 1, 1, 1)
    assert UniSeries([1, -2, 0]).reciprocal().coeffs == (1, 2, 4)


def test_reciprocal_round_trip():
    a = UniSeries([1, 3, 1, 0, 0])
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
    assert a * a.reciprocal() == UniSeries([1, 0, 0, 0, 0, 0, 0, 0])


@given(uni_series(order=5), uni_series(order=5), uni_series(order=5))
def test_mul_distributes_over_add(a, b, c):
    def plus(s, t):
        return UniSeries([u + v for u, v in zip(s.coeffs, t.coeffs)])

    assert a * plus(b, c) == plus(a * b, a * c)


def test_all_coefficients_stay_exact():
    a = UniSeries([F(2, 3) ** n for n in range(6)])
    out = UniSeries([p + q / 7 for p, q in zip((a * a).coeffs, a.coeffs)]).reciprocal()
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


@st.composite
def egf_pair(draw):
    """Two series shaped like the EGFs the product serves: coefficient i
    is p_i / (c i!) with one small c per series."""
    n = draw(st.integers(min_value=0, max_value=30))

    def series():
        c = draw(st.integers(min_value=1, max_value=12))
        ps = draw(st.lists(st.integers(-(10**6), 10**6), min_size=n + 1, max_size=n + 1))
        return [F(p, c * math.factorial(i)) for i, p in enumerate(ps)]

    return series(), series()


@settings(max_examples=50)
@given(egf_pair())
def test_mul_of_egf_shaped_series_matches_schoolbook(pair):
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


def geometric_terms(c, qbase, qstep, order):
    return [(j + 1, qbase + j * qstep, c**j) for j in range(order)]


def factor_map(args, order):
    """The factor's expansion through x^order: the reference for its rows."""
    return {(n, s): c for n, s, c in geometric_terms(*args, order) if c}


def monomial(qpowers, order):
    """x^len(qpowers) q^sum(qpowers) through x^order, one factor x q^a per entry."""
    series = BiSeries.one(order)
    for a in qpowers:
        series = series * BiSeries.geometric(0, a, 0)
    return series.truncate(order)


def test_bi_monomial_product():
    a = monomial([1], 3)  # x q
    b = BiSeries.geometric(0, 2, 5)  # x q^2 / (1 - 0) = x q^2
    assert (a * b).order == 4 and list((a * b).terms()) == [(2, 3, 1)]
    assert as_map(a * b) == schoolbook_bimul(as_map(a), factor_map((0, 2, 5), 4), 4)


def test_bi_mul_identity():
    # one * factor is the factor's expansion, at every order, one order
    # further than the series: the factor's x makes that row exact
    for args in ((1, 0, 0), (2, 3, 1), (-3, 1, 4), (0, 2, 5)):
        for order in range(5):
            product = BiSeries.one(order) * BiSeries.geometric(*args)
            assert product.order == order + 1
            assert as_map(product) == factor_map(args, order + 1)


def test_bi_one_rejects_negative_order():
    assert list(BiSeries.one(0).terms()) == [(0, 0, 1)]
    with pytest.raises(ValueError):
        BiSeries.one(-1)


def test_bi_mul_geometric_factors():
    # (x q^3 / (1 - x q^2)) * (x q^2 / (1 - 2x)): coefficient of x^3 is q^7 + 2 q^5
    a = BiSeries.one(2) * BiSeries.geometric(1, 3, 2)
    ab = a * BiSeries.geometric(2, 2, 0)
    assert ab.order == 4 and ab.q_coefficients(3) == {7: 1, 5: 2}
    assert as_map(ab) == schoolbook_bimul(as_map(a), factor_map((2, 2, 0), 4), 4)


def test_bi_substitute():
    assert list(monomial([1], 4).substitute_x_qpow(2).terms()) == [(1, 3, 1)]
    # x q^2 + 3 x^2 q^5 + 9 x^3 q^8 + 27 x^4 q^11
    a = BiSeries.one(3) * BiSeries.geometric(3, 2, 3)
    assert a.substitute_x_qpow(0) == a
    assert list(a.substitute_x_qpow(1).terms()) == [(1, 3, 1), (2, 7, 3), (3, 11, 9), (4, 15, 27)]
    assert list(monomial([0, 5], 4).substitute_x_qpow(3).terms()) == [(2, 11, 1)]


def test_bi_q_weighted_sum():
    assert monomial([1], 2).q_weighted_sum() == (0, 1, 0)
    assert monomial([0, 5], 2).q_weighted_sum() == (0, 0, 5)


def test_bi_product_needs_a_geometric_factor():
    # series * factor is the only product; a bare (c, qbase, qstep) is no factor
    x = BiSeries.one(3) * BiSeries.geometric(-3, 2, 1)
    f = BiSeries.geometric(2, 1, 1)
    for a, b in ((f, 2), (f, x), (f, f), (x, x), (x * f, x), (x, (2, 1, 1)), (x, 2), (2, x)):
        with pytest.raises(TypeError):
            a * b


geometric_args = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)


@st.composite
def bi_series(draw, order=4):
    """A series the class can hold: 1, times 0-3 factors, with an optional
    substitution x -> x q^k before any one of them or after the last."""
    factors = draw(st.lists(geometric_args, max_size=3))
    substitute = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
    at = draw(st.integers(min_value=0, max_value=len(factors)))
    series = BiSeries.one(order)
    for i, args in enumerate([*factors, None]):
        if i == at and substitute is not None:
            series = series.substitute_x_qpow(substitute)
        if args is not None:
            series = series * BiSeries.geometric(*args)
    return series.truncate(order)


# ---------------------------------------------------------------------------
# closed-form geometric factors
# ---------------------------------------------------------------------------


def test_bi_geometric_rows():
    one = BiSeries.one
    assert list((one(3) * BiSeries.geometric(2, 3, 1)).terms()) == [
        (1, 3, 1),
        (2, 4, 2),
        (3, 5, 4),
        (4, 6, 8),
    ]
    assert list((one(3) * BiSeries.geometric(0, 2, 5)).terms()) == [(1, 2, 1)]
    product = one(0) * BiSeries.geometric(4, 1, 1)
    assert product.order == 1 and list(product.terms()) == [(1, 1, 1)]
    assert list(product.truncate(0).terms()) == []


def test_bi_geometric_factor_is_a_frozen_triple():
    f = BiSeries.geometric(2, 3, 1)
    assert f == GeometricFactor(2, 3, 1) and hash(f) == hash(GeometricFactor(2, 3, 1))
    assert not hasattr(f, "__dict__") and not hasattr(f, "order")
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.c = 3


@pytest.mark.parametrize(
    "args, error",
    [
        ((1, -1, 0), ValueError),
        ((1, 0, -1), ValueError),
        ((2, -3, -1), ValueError),
        ((F(1, 2), 0, 0), TypeError),
        ((1.0, 0, 0), TypeError),
        ((True, 0, 0), TypeError),
        ((1, 0.0, 0), TypeError),
        ((1, 0, F(1)), TypeError),
    ],
)
def test_bi_geometric_rejects_bad_arguments(args, error):
    with pytest.raises(error):
        BiSeries.geometric(*args)


@given(st.data(), geometric_args)
def test_bi_mul_geometric_matches_convolution(data, args):
    # series * factor is exact through x^(order + 1): the factor's x means
    # that row reads the series only through x^order
    order = data.draw(st.integers(min_value=0, max_value=5))
    x = data.draw(bi_series(order=order))
    expected = schoolbook_bimul(as_map(x), factor_map(args, order + 1), order + 1)
    product = x * BiSeries.geometric(*args)
    assert product.order == order + 1
    assert as_map(product) == expected


@given(st.integers(min_value=0, max_value=5), geometric_args, geometric_args)
def test_bi_mul_two_geometric_factors(order, f, g):
    one, a, b = BiSeries.one(order), BiSeries.geometric(*f), BiSeries.geometric(*g)
    expected = schoolbook_bimul(factor_map(f, order + 2), factor_map(g, order + 2), order + 2)
    assert as_map(one * a * b) == expected
    assert as_map(one * b * a) == expected


@given(st.data(), geometric_args, geometric_args)
def test_bi_geometric_products_associate(data, f, g):
    order = data.draw(st.integers(min_value=0, max_value=5))
    x = data.draw(bi_series(order=order))
    gf, gg = BiSeries.geometric(*f), BiSeries.geometric(*g)
    expected = schoolbook_bimul(
        schoolbook_bimul(as_map(x), factor_map(f, order + 1), order + 1),
        factor_map(g, order + 2),
        order + 2,
    )
    assert (x * gf) * gg == (x * gg) * gf
    assert as_map((x * gf) * gg) == expected


def test_bi_truncate_keeps_the_low_rows():
    a = BiSeries.one(4) * BiSeries.geometric(3, 2, 3)  # through x^5
    assert a.truncate(5) is a
    for order in range(6):
        kept = a.truncate(order)
        assert kept.order == order
        assert list(kept.terms()) == [t for t in a.terms() if t[0] <= order]


@pytest.mark.parametrize("order", [-1, 6])
def test_bi_truncate_rejects_orders_outside_the_series(order):
    a = BiSeries.one(4) * BiSeries.geometric(3, 2, 3)  # through x^5
    with pytest.raises(ValueError, match="outside 0..5"):
        a.truncate(order)


# ---------------------------------------------------------------------------
# canonical rows: one, products and substitutions build them, and nothing
# re-canonicalises a row
# ---------------------------------------------------------------------------


def assert_canonical_rows(series):
    # each row is the zero row (0, ()), or (lo, cs) with lo >= 0 and no
    # zero at either end of cs
    for lo, cs in series._rows:
        assert (lo, cs) == (0, ()) or (lo >= 0 and cs[0] and cs[-1]), (lo, cs)


def test_bi_rows_cancelling_to_zero_are_canonical():
    # x / (1 - x) * x / (1 + x) = x^2 / (1 - x^2): the x^3 row cancels to zero
    product = BiSeries.one(1) * BiSeries.geometric(1, 0, 0) * BiSeries.geometric(-1, 0, 0)
    assert product.order == 3 and list(product.terms()) == [(2, 0, 1)]
    assert product._rows[3] == (0, ())
    assert_canonical_rows(product)


@given(st.data(), geometric_args, st.integers(min_value=0, max_value=4))
def test_bi_kernel_rows_are_canonical(data, args, k):
    # Equality compares stored rows, so a kernel row with a zero at either
    # end, or a zero row not stored as (0, ()), would make equal series
    # unequal.
    order = data.draw(st.integers(min_value=0, max_value=5))
    x = data.draw(bi_series(order=order))
    c, _, qstep = args
    factor = BiSeries.geometric(*args)
    # x * x / (1 + c x q^qstep) * factor: the two factors cancel in every
    # other term, at row ends and often to zero rows
    cancelling = x * BiSeries.geometric(-c, 0, qstep)
    for series in (
        BiSeries.one(order),
        BiSeries.one(order) * factor,
        x,
        x * factor,
        cancelling * factor,
        x.substitute_x_qpow(k),
    ):
        assert_canonical_rows(series)
