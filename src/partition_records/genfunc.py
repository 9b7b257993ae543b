"""Generating functions for the weighted-record statistic on set partitions.

Let G_k(x, q) track partitions with exactly k blocks: the coefficient of
x^n q^s counts words in P_{n,k} with swrec = s.  Two independent
constructions are provided:

``gf_product``
    the closed product over block indices i = 1..k of

        x * q^(i + (k+1-i)(k-i)) / (1 - i*x*q^(T_i)),   T_i = (i+1) + ... + k,

    with each factor a ``BiSeries.geometric`` series;

``gf_recurrence``
    iterating G_k(x,q) = x q^k / (1 - k x) * G_{k-1}(x q^k, q) from
    G_1(x,q) = x q / (1 - x), or taking that one step from a given G_{k-1}.

Built from scratch, both multiply k factors, and every product has a
geometric factor, so each runs the O(order) recurrence of
``BiSeries.geometric``, the only ``BiSeries`` product (see ``powerseries``).  The two constructions check
each other (the ``recurrence`` suite), and the enumeration histograms of
the ``eq1`` suite check the product form independently.

Differentiating with respect to q and setting q = 1 turns G_k into the
ordinary generating function of the per-size swrec totals.  Its
denominators are products of (1 - i x), so ``total_swrec_series`` gets
the coefficients in ints, dividing by each factor with a_n += i a_(n-1).
Its x -> 1/y transform has only double poles at y = 1..k and decomposes
into partial fractions with explicit coefficient families (``partial_fraction_coeffs``).
``pole_expansion_coeffs`` recovers the same coefficients by an exact
two-term Taylor expansion at each pole, independent of those explicit
formulas, so either side can catch a transcription error in the other.
``total_swrec_rational`` and ``partial_fraction_eval`` each sum integer
numerators over an unreduced common denominator and reduce once at the
end; they share no code, so each stays the other's oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .powerseries import BiSeries, Rational, UniSeries


# Caps of k and order for every product a caller can ask for (``gf`` and the
# recurrence and lemma2 suites); the slowest cases, run_recurrence(30, 60)
# and run_lemma2(30, 60), each take about 5.5-7.5 s on a 2-CPU host with
# Python 3.11, most of it in gf_product.
GF_MAX_K = 30
GF_MAX_N = 60


def gf_product(k: int, order: int) -> BiSeries:
    """G_k(x, q) built from the k-factor product, truncated at x^order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    result = BiSeries.one(order)
    for i in range(1, k + 1):
        base = i + (k + 1 - i) * (k - i)  # q-power carried by the record itself
        step = sum(range(i + 1, k + 1))  # q-power per extra letter from 1/(1 - i x q^step)
        result = result * BiSeries.geometric(i, base, step, order)
    return result


def gf_recurrence(k: int, order: int, below: BiSeries | None = None) -> BiSeries:
    """G_k(x, q) built by the block recurrence.

    Given ``below`` = G_(k-1) at the same order (k >= 2), this takes the one
    step G_k = x q^k / (1 - k x) * G_(k-1)(x q^k, q); without it, it iterates
    that step from G_1 = x q / (1 - x).  A caller that needs G_1..G_K builds
    them as one chain by passing each result to the next call.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if below is None:
        g, first = BiSeries.geometric(1, 1, 0, order), 2  # G_1 = x q / (1 - x)
    elif k == 1:
        raise ValueError("G_1 has no G_0 to step from")
    elif below.order != order:
        raise ValueError(f"below has order {below.order}, not {order}")
    else:
        g, first = below, k
    for kk in range(first, k + 1):
        front = BiSeries.geometric(kk, kk, 0, order)  # x q^kk / (1 - kk x)
        g = front * g.substitute_x_qpow(kk)
    return g


@functools.cache
def _lemma2_weights(k: int) -> tuple[int, dict[int, int]]:
    """Lemma 2's integer weights for k blocks: C_k = k(k+1)(2k+1)/6 and
    d_i = i(1+k+i)(k-i)/2 for i = 1..k (i(1+k+i)(k-i) is always even).
    Cached, as ``propn`` evaluates each k at many points; callers only read it."""
    d = {i: i * (1 + k + i) * (k - i) // 2 for i in range(1, k + 1)}
    return k * (k + 1) * (2 * k + 1) // 6, d


def _divide_by(cs: list[int], i: int) -> list[int]:
    """Divide the series cs by (1 - i x) in place: a_n += i a_(n-1)."""
    for n in range(1, len(cs)):
        cs[n] += i * cs[n - 1]
    return cs


def total_swrec_series(k: int, order: int) -> tuple[int, ...]:
    """[x^0..x^order] of the ordinary generating function of sum(swrec over P_{n,k}).

    Equals d/dq G_k(x,q) at q = 1, with the weights of ``_lemma2_weights``:

        x^k / ((1-x)...(1-kx)) * (C_k + sum_i d_i x / (1-ix))
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    base = ([0] * k + [1] + [0] * order)[: order + 1]
    for i in range(1, k + 1):
        _divide_by(base, i)  # base = x^k / ((1-x)...(1-kx))
    head, d = _lemma2_weights(k)
    totals = [head * b for b in base]
    for i, d_i in d.items():
        term = _divide_by([0] + base[:-1], i)  # x * base / (1 - i x)
        totals = [t + d_i * v for t, v in zip(totals, term)]
    return tuple(totals)


def total_swrec_rational(k: int, y: Rational) -> Fraction:
    """The same per-k total generating function, with the weights of
    ``_lemma2_weights``, transformed by x -> 1/y and evaluated exactly at
    the rational point y (poles 1..k are rejected):

        prod_i (y-i)^(-1) * ( C_k + sum_i d_i / (y-i) )
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    y = Fraction(y)
    if y.denominator == 1 and 1 <= y.numerator <= k:
        raise ValueError(f"y={y} is a pole (integers 1..{k} are excluded)")
    # With y = p/d, y - i = (p - i d)/d.  The bracket is kept as an
    # unnormalised integer ratio num/den with den = prod_i (p - i d), so the
    # product prod_i (y - i) = den / d^k and one Fraction is built at the end.
    p, d = y.numerator, y.denominator
    num, weights = _lemma2_weights(k)
    den = 1
    for i, d_i in weights.items():
        q = p - i * d
        num = num * q + d_i * d * den
        den *= q
    return Fraction(num * d**k, den * den)


@dataclass(frozen=True)
class PartialFractionDecomposition:
    """Coefficients of sum_m [ a_m/(y-m)^2 + b_m/(y-m) ] for fixed k, stored
    as integer numerators over one common denominator:
    a_m = a_num[m] / denominator and b_m = b_num[m] / denominator."""

    k: int
    denominator: int
    a_num: Mapping[int, int]
    b_num: Mapping[int, int]

    @property
    def a(self) -> dict[int, Fraction]:
        return {m: Fraction(v, self.denominator) for m, v in self.a_num.items()}

    @property
    def b(self) -> dict[int, Fraction]:
        return {m: Fraction(v, self.denominator) for m, v in self.b_num.items()}


def partial_fraction_coeffs(k: int) -> PartialFractionDecomposition:
    """The explicit coefficient families of the decomposition:

        a_m = (-1)^(k-m) m (1+k+m) (k-m) / (2 (m-1)! (k-m)!)
        b_m = (-1)^(k-m) (k^2 (m/4+1) + k (m^2/2 + 3m/4 + 1)
                          - (3 m^2/2 + m)) / ((m-1)! (k-m)!)

    Note a_k = 0 always (the k-m factor vanishes).  Each (m-1)! (k-m)!
    divides (k-1)!, so over the common denominator 4 (k-1)! both are
    integers times the binomial C(k-1, m-1) = (k-1)! / ((m-1)! (k-m)!).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a_num: dict[int, int] = {}
    b_num: dict[int, int] = {}
    for m in range(1, k + 1):
        scale = (-1 if (k - m) % 2 else 1) * math.comb(k - 1, m - 1)
        a_num[m] = scale * 2 * m * (1 + k + m) * (k - m)
        b_num[m] = scale * (k * k * (m + 4) + k * (2 * m * m + 3 * m + 4) - (6 * m * m + 4 * m))
    return PartialFractionDecomposition(k, 4 * math.factorial(k - 1), a_num, b_num)


def partial_fraction_eval(d: PartialFractionDecomposition, y: Rational) -> Fraction:
    """Evaluate the decomposition at a non-pole rational point y.

    With y = p/e, y - m = q_m/e for q_m = p - m e, and with a_m = A_m/D and
    b_m = B_m/D (D = ``d.denominator``),

        a_m/(y-m)^2 + b_m/(y-m) = e (A_m e + B_m q_m) / (D q_m^2).

    The terms are summed as integers over the running product of the q_m^2,
    and one Fraction is built at the end.
    """
    y = Fraction(y)
    if y.denominator == 1 and 1 <= y.numerator <= d.k:
        raise ValueError(f"y={y} is a pole (integers 1..{d.k} are excluded)")
    p, e = y.numerator, y.denominator
    num, den = 0, 1
    for m in range(1, d.k + 1):
        q = p - m * e
        q2 = q * q
        num = num * q2 + (d.a_num[m] * e + d.b_num[m] * q) * den
        den *= q2
    return Fraction(num * e, den * d.denominator)


def pole_expansion_coeffs(k: int, m: int) -> tuple[Fraction, Fraction]:
    """(a_m, b_m) recovered from the rational function itself.

    Writes y = m + t, multiplies out the double pole, and expands

        G(t) = t^2 * R_k(m+t)
             = prod_{i != m} (m-i+t)^(-1)
               * ( C t + d_m + sum_{i != m} d_i * t / (m-i+t) )

    with C = C_k and d_i the weights of ``_lemma2_weights``, as an exact
    rational series in t.  Then a_m = G(0) and b_m = G'(0): the first two
    Taylor coefficients.  No use is made of the explicit formulas in
    ``partial_fraction_coeffs``, so the two can cross-check each other.
    """
    if not 1 <= m <= k:
        raise ValueError("m must be in 1..k")
    big_c, d = _lemma2_weights(k)
    # a and b need every factor through t^1 only; the t-term of
    # d_i t/(m-i+t) is d_i [t^0] 1/(m-i+t)
    recs = {i: UniSeries([m - i, 1]).reciprocal() for i in d if i != m}
    g = UniSeries([d[m], big_c + sum(d[i] * rec.coefficient(0) for i, rec in recs.items())])
    for rec in recs.values():
        g = g * rec
    return g.coefficient(0), g.coefficient(1)
