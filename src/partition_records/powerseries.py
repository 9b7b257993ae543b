"""Exact truncated power-series arithmetic.

Two representations are provided:

``UniSeries``
    A power series in one variable x, truncated at a fixed order N
    (terms x^0 .. x^N are kept), for series that really are rational: the
    EGF W(x) and the Taylor expansions at the poles of the per-k totals.
    It is stored in the factorial basis its kernels compute in: N+1
    integer numerators a_i over one denominator d >= 1, [x^i] = a_i / (i! d),
    never reduced.  It is built from the full coefficient list (which
    finds the a_i and the least such d) or from the integers themselves
    (``from_numerators``, which checks them), and read through ``order``,
    ``numerators`` and, one reduced ``Fraction`` per value read,
    ``coeffs``, ``coefficient`` and ``egf_coefficient``; equality
    compares values.  It has three kernels: ``*``, ``exp`` and
    ``reciprocal``.  ``perfbench`` traces all three, so they stay until
    ROADMAP item 4 moves the class and its spans in one change.  A
    product (same order only) convolves the numerators binomially, as
    exponential generating functions multiply:

        m! d_a d_b [x^m] = sum_i C(m, i) a_i b_(m-i),

    with C(m, i) read from a Pascal row updated once per m, and keeps each
    sum over d_a d_b: no gcd and no ``Fraction`` per coefficient.  On an
    EGF such as sum B_n x^n / n! the a_i are the values B_i themselves,
    so a term costs their size, not that of the lcm of the n! (order!,
    about 3,770 bits at order 500).  ``exp`` works in the same basis: with
    [x^i] = alpha_i / (i! d) for its input, the integers
    beta_n = n! d^n [x^n] of its output obey

        beta_n = sum_(i=1..n) C(n-1, i-1) alpha_i d^(i-1) beta_(n-i),

    an integer sum over the nonzero alpha_i only, kept as beta_n d^(N-n)
    over d^N: O(order) steps of one term each for e^{cx} = exp(c x).
    ``reciprocal`` runs on the ``Fraction`` values: it scans its input
    once for its nonzero terms, and each step sums over those only.

``BiSeries``
    A power series in x whose coefficients are integer polynomials in a
    second variable q.  Truncation applies to x only; the q-degree is
    never truncated.  Storage is a tuple indexed by x-power of dense rows
    ``(lo, coeffs)``: q^lo * sum_j coeffs[j] q^j, with ``coeffs`` a tuple
    of ints trimmed of zeros at both ends, so every row has one form.
    Outside input enters only through the arguments of ``one`` and
    ``geometric``, which check them; products and substitutions build
    canonical rows, and no row is ever re-canonicalised.
    ``q_weighted_sum`` returns ints.

Geometric factors
    ``BiSeries.geometric(c, qbase, qstep)`` is the factor
    x q^qbase / (1 - c x q^qstep): a frozen value holding that triple,
    with no order and no rows.  ``series * factor`` is the only
    ``BiSeries`` product (G_k is a product of k such factors); it uses
    the recurrence

        row[n] = q^qbase * S[n-1] + c q^qstep * row[n-1],    row[0] = 0,

    which costs O(order * row terms): on dense rows each step is a shift
    of two rows and one elementwise sum.  Row n reads only S[n-1] and
    row n-1, so the product of a series through x^N is exact through
    x^(N+1), and it has one row more than the series.  ``truncate(order)``
    keeps rows x^0..x^order, so a product of k factors that is read
    through x^N starts from a series through x^(N-k) and builds no row
    that it drops.  Any other operand of ``*`` raises ``TypeError``.

Everything is exact: floating-point coefficients are rejected, and no
operation ever reads past the truncation order.  All values are
immutable after construction, so they can be shared freely between
threads or worker processes.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

Rational = Union[int, Fraction]


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, (float, bool)):
        raise TypeError("float and bool coefficients are not allowed in exact series")
    return Fraction(value)


def _over_factorial_basis(coeffs: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """Integers alphas and d with coeffs[i] == alphas[i] / (i! d), d the lcm
    of the denominators of coeffs[i] * i!."""
    scaled = []
    fact = 1
    for i, c in enumerate(coeffs):
        fact *= i or 1
        g = math.gcd(fact, c.denominator)
        scaled.append((c.numerator * (fact // g), c.denominator // g))
    d = math.lcm(*[q for _, q in scaled])
    return tuple([p * (d // q) for p, q in scaled]), d


def _nonzero_terms(coeffs: tuple[Fraction, ...]) -> list[tuple[int, Fraction]]:
    """The (index, coefficient) pairs of the nonzero coefficients, by index."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


class UniSeries:
    """Truncated univariate power series with exact rational coefficients,
    stored in the factorial basis: [x^i] = nums[i] / (i! den)."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Rational]):
        """The series c0 + c1 x + ... + cN x^N of ``coeffs`` = [c0, ..., cN]."""
        cs = tuple([_as_fraction(c) for c in coeffs])
        if not cs:
            raise ValueError("a series needs at least a constant term")
        self._nums, self._den = _over_factorial_basis(cs)

    @classmethod
    def from_numerators(cls, nums: Iterable[int], den: int) -> "UniSeries":
        """The series sum_i nums[i] x^i / (i! den), from plain ints with den >= 1."""
        nums = tuple(nums)
        if not all(type(v) is int for v in (*nums, den)):
            raise TypeError("numerators and denominator must be plain ints")
        if not nums or den < 1:
            raise ValueError("a series needs a constant term and a denominator >= 1")
        series = cls.__new__(cls)
        series._nums, series._den = nums, den
        return series

    # -- inspection ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def numerators(self) -> tuple[tuple[int, ...], int]:
        """(nums, den) as stored, with [x^i] = nums[i] / (i! den); not reduced."""
        return self._nums, self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        facts = itertools.accumulate(range(1, len(self._nums)), operator.mul, initial=self._den)
        return tuple(map(Fraction, self._nums, facts))

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of x^n; reading past the truncation order is an error."""
        return self.egf_coefficient(n) / math.factorial(n)

    def egf_coefficient(self, n: int) -> Fraction:
        """n! * [x^n], i.e. the value counted by an exponential generating function."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside truncation order {self.order}")
        return Fraction(self._nums[n], self._den)

    # -- kernels -------------------------------------------------------

    def __mul__(self, other: "UniSeries") -> "UniSeries":
        if not isinstance(other, UniSeries):
            return NotImplemented
        n = self.order
        if n != other.order:
            raise ValueError(f"series orders differ: {n} vs {other.order}")
        a, b = self._nums, other._nums[::-1]
        out = []
        pascal = [1]  # C(m, 0..m)
        for m in range(n + 1):
            # m! d_a d_b [x^m] = sum_i C(m, i) a_i b_(m-i)
            terms = map(operator.mul, a, b[n - m :])
            out.append(sum(map(operator.mul, pascal, terms)))
            pascal = list(map(operator.add, [0, *pascal], [*pascal, 0]))
        return UniSeries.from_numerators(out, self._den * other._den)

    def reciprocal(self) -> "UniSeries":
        """Multiplicative inverse through the truncation order.

        The constant term must be nonzero.
        """
        a = self.coeffs
        if a[0] == 0:
            raise ValueError("cannot invert a series with zero constant term")
        inv0 = 1 / a[0]
        terms = _nonzero_terms(a)[1:]
        out = [inv0]
        for n in range(1, self.order + 1):
            # b_n = -b_0 * sum_{j=1..n} a_j b_(n-j)
            out.append(-inv0 * sum([c * out[n - j] for j, c in terms if j <= n], Fraction(0)))
        return UniSeries(out)

    def exp(self) -> "UniSeries":
        """exp of a series with zero constant term.

        From b' = a' * b for b = exp(a), in the factorial basis (the
        module docstring gives the recurrence): each coefficient is an
        integer sum over the nonzero input terms.
        """
        alphas, d = self._nums, self._den
        if alphas[0] != 0:
            raise ValueError("exp requires a zero constant term")
        powers = list(itertools.accumulate([d] * self.order, operator.mul, initial=1))  # d^0..d^order
        terms = [(i, alpha * powers[i - 1]) for i, alpha in enumerate(alphas) if alpha]
        betas = [1]
        for n in range(1, len(alphas)):
            beta = sum([math.comb(n - 1, i - 1) * c * betas[n - i] for i, c in terms if i <= n])
            betas.append(beta)
        # over the one denominator d^order, x^n has the numerator beta_n d^(order - n)
        nums = [beta * power for beta, power in zip(betas, reversed(powers))]
        return UniSeries.from_numerators(nums, powers[-1])

    # -- misc ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"UniSeries({[str(c) for c in self.coeffs]})"


# A BiSeries row q^lo * sum_j coeffs[j] q^j as (lo, coeffs), trimmed of
# zeros at both ends; every zero row is the one shared _EMPTY_ROW.
_Row = tuple[int, tuple[int, ...]]
_EMPTY_ROW: _Row = (0, ())


def _add_scaled(out: list[int], at: int, c: int, cs: tuple[int, ...]) -> None:
    """out[at + j] += c * cs[j] for every j."""
    stop = at + len(cs)
    out[at:stop] = [v + c * w for v, w in zip(out[at:stop], cs)]


def _trimmed(lo: int, cs: list[int]) -> _Row:
    """The row q^lo * sum_j cs[j] q^j with zeros cut from both ends."""
    end = len(cs)
    while end and not cs[end - 1]:
        end -= 1
    if not end:
        return _EMPTY_ROW
    start = 0
    while not cs[start]:
        start += 1
    return lo + start, tuple(cs[start:end])


@dataclass(frozen=True, slots=True)
class GeometricFactor:
    """x q^qbase / (1 - c x q^qstep), a factor of a ``BiSeries`` product;
    built by ``BiSeries.geometric``, which checks the triple."""

    c: int
    qbase: int
    qstep: int


class BiSeries:
    """Power series in x with exact integer polynomial coefficients in q.

    Truncated in x at a fixed order; q-powers are kept exactly (no q
    truncation).  Each x^n row is stored densely as ``(lo, coeffs)``,
    meaning q^lo * sum_j coeffs[j] q^j, with ``coeffs`` a tuple of ints
    trimmed of zeros at both ends; the zero row is ``(0, ())``.  Rows are
    canonical, so equal series have equal rows.  A series is ``one``
    times ``geometric`` factors, with ``substitute_x_qpow`` between them,
    as the paper builds G_k, and ``truncate`` keeps its low rows; each
    builds canonical rows, and no row is ever checked or re-canonicalised.
    """

    __slots__ = ("_rows",)

    @classmethod
    def _from_rows(cls, rows: tuple[_Row, ...]) -> "BiSeries":
        """A series over rows already in canonical form; nothing is checked or copied."""
        series = cls.__new__(cls)
        series._rows = rows
        return series

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "BiSeries":
        """The series 1, truncated at x^order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls._from_rows(((0, (1,)),) + (_EMPTY_ROW,) * order)

    @staticmethod
    def geometric(c: int, qbase: int, qstep: int) -> GeometricFactor:
        """The factor x q^qbase / (1 - c x q^qstep) = sum_j c^j x^(j+1) q^(qbase + j qstep)."""
        for name, value in (("c", c), ("qbase", qbase), ("qstep", qstep)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be a plain int")
        if qbase < 0 or qstep < 0:
            raise ValueError("q-powers must be >= 0")
        return GeometricFactor(c, qbase, qstep)

    # -- inspection ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._rows) - 1

    def q_coefficients(self, n: int) -> dict[int, int]:
        """The coefficient of x^n as a map {q-power: int}; zero entries omitted."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside truncation order {self.order}")
        lo, cs = self._rows[n]
        return {lo + j: c for j, c in enumerate(cs) if c}

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Yield (x-power, q-power, coefficient) triples in sorted order."""
        for n, (lo, cs) in enumerate(self._rows):
            for j, c in enumerate(cs):
                if c:
                    yield n, lo + j, c

    # -- operations ----------------------------------------------------

    def __mul__(self, factor: GeometricFactor) -> "BiSeries":
        """self * x q^qbase / (1 - c x q^qstep) through x^(self.order + 1),
        by row[n] = q^qbase S[n-1] + c q^qstep row[n-1]: row[n] reads only
        S[n-1] and row[n-1], so the factor's x makes the product exact one
        order further than self."""
        if not isinstance(factor, GeometricFactor):
            return NotImplemented
        c, qbase, qstep = factor.c, factor.qbase, factor.qstep
        rows: list[_Row] = [_EMPTY_ROW]
        for plo, pcs in self._rows:
            rlo, rcs = rows[-1]
            if not (c and rcs):
                rows.append((plo + qbase, pcs) if pcs else _EMPTY_ROW)
            elif not pcs:
                rows.append((rlo + qstep, tuple([c * v for v in rcs])))
            else:
                # both terms are nonzero; they may cancel where they overlap
                plo += qbase
                rlo += qstep
                lo = min(plo, rlo)
                out = [0] * (max(plo + len(pcs), rlo + len(rcs)) - lo)
                out[plo - lo : plo - lo + len(pcs)] = pcs
                _add_scaled(out, rlo - lo, c, rcs)
                rows.append(_trimmed(lo, out))
        return BiSeries._from_rows(tuple(rows))

    def truncate(self, order: int) -> "BiSeries":
        """The rows x^0..x^order of self; self itself if order is its order."""
        if not 0 <= order <= self.order:
            raise ValueError(f"truncation order {order} outside 0..{self.order}")
        if order == self.order:
            return self
        return BiSeries._from_rows(self._rows[: order + 1])

    def substitute_x_qpow(self, k: int) -> "BiSeries":
        """Substitute x -> x * q^k: each term (n, s, c) becomes (n, s + k*n, c)."""
        if k < 0:
            raise ValueError("substitution power must be >= 0")
        return BiSeries._from_rows(
            tuple((lo + k * n, cs) if cs else _EMPTY_ROW for n, (lo, cs) in enumerate(self._rows))
        )

    def q_weighted_sum(self) -> tuple[int, ...]:
        """Apply d/dq then set q = 1: the x^n coefficient becomes sum_s s * c_{n,s}."""
        return tuple(sum(map(operator.mul, range(lo, lo + len(cs)), cs)) for lo, cs in self._rows)

    # -- misc ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        parts = [f"({n},{s}):{c}" for n, s, c in self.terms()]
        return f"BiSeries(order={self.order}, terms={{{', '.join(parts)}}})"
