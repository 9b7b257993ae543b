"""Exact truncated power-series arithmetic.

Two representations are provided:

``UniSeries``
    A power series in one variable x, truncated at a fixed order N
    (terms x^0 .. x^N are kept), for series that really are rational: the
    EGF W(x) and the Taylor expansions at the poles of the per-k totals.
    Coefficients are ``fractions.Fraction``, stored as a tuple of N+1.
    A product puts each factor over the lcm of its denominators, so its
    coefficients become integer numerators over one denominator each;
    every output coefficient is then an integer dot product and a single
    ``Fraction`` reduction, not one reduction per term.  ``exp`` and
    ``reciprocal`` first scan their input once for its nonzero terms, and
    each step of their recurrences sums over those terms only: O(order)
    steps of one term each for e^{cx} = exp(c x).

``BiSeries``
    A power series in x whose coefficients are integer polynomials in a
    second variable q.  Truncation applies to x only; the q-degree is
    never truncated.  Storage is a tuple indexed by x-power of dense rows
    ``(lo, coeffs)``: q^lo * sum_j coeffs[j] q^j, with ``coeffs`` a tuple
    of ints trimmed of zeros at both ends, so every row has one form.
    Outside input enters only through ``from_terms`` (and the arguments
    of ``one`` and ``geometric``), which checks it; products and
    substitutions build canonical rows and skip the check.
    ``q_weighted_sum`` returns ints.

Closed-form geometric factors
    ``BiSeries.geometric(c, qbase, qstep, order)`` is the truncated
    expansion of x q^qbase / (1 - c x q^qstep).  It carries that triple,
    and multiplying any series S by it uses the recurrence

        row[n] = q^qbase * S[n-1] + c q^qstep * row[n-1],    row[0] = 0,

    which costs O(order * row terms).  This is the only ``BiSeries``
    product: every product the generating functions take has such a
    factor (G_k is a product of k of them), so ``*`` without one raises
    ``TypeError``.  Products carry no triple, and equality compares rows
    only.  On dense rows each step of the recurrence is a shift of two
    rows and one elementwise sum.

Everything is exact: floating-point coefficients are rejected, and no
operation ever reads past the truncation order.  All values are
immutable after construction, so they can be shared freely between
threads or worker processes.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Rational = Union[int, Fraction]


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, (float, bool)):
        raise TypeError("float and bool coefficients are not allowed in exact series")
    return Fraction(value)


def _over_common_denominator(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integers nums and den with coeffs[i] == nums[i] / den, den the lcm of
    the denominators."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _nonzero_terms(coeffs: tuple[Fraction, ...]) -> list[tuple[int, Fraction]]:
    """The (index, coefficient) pairs of the nonzero coefficients, by index."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


class UniSeries:
    """Truncated univariate power series with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational], order: int | None = None):
        """Build a series from ``coeffs`` = [c0, c1, ...].

        If ``order`` is given, the coefficient list is padded with zeros or
        truncated so that exactly ``order + 1`` terms are kept; otherwise
        the order is ``len(coeffs) - 1``.
        """
        cs = [_as_fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1]
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        elif not cs:
            raise ValueError("a series needs at least a constant term (or pass order=)")
        self._coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "UniSeries":
        return cls([1], order=order)

    @classmethod
    def x(cls, order: int) -> "UniSeries":
        return cls([0, 1], order=order)

    # -- inspection ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of x^n; reading past the truncation order is an error."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside truncation order {self.order}")
        return self._coeffs[n]

    def egf_coefficient(self, n: int) -> Fraction:
        """n! * [x^n], i.e. the value counted by an exponential generating function."""
        return self.coefficient(n) * math.factorial(n)

    def _require_same_order(self, other: "UniSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"series orders differ: {self.order} vs {other.order}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "UniSeries") -> "UniSeries":
        if not isinstance(other, UniSeries):
            return NotImplemented
        self._require_same_order(other)
        return UniSeries([a + b for a, b in zip(self._coeffs, other._coeffs)])

    def scale(self, c: Rational) -> "UniSeries":
        f = _as_fraction(c)
        return UniSeries([a * f for a in self._coeffs])

    def __mul__(self, other: "UniSeries") -> "UniSeries":
        if not isinstance(other, UniSeries):
            return NotImplemented
        self._require_same_order(other)
        n = self.order
        a, da = _over_common_denominator(self._coeffs)
        b, db = _over_common_denominator(other._coeffs)
        b.reverse()
        den = da * db
        # [x^m] = sum_i a_i b_(m-i) / (da db): one reduction per coefficient
        return UniSeries(
            [Fraction(sum(map(operator.mul, a[: m + 1], b[n - m :])), den) for m in range(n + 1)]
        )

    def shift(self, m: int) -> "UniSeries":
        """Multiply by x^m (coefficients move up; the tail is truncated)."""
        if m < 0:
            raise ValueError("shift amount must be >= 0")
        out = [Fraction(0)] * m + list(self._coeffs)
        return UniSeries(out[: self.order + 1], order=self.order)

    def reciprocal(self) -> "UniSeries":
        """Multiplicative inverse through the truncation order.

        The constant term must be nonzero.
        """
        a = self._coeffs
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

        Uses the recurrence b' = a' * b for b = exp(a), which only needs
        exact rational arithmetic.
        """
        a = self._coeffs
        if a[0] != 0:
            raise ValueError("exp requires a zero constant term")
        terms = [(i, i * c) for i, c in _nonzero_terms(a)]
        out = [Fraction(1)]
        for n in range(1, self.order + 1):
            # n b_n = sum_{i=1..n} i a_i b_(n-i)
            out.append(sum([c * out[n - i] for i, c in terms if i <= n], Fraction(0)) / n)
        return UniSeries(out)

    # -- misc ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"UniSeries({[str(c) for c in self._coeffs]})"


# A BiSeries row q^lo * sum_j coeffs[j] q^j as (lo, coeffs), trimmed of
# zeros at both ends; every zero row is the one shared _EMPTY_ROW.
_Row = tuple[int, tuple[int, ...]]
_EMPTY_ROW: _Row = (0, ())


def _require_plain_ints(**values: object) -> None:
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be a plain int")


def _dense_row(terms: Mapping[int, int]) -> _Row:
    """The canonical row of a {q-power: int} map."""
    powers = [s for s, c in terms.items() if c]
    if not powers:
        return _EMPTY_ROW
    lo = min(powers)
    cs = [0] * (max(powers) - lo + 1)
    for s in powers:
        cs[s - lo] = terms[s]
    return lo, tuple(cs)


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


class BiSeries:
    """Power series in x with exact integer polynomial coefficients in q.

    Truncated in x at a fixed order; q-powers are kept exactly (no q
    truncation).  Each x^n row is stored densely as ``(lo, coeffs)``,
    meaning q^lo * sum_j coeffs[j] q^j, with ``coeffs`` a tuple of ints
    trimmed of zeros at both ends; the zero row is ``(0, ())``.  Rows are
    canonical, so equal series have equal rows.  ``from_terms`` checks
    and converts outside input; rows built by the operations below are
    canonical by construction and are not checked again.  The only
    product is by a ``geometric`` factor.
    """

    # _geometric is (c, qbase, qstep) when the rows are
    # x q^qbase / (1 - c x q^qstep), else None
    __slots__ = ("_rows", "_geometric")

    @classmethod
    def _from_rows(cls, rows: tuple[_Row, ...]) -> "BiSeries":
        """A series over rows already in canonical form; nothing is checked or copied."""
        series = cls.__new__(cls)
        series._rows = rows
        series._geometric = None
        return series

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "BiSeries":
        return cls.from_terms([(0, 0, 1)], order)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int, int]], order: int) -> "BiSeries":
        """Build from (x-power, q-power, coefficient) triples, truncated at
        ``order``; like terms combine.  Every triple is checked: all three
        entries plain ints, both powers >= 0."""
        if order < 0:
            raise ValueError("order must be >= 0")
        rows: list[dict[int, int]] = [{} for _ in range(order + 1)]
        for n, s, c in terms:
            _require_plain_ints(x_power=n, q_power=s, coefficient=c)
            if n < 0 or s < 0:
                raise ValueError("x-powers and q-powers must be >= 0")
            if n <= order:
                rows[n][s] = rows[n].get(s, 0) + c
        return cls._from_rows(tuple(_dense_row(row) for row in rows))

    @classmethod
    def geometric(cls, c: int, qbase: int, qstep: int, order: int) -> "BiSeries":
        """x q^qbase / (1 - c x q^qstep) = sum_j c^j x^(j+1) q^(qbase + j qstep),
        truncated at ``order``; products with it take the O(order) path."""
        _require_plain_ints(c=c, qbase=qbase, qstep=qstep)
        if qbase < 0 or qstep < 0:
            raise ValueError("q-powers must be >= 0")
        if order < 0:
            raise ValueError("order must be >= 0")
        rows = [_EMPTY_ROW]
        power = 1
        for j in range(order):
            rows.append((qbase + j * qstep, (power,)) if power else _EMPTY_ROW)
            power *= c
        series = cls._from_rows(tuple(rows))
        series._geometric = (c, qbase, qstep)
        return series

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

    def _require_same_order(self, other: "BiSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"series orders differ: {self.order} vs {other.order}")

    # -- operations ----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._require_same_order(other)
        if other._geometric is not None:
            return self._times_geometric(*other._geometric)
        if self._geometric is not None:
            return other._times_geometric(*self._geometric)
        raise TypeError("a BiSeries product needs a BiSeries.geometric factor")

    def _times_geometric(self, c: int, qbase: int, qstep: int) -> "BiSeries":
        """self * x q^qbase / (1 - c x q^qstep), truncated at self's order,
        by row[n] = q^qbase S[n-1] + c q^qstep row[n-1]."""
        rows: list[_Row] = [_EMPTY_ROW]
        for plo, pcs in self._rows[:-1]:
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

    def substitute_x_qpow(self, k: int) -> "BiSeries":
        """Substitute x -> x * q^k: each term (n, s, c) becomes (n, s + k*n, c)."""
        if k < 0:
            raise ValueError("substitution power must be >= 0")
        return BiSeries._from_rows(
            tuple((lo + k * n, cs) if cs else _EMPTY_ROW for n, (lo, cs) in enumerate(self._rows))
        )

    def q_weighted_sum(self) -> tuple[int, ...]:
        """Apply d/dq then set q = 1: the x^n coefficient becomes sum_s s * c_{n,s}."""
        return tuple(sum((lo + j) * c for j, c in enumerate(cs)) for lo, cs in self._rows)

    # -- misc ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        parts = [f"({n},{s}):{c}" for n, s, c in self.terms()]
        return f"BiSeries(order={self.order}, terms={{{', '.join(parts)}}})"
