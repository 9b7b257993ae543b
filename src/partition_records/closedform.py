"""Bell and Stirling number tables and the closed-form weighted-record totals.

The total T(n) of the swrec statistic over all partitions of [n] has the
exact Bell-number form (Theorem 3)

    4 T(n) = 3 B_{n+3} - 3 B_{n+2} - (4n + 7) B_{n+1} - (2n + 2) B_n

and is also the coefficient n! * [x^n] of the exponential generating
function (Theorem 2)

    W(x) = e^(e^x - 1) * (3/4 e^{3x} + 3/2 e^{2x} - 7/4 e^x
                          - x e^{2x} - 3/2 x e^x - 1/2).

Each is typed once, as the table ``BELL_FORM_4T`` or ``W_BRACKET`` that
every evaluation reads.  Neither is derived from the other, so the
``thm2`` suite, which compares the two, stays a check.

This module builds exact integer tables of B_n and S(n,k) via the
triangular recurrences (``build_tables`` is the one way to get them;
tables are rebuilt on every call and never read from a file), constructs
W(x) with exact rational series arithmetic, and evaluates T(n) in
integers.  Both routes are independent of the enumeration oracle, which
the tests compare them against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .powerseries import UniSeries


# 4 T(n) = sum over h of (slope * n + const) * B_{n+h}: h -> (slope, const).
BELL_FORM_4T: dict[int, tuple[int, int]] = {3: (0, 3), 2: (0, -3), 1: (-4, -7), 0: (-2, -2)}

# W(x) = e^(e^x - 1) * sum of c * x^i * e^{jx}: (i, j) -> c.
W_BRACKET: dict[tuple[int, int], Fraction] = {
    (0, 3): Fraction(3, 4), (0, 2): Fraction(3, 2), (0, 1): Fraction(-7, 4),
    (1, 2): Fraction(-1), (1, 1): Fraction(-3, 2), (0, 0): Fraction(-1, 2),
}

# Largest n at which the CLI and the verify suites evaluate T(n) by the
# formula and the EGF: egf_w at order FORMULA_CAP takes 1.2-1.4 s on a
# 2-CPU host with Python 3.11, and its cost grows faster than the square of
# the order (order^2 products of integers that grow with the order).
FORMULA_CAP = 500


def bell_numbers(max_n: int) -> list[int]:
    """B_0 .. B_max_n via the Bell triangle (exact integers)."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    bell = [1]
    row = [1]
    for _ in range(max_n):
        # each row starts with the last entry of the one above, then adds
        # that row's entries one by one
        row = list(itertools.accumulate(row, initial=row[-1]))
        bell.append(row[0])
    return bell


def stirling_triangle(max_n: int) -> list[list[int]]:
    """Rows S(n, 0..n) for n = 0 .. max_n, S of the second kind.

    S(n,k) = k*S(n-1,k) + S(n-1,k-1), S(0,0) = 1.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for kk in range(1, n + 1):
            above = prev[kk] if kk < n else 0
            row[kk] = kk * above + prev[kk - 1]
        rows.append(row)
    return rows


@dataclass(frozen=True)
class BellStirlingTables:
    """Immutable exact tables of Bell numbers and Stirling numbers (2nd kind).

    The Stirling triangle may be capped lower than the Bell sequence: the
    triangle needs O(max_n^2) big integers, which is wasteful when only
    large Bell numbers are wanted (asymptotics at n ~ 1000).
    """

    bell: tuple[int, ...]
    stirling: tuple[tuple[int, ...], ...]

    @property
    def max_n(self) -> int:
        return len(self.bell) - 1

    @property
    def stirling_max_n(self) -> int:
        return len(self.stirling) - 1

    def bell_number(self, n: int) -> int:
        if not 0 <= n <= self.max_n:
            raise ValueError(f"B_{n} not tabulated (max_n={self.max_n})")
        return self.bell[n]

    def stirling_number(self, n: int, k: int) -> int:
        if not 0 <= n <= self.stirling_max_n:
            raise ValueError(f"S({n},k) not tabulated (stirling_max_n={self.stirling_max_n})")
        if not 0 <= k <= n:
            return 0
        return self.stirling[n][k]


def build_tables(max_n: int, stirling_max_n: int | None = None) -> BellStirlingTables:
    """Exact tables with B_0..B_max_n and Stirling rows 0..stirling_max_n
    (defaulting to max_n)."""
    s_max = max_n if stirling_max_n is None else stirling_max_n
    if s_max > max_n:
        raise ValueError("stirling_max_n cannot exceed max_n")
    return BellStirlingTables(
        bell=tuple(bell_numbers(max_n)),
        stirling=tuple(tuple(r) for r in stirling_triangle(s_max)),
    )


# ---------------------------------------------------------------------------
# Exponential generating functions
# ---------------------------------------------------------------------------


def bell_egf(order: int, tables: BellStirlingTables) -> UniSeries:
    """sum_n B_n x^n / n!, built from the integer table (not by series exp)."""
    if tables.max_n < order:
        raise ValueError(f"tables cover n <= {tables.max_n}, need {order}")
    return UniSeries([Fraction(tables.bell[n], math.factorial(n)) for n in range(order + 1)])


def egf_w(order: int, tables: BellStirlingTables) -> UniSeries:
    """The aggregate EGF W(x) of the module docstring, built from
    ``W_BRACKET``: its coefficients n![x^n] are the totals of swrec over
    all partitions of [n]."""
    if tables.max_n < order + 3:
        raise ValueError(f"tables must cover order+3 = {order + 3}, have {tables.max_n}")
    # e^{jx} = exp of [0, j, 0, ..., 0] (order + 1 terms) for each j of the
    # bracket; e^{0x} = 1 needs no series exp
    exps = {0: (1,) + (0,) * order}
    for j in {j for _, j in W_BRACKET} - {0}:
        exps[j] = UniSeries(([0, j] + [0] * order)[: order + 1]).exp().coeffs
    # [x^n] of c x^i e^{jx} is c [x^(n-i)] e^{jx}
    bracket = [
        sum(c * exps[j][n - i] for (i, j), c in W_BRACKET.items() if i <= n)
        for n in range(order + 1)
    ]
    return bell_egf(order, tables) * UniSeries(bracket)


def total_swrec_formula(n: int, tables: BellStirlingTables) -> int:
    """Exact total of swrec over all partitions of [n], from Bell numbers.

    Evaluates 4T(n) in integers from ``BELL_FORM_4T``.  4T is always
    divisible by 4; a remainder would mean the tables are corrupt, and
    raises ArithmeticError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    top = max(BELL_FORM_4T)
    if tables.max_n < n + top:
        raise ValueError(f"tables must cover n+{top} = {n + top}, have {tables.max_n}")
    b = tables.bell
    four_t = sum((slope * n + const) * b[n + h] for h, (slope, const) in BELL_FORM_4T.items())
    if four_t % 4 != 0:
        raise ArithmeticError(f"total for n={n} is not an integer: {four_t}/4")
    return four_t // 4
