"""Bell number tables and the closed-form weighted-record totals.

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

This module builds the exact integer table of B_n via the Bell triangle
(``build_tables`` is the one way to get it; a table is a plain tuple,
rebuilt on every call and never read from a file), constructs
W(x) with exact rational series arithmetic, and evaluates T(n) in
integers.  Both routes are independent of the enumeration oracle, which
the tests compare them against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .powerseries import UniSeries


# 4 T(n) = sum over h of (slope * n + const) * B_{n+h}: h -> (slope, const).
BELL_FORM_4T: dict[int, tuple[int, int]] = {3: (0, 3), 2: (0, -3), 1: (-4, -7), 0: (-2, -2)}

# T(n) reads B_n .. B_{n + BELL_FORM_REACH}, so its table must reach that far.
BELL_FORM_REACH = max(BELL_FORM_4T)

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


def build_tables(max_n: int, stirling_max_n: int = 0) -> tuple[int, ...]:
    """The Bell table B_0..B_max_n that every closed form reads.

    ``stirling_max_n`` is accepted only as 0, the value its remaining
    callers pass: a table holds no Stirling rows."""
    if stirling_max_n != 0:
        raise ValueError("stirling_max_n must be 0: Bell tables hold no Stirling rows")
    return tuple(bell_numbers(max_n))


def require_table(tables: tuple[int, ...], top: int, label: str) -> None:
    """Refuse, with ValueError, a table that stops before B_top."""
    if len(tables) <= top:
        raise ValueError(f"tables must cover {label} = {top}, have {len(tables) - 1}")


# ---------------------------------------------------------------------------
# Exponential generating functions
# ---------------------------------------------------------------------------


def egf_w(order: int, tables: tuple[int, ...]) -> UniSeries:
    """The aggregate EGF W(x) of the module docstring, built from
    ``W_BRACKET``: its coefficients n![x^n] are the totals of swrec over
    all partitions of [n].  Reads B_0..B_order."""
    require_table(tables, order, "order")
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
    # e^(e^x - 1) = sum of B_n x^n / n!, from the table
    bell = UniSeries([Fraction(tables[n], math.factorial(n)) for n in range(order + 1)])
    return bell * UniSeries(bracket)


def total_swrec_formula(n: int, tables: tuple[int, ...]) -> int:
    """Exact total of swrec over all partitions of [n], from Bell numbers.

    Evaluates 4T(n) in integers from ``BELL_FORM_4T``.  4T is always
    divisible by 4; a remainder would mean the tables are corrupt, and
    raises ArithmeticError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    require_table(tables, n + BELL_FORM_REACH, f"n+{BELL_FORM_REACH}")
    four_t = sum((slope * n + const) * tables[n + h] for h, (slope, const) in BELL_FORM_4T.items())
    if four_t % 4 != 0:
        raise ArithmeticError(f"total for n={n} is not an integer: {four_t}/4")
    return four_t // 4
