"""Asymptotic estimate of the weighted-record total and its diagnostics.

The exact total grows like a Bell number: with r the positive root of
r e^r = n + 1,

    estimate(n) = B_n * n^3 / r^3 * (1 + r/n)

is the stated large-n approximation of the total.  Supporting material:
the shift expansion B_{n+h} ~ B_n (n+h)!/(n! r^h), whose relative error
is O(log n / n) for small h.

Each reader refuses a table short of what it reads (the estimate B_n, a
shift error B_{n+h}) with ``closedform.require_table``'s ValueError.

Bell numbers overflow double precision near n ~ 220, so the estimate is
an exact Fraction (with r the float root taken exactly), printed by
``format_significant``; the solver itself works in ordinary floats since
r stays small.

The exact/estimate ratio at reachable n sits well below 1 and drifts
upward: the dominant term of the exact Bell-number form carries a 3/4
multiplier that the estimate's leading constant does not, and desk-scale
evaluation cannot tell which constant the limit favours.  Reports
therefore carry the ratio sequence as a flagged diagnostic rather than
asserting convergence to 1.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .closedform import BELL_FORM_REACH, require_table, total_swrec_formula

# A report at n gives the shift-expansion error of B_{n+h} for each h of
# BELL_SHIFTS, and reads B_n .. B_{n + REPORT_REACH} in all.
BELL_SHIFTS = (1, 2, 3)
REPORT_REACH = max(BELL_FORM_REACH, *BELL_SHIFTS)

# solve_r stops at relative residual |r e^r - t| / t <= _TOL, and gives up
# after _NEWTON_STEPS Newton steps.
_TOL = 1e-12
_NEWTON_STEPS = 100


def solve_r(t: float) -> float:
    """The positive root of r * e^r = t, to relative residual 1e-12.

    Newton iteration from max(ln t - ln ln t, small constant); the
    function is smooth, increasing and convex on r > 0, so Newton
    converges monotonically after at most one overshoot.  Refuses a t
    that is not a positive finite number.
    """
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if t > math.e:
        r = math.log(t) - math.log(math.log(t))
    else:
        r = 1e-3
    r = max(r, 1e-3)
    for _ in range(_NEWTON_STEPS):
        er = math.exp(r)
        f = r * er - t
        if abs(f) <= _TOL * t:
            return r
        r -= f / ((1.0 + r) * er)
    raise ArithmeticError(f"solve_r({t!r}) did not converge in {_NEWTON_STEPS} steps")


def total_swrec_estimate(n: int, tables: tuple[int, ...]) -> Fraction:
    """B_n * n^3/r^3 * (1 + r/n) exactly, for the float r = solve_r(n + 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    require_table(tables, n, "n")
    r = Fraction(solve_r(n + 1.0))
    return tables[n] * Fraction(n) ** 3 / r**3 * (1 + r / n)


def format_significant(x: Fraction, digits: int) -> str:
    """x >= 1 rounded half up to ``digits`` significant digits: fixed
    notation below 10^digits, else d.ddde+E, with trailing zeros stripped
    but one kept: "23225757.76" and "1.259198225e+120" at 10 digits,
    "9.16e+649" at 4."""
    if x < 1:
        raise ValueError("x must be >= 1")
    ctx = decimal.Context(digits, decimal.ROUND_HALF_UP, Emax=decimal.MAX_EMAX)
    d = ctx.divide(x.numerator, x.denominator)
    e = d.adjusted()
    mant = "".join(map(str, d.as_tuple().digits))
    split = e + 1 if e < digits else 1
    text = f"{mant[:split]}.{mant[split:].rstrip('0') or '0'}"
    return text if e < digits else f"{text}e+{e}"


def bell_shift_error(n: int, h: int, tables: tuple[int, ...]) -> float:
    """Relative error | B_{n+h} * n! * r^h / (B_n * (n+h)!) - 1 |.

    Computed in log space: math.log takes exact big integers directly, so
    nothing overflows even at n ~ 1000.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if h < 0:
        raise ValueError("h must be >= 0")
    require_table(tables, n + h, f"n+{h}")
    if h == 0:
        return 0.0
    r = solve_r(n + 1.0)
    log_ratio = (
        math.log(tables[n + h])
        - math.log(tables[n])
        + h * math.log(r)
        - sum(math.log(n + j) for j in range(1, h + 1))
    )
    return abs(math.expm1(log_ratio))


@dataclass(frozen=True)
class AsymptoticReport:
    """Per-n comparison of the exact total against the estimate."""

    n: int
    r: float
    exact_total: int
    estimate: Fraction
    ratio: float  # exact_total / estimate
    bell_shift_errors: dict[int, float]  # h in BELL_SHIFTS

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "exact_total": self.exact_total,
            "estimate": format_significant(self.estimate, 10),
            "ratio": self.ratio,
            "bell_shift_errors": {str(h): e for h, e in sorted(self.bell_shift_errors.items())},
        }


def asymptotic_report(ns: Sequence[int], tables: tuple[int, ...]) -> list[AsymptoticReport]:
    """Reports for each n in ``ns`` (tables must cover max(ns) + REPORT_REACH)."""
    out: list[AsymptoticReport] = []
    for n in ns:
        r = solve_r(n + 1.0)
        exact = total_swrec_formula(n, tables)
        estimate = total_swrec_estimate(n, tables)
        # exact rounded to 53 bits (half to even), then divided with one
        # rounding (int / int): the ratios as always printed.  The correctly
        # rounded exact/estimate differs in the last bit at 236 of n <= 1000.
        s = max(exact.bit_length() - 53, 0)
        top, rest = divmod(exact, 1 << s)
        top += 2 * rest + (top & 1) > 1 << s  # up past half, or at half to even
        ratio = (top << s) * estimate.denominator / estimate.numerator
        errors = {h: bell_shift_error(n, h, tables) for h in BELL_SHIFTS}
        out.append(
            AsymptoticReport(
                n=n,
                r=r,
                exact_total=exact,
                estimate=estimate,
                ratio=ratio,
                bell_shift_errors=errors,
            )
        )
    return out
