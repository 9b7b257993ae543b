"""Asymptotic estimate of the weighted-record total and its diagnostics.

The exact total grows like a Bell number: with r the positive root of
r e^r = n + 1,

    estimate(n) = B_n * n^3 / r^3 * (1 + r/n)

is the stated large-n approximation of the total.  Supporting material:
the shift expansion B_{n+h} ~ B_n (n+h)!/(n! r^h), whose relative error
is O(log n / n) for small h.

Each reader refuses a table short of what it reads (the estimate B_n, a
shift error B_{n+h}) with ``closedform.require_table``'s ValueError.

Bell numbers overflow double precision near n ~ 220, so estimates are
assembled in mpmath (arbitrary exponent range); the solver itself works
in ordinary floats since r stays small.

The exact/estimate ratio at reachable n sits well below 1 and drifts
upward: the dominant term of the exact Bell-number form carries a 3/4
multiplier that the estimate's leading constant does not, and desk-scale
evaluation cannot tell which constant the limit favours.  Reports
therefore carry the ratio sequence as a flagged diagnostic rather than
asserting convergence to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

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


def total_swrec_estimate(n: int, tables: tuple[int, ...]) -> mp.mpf:
    """B_n * n^3/r^3 * (1 + r/n), exact-integer B_n combined in mpmath."""
    if n < 1:
        raise ValueError("n must be >= 1")
    require_table(tables, n, "n")
    r = solve_r(n + 1.0)
    with mp.workdps(30):
        rr = mp.mpf(r)
        return mp.mpf(tables[n]) * mp.mpf(n) ** 3 / rr**3 * (1 + rr / n)


def bell_shift_error(n: int, h: int, tables: tuple[int, ...]) -> float:
    """Relative error | B_{n+h} * n! * r^h / (B_n * (n+h)!) - 1 |.

    Computed in log space: math.log takes exact big integers directly, so
    nothing overflows even at n ~ 1000.
    """
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
    estimate: mp.mpf
    ratio: float  # exact_total / estimate
    bell_shift_errors: dict[int, float]  # h in BELL_SHIFTS

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "exact_total": self.exact_total,
            "estimate": mp.nstr(self.estimate, 10),
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
        ratio = float(mp.mpf(exact) / estimate)
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
