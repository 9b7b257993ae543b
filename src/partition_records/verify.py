"""Self-contained verification suites cross-checking every layer.

Each suite compares one construction against an independent oracle and
returns a ``VerificationOutcome`` listing every mismatch.  Suite names
(used as CLI tokens):

    eq1         product-form generating function vs. enumeration histograms
    recurrence  product form vs. recurrence form, coefficient-wise
    lemma2      q-weighted sums of the recurrence form vs. the rational
                closed form, and the closed form vs. enumeration totals
    propn       partial-fraction reconstruction vs. direct rational
                evaluation, plus spot checks against the pole-expansion oracle
    thm2        EGF coefficients vs. per-block-count totals and the exact
                Bell-number formula (with integrality checks)
    thm3        Bell-number formula vs. brute-force enumeration totals
    bellshift   Bell shift-expansion error bounds and their decay
    asym        exact/estimate ratio diagnostics
    all         everything above, one merged outcome
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

from . import closedform, genfunc, setpartitions
from .asymptotics import BELL_SHIFTS, REPORT_REACH, asymptotic_report, bell_shift_error
from .closedform import BELL_FORM_REACH, FORMULA_CAP, build_tables
from .genfunc import GF_MAX_K, GF_MAX_N
from .setpartitions import DEFAULT_ENUMERATION_CAP

DEFAULT_ENUM_MAX_N = 9
DEFAULT_SERIES_ORDER = 12
DEFAULT_MAX_K = 6
DEFAULT_PF_MAX_K = 10
DEFAULT_PF_POINTS = 25
PF_MAX_K = 60
PF_MAX_POINTS = 100
DEFAULT_SUM_MAX_N = 12
DEFAULT_FORMULA_MAX_N = 200
DEFAULT_DENOM_MAX_N = 500
DEFAULT_BRUTE_MAX_N = 12
DEFAULT_BELLSHIFT_NS = (10, 50, 100, 500, 1000)
DEFAULT_ASYM_NS = (10, 50, 100, 200, 400, 800)

# Each suite's size keywords, in the order their faults are reported:
# keyword -> (minimum, cap, cap name).  A smaller value would leave the
# suite's cases out, a larger one start unbounded work.  The CLI takes
# one flag per keyword (--max-n sets max_n) and no other.
SUITE_RANGES: dict[str, dict[str, tuple[int, int, str]]] = {
    "eq1": {"max_n": (1, DEFAULT_ENUMERATION_CAP, "enumeration")},
    "recurrence": {"max_k": (1, GF_MAX_K, "gf"), "order": (0, GF_MAX_N, "gf")},
    "lemma2": {
        "max_k": (1, GF_MAX_K, "gf"),
        "order": (0, GF_MAX_N, "gf"),
        "max_n": (1, DEFAULT_ENUMERATION_CAP, "enumeration"),
    },
    "propn": {"max_k": (1, PF_MAX_K, "propn"), "points": (1, PF_MAX_POINTS, "propn")},
    "thm2": {"max_n": (0, FORMULA_CAP, "formula")},
    "thm3": {"max_n": (0, DEFAULT_ENUMERATION_CAP, "enumeration")},
    "bellshift": {},
    "asym": {},
    "all": {},
}

LEADING_CONSTANT_NOTE = (
    "The dominant term of the exact Bell-number form carries a 3/4 multiplier "
    "that the asymptotic estimate's leading constant omits; observed ratios sit "
    "below 1 and drift upward, and desk-scale data cannot decide the limit, so "
    "no convergence target is asserted."
)


@dataclass
class CaseFailure:
    id: str
    expected: str
    actual: str


@dataclass
class VerificationOutcome:
    suite: str
    cases_run: int
    failures: list[CaseFailure]
    elapsed_ms: float
    diagnostics: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        out = asdict(self)
        if self.diagnostics is None:
            del out["diagnostics"]
        return out


class _Recorder:
    """One suite run: refuses its sizes, starts its clock, collects its
    case results (failures keep exact decimal renderings) and builds its
    outcome."""

    def __init__(self, suite: str, **sizes: int) -> None:
        check_suite_ranges(suite, sizes)
        self.suite = suite
        self.started = time.perf_counter()
        self.cases_run = 0
        self.failures: list[CaseFailure] = []

    def check(self, case_id: str, expected, actual) -> None:
        self.cases_run += 1
        if expected != actual:
            self.failures.append(CaseFailure(case_id, _render(expected), _render(actual)))

    def check_that(self, case_id: str, condition: bool, expected: str, actual: str) -> None:
        self.cases_run += 1
        if not condition:
            self.failures.append(CaseFailure(case_id, expected, actual))

    def finish(self, diagnostics: dict | None = None) -> VerificationOutcome:
        elapsed_ms = (time.perf_counter() - self.started) * 1000.0
        self.failures.sort(key=lambda f: f.id)
        return VerificationOutcome(self.suite, self.cases_run, self.failures, elapsed_ms, diagnostics)


def check_range(
    name: str, value: int, minimum: int, cap: int | None = None, what: str = ""
) -> None:
    """Refuse a value below its minimum or past the ``what`` cap, before
    any work starts; the error names ``name``."""
    if value < minimum:
        raise ValueError(f"{name}={value} must be >= {minimum}")
    if cap is not None and value > cap:
        raise ValueError(f"{name}={value} exceeds the {what} cap {cap}")


def check_suite_ranges(
    suite: str, values: dict[str, int], label: Callable[[str], str] = str
) -> None:
    """Check ``values`` (keyword -> value, any subset of the suite's
    keywords) against ``SUITE_RANGES[suite]``: every minimum first, then
    every cap, each in the row's order.  ``label`` turns a keyword into
    the name an error gives."""
    row = SUITE_RANGES[suite]
    given = [keyword for keyword in row if keyword in values]
    for keyword in given:
        check_range(label(keyword), values[keyword], row[keyword][0])
    for keyword in given:
        check_range(label(keyword), values[keyword], *row[keyword])


def _render(value) -> str:
    if isinstance(value, dict):
        inner = ", ".join(f"{k}: {_render(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    return str(value)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def run_eq1(max_n: int = DEFAULT_ENUM_MAX_N) -> VerificationOutcome:
    """Product-form q-coefficients of [x^n] vs. enumeration histograms,
    one case per (n, k) cell with 1 <= k <= n <= max_n."""
    rec = _Recorder("eq1", max_n=max_n)
    for k in range(1, max_n + 1):
        series = genfunc.gf_product(k, max_n)
        for n in range(k, max_n + 1):
            expected = dict(setpartitions.swrec_histogram(n, k))
            actual = series.q_coefficients(n)
            rec.check(f"eq1 n={n} k={k}", expected, actual)
    return rec.finish()


def run_recurrence(
    max_k: int = DEFAULT_MAX_K, order: int = DEFAULT_SERIES_ORDER
) -> VerificationOutcome:
    """Product vs. recurrence construction, coefficient-wise, one case per k.

    The recurrence side is one chain: each k's G_k is one step from the
    previous k's, so a wrong G_k also fails every later k.  The product
    side is built afresh for each k."""
    rec = _Recorder("recurrence", max_k=max_k, order=order)
    b = None
    for k in range(1, max_k + 1):
        a = genfunc.gf_product(k, order)
        b = genfunc.gf_recurrence(k, order, below=b)
        if a == b:
            rec.check(f"recurrence k={k}", True, True)
        else:
            n_bad = next(n for n in range(order + 1) if a.q_coefficients(n) != b.q_coefficients(n))
            rec.check(
                f"recurrence k={k}",
                {f"x^{n_bad}": a.q_coefficients(n_bad)},
                {f"x^{n_bad}": b.q_coefficients(n_bad)},
            )
    return rec.finish()


def run_lemma2(
    max_k: int = DEFAULT_MAX_K,
    order: int = DEFAULT_SERIES_ORDER,
    max_n: int = DEFAULT_ENUM_MAX_N,
) -> VerificationOutcome:
    """q-weighted sum of the recurrence form vs. the rational closed form
    (per k, through x^order), then closed-form coefficients vs. enumeration
    totals (per (n, k) cell, n <= max_n).  G_1..G_max_k are one
    recurrence chain.  One census of P_n serves every k: each
    (block count, swrec) class adds swrec times its count to the total
    of its block count."""
    rec = _Recorder("lemma2", max_k=max_k, order=order, max_n=max_n)
    g = None
    for k in range(1, max_k + 1):
        g = genfunc.gf_recurrence(k, order, below=g)
        via_gf = g.q_weighted_sum()
        closed = genfunc.total_swrec_series(k, order)
        rec.check(f"series k={k}", list(via_gf), list(closed))
    closed_at_max_n = {k: genfunc.total_swrec_series(k, max_n) for k in range(1, max_n + 1)}
    for n in range(1, max_n + 1):
        by_k = [0] * (n + 1)
        for (k, s), count in setpartitions.swrec_census(n).items():
            by_k[k] += s * count
        for k in range(1, n + 1):
            rec.check(f"coeff n={n} k={k}", by_k[k], closed_at_max_n[k][n])
    return rec.finish()


def run_propn(
    max_k: int = DEFAULT_PF_MAX_K, points: int = DEFAULT_PF_POINTS
) -> VerificationOutcome:
    """Partial-fraction reconstruction vs. direct rational evaluation on a
    grid of non-pole sample points (half-integer spacing, so non-integer
    rationals are exercised), plus spot checks of the explicit coefficient
    formulas against the pole-expansion oracle."""
    rec = _Recorder("propn", max_k=max_k, points=points)
    for k in range(1, max_k + 1):
        decomp = genfunc.partial_fraction_coeffs(k)
        for step in range(points):
            y = Fraction(2 * (k + 1) + step, 2)  # k+1, k+3/2, k+2, ...
            rec.check(
                f"reconstruct k={k} y={y}",
                genfunc.total_swrec_rational(k, y),
                genfunc.partial_fraction_eval(decomp, y),
            )
    spot = genfunc.partial_fraction_coeffs(2)
    a21, b21 = genfunc.pole_expansion_coeffs(2, 1)
    a22, b22 = genfunc.pole_expansion_coeffs(2, 2)
    rec.check("spot a k=2 m=1", a21, spot.a[1])
    rec.check("spot b k=2 m=1", b21, spot.b[1])
    rec.check("spot b k=2 m=2", b22, spot.b[2])
    rec.check("spot a k=2 m=2", a22, spot.a[2])
    return rec.finish()


def run_thm2(
    max_n: int = DEFAULT_FORMULA_MAX_N, tables: tuple[int, ...] | None = None
) -> VerificationOutcome:
    """EGF coefficients vs. (a) sums of per-block-count totals for
    n <= DEFAULT_SUM_MAX_N, (b) the exact Bell-number formula for
    n <= max_n, and (c) the integrality of that formula for
    n <= DEFAULT_DENOM_MAX_N.  The formula is evaluated once per n for
    (b) and (c).

    One W(x) serves (a) and (b): the x^n coefficient of a truncated
    product depends only on the factors' terms up to x^n, so W at a
    lower order is a prefix of W at a higher one."""
    rec = _Recorder("thm2", max_n=max_n)
    order = max(DEFAULT_SUM_MAX_N, max_n)
    if tables is None:
        tables = build_tables(max(order, DEFAULT_DENOM_MAX_N) + BELL_FORM_REACH)
    w = closedform.egf_w(order, tables)
    per_k = [
        genfunc.total_swrec_series(k, DEFAULT_SUM_MAX_N) for k in range(1, DEFAULT_SUM_MAX_N + 1)
    ]
    for n in range(DEFAULT_SUM_MAX_N + 1):
        expected = sum(s[n] for s in per_k)
        rec.check(f"blocksum n={n}", expected, w.egf_coefficient(n))
    for n in range(max(max_n, DEFAULT_DENOM_MAX_N) + 1):
        # a raise fails this n's cases instead of escaping the suite
        try:
            total = closedform.total_swrec_formula(n, tables)
        except ArithmeticError as exc:
            total = str(exc)
        if n <= max_n:
            rec.check(f"formula n={n}", total, w.egf_coefficient(n))
        if n <= DEFAULT_DENOM_MAX_N:
            rec.check_that(f"integer n={n}", isinstance(total, int), "integer", str(total))
    return rec.finish()


def run_thm3(
    max_n: int = DEFAULT_BRUTE_MAX_N, tables: tuple[int, ...] | None = None
) -> VerificationOutcome:
    """Bell-number formula vs. brute-force enumeration, n = 0..max_n."""
    rec = _Recorder("thm3", max_n=max_n)
    if tables is None:
        tables = build_tables(max_n + BELL_FORM_REACH)
    for n in range(max_n + 1):
        rec.check(
            f"thm3 n={n}",
            setpartitions.total_swrec_bruteforce(n),
            closedform.total_swrec_formula(n, tables),
        )
    return rec.finish()


def run_bellshift(tables: tuple[int, ...] | None = None) -> VerificationOutcome:
    """Shift-expansion relative errors at each n of DEFAULT_BELLSHIFT_NS:
    bounded by 3*log(n)/n and strictly decreasing in n for each shift h."""
    rec = _Recorder("bellshift")
    if tables is None:
        tables = build_tables(max(DEFAULT_BELLSHIFT_NS) + max(BELL_SHIFTS))
    for h in BELL_SHIFTS:
        seq = [bell_shift_error(n, h, tables) for n in DEFAULT_BELLSHIFT_NS]
        for n, err in zip(DEFAULT_BELLSHIFT_NS, seq):
            bound = 3.0 * math.log(n) / n
            rec.check_that(f"bound n={n} h={h}", err <= bound, f"<= {bound!r}", repr(err))
        rec.check_that(
            f"decreasing h={h}",
            all(a > b for a, b in zip(seq, seq[1:])),
            "strictly decreasing",
            repr(seq),
        )
    return rec.finish()


def run_asym(tables: tuple[int, ...] | None = None) -> VerificationOutcome:
    """Exact/estimate ratios at each n of DEFAULT_ASYM_NS stay inside
    (0.2, 1.5); the ratio sequence and the unresolved leading-constant
    question ride along as diagnostics."""
    rec = _Recorder("asym")
    if tables is None:
        tables = build_tables(max(DEFAULT_ASYM_NS) + REPORT_REACH)
    reports = asymptotic_report(DEFAULT_ASYM_NS, tables)
    for rep in reports:
        rec.check_that(
            f"ratio n={rep.n}",
            0.2 < rep.ratio < 1.5,
            "in (0.2, 1.5)",
            repr(rep.ratio),
        )
    diagnostics = {
        "ratios": [[rep.n, rep.ratio] for rep in reports],
        "leading_constant_flag": True,
        "leading_constant_note": LEADING_CONSTANT_NOTE,
    }
    return rec.finish(diagnostics)


def run_all(tables: tuple[int, ...] | None = None) -> VerificationOutcome:
    """Every other suite of ``SUITES`` at its default caps, merged into one
    outcome: the cases summed, each failure's id prefixed with its suite,
    and each suite's diagnostics under its name.  One Bell table, built
    here unless given, serves every suite of ``_TABLE_SUITES``."""
    rec = _Recorder("all")
    if tables is None:
        # bellshift's n = 1000 is the largest default n of any suite.
        tables = build_tables(max(DEFAULT_BELLSHIFT_NS) + max(BELL_SHIFTS))
    diagnostics: dict = {}
    for suite, run in SUITES.items():
        if suite == "all":
            continue
        outcome = run(tables=tables) if suite in _TABLE_SUITES else run()
        rec.cases_run += outcome.cases_run
        rec.failures += [
            CaseFailure(f"{suite}: {f.id}", f.expected, f.actual) for f in outcome.failures
        ]
        if outcome.diagnostics is not None:
            diagnostics[suite] = outcome.diagnostics
    return rec.finish(diagnostics or None)


# The suites that take a Bell table; run_all shares one among them.
_TABLE_SUITES = ("thm2", "thm3", "bellshift", "asym")

SUITES: dict[str, Callable[..., VerificationOutcome]] = {
    "eq1": run_eq1,
    "recurrence": run_recurrence,
    "lemma2": run_lemma2,
    "propn": run_propn,
    "thm2": run_thm2,
    "thm3": run_thm3,
    "bellshift": run_bellshift,
    "asym": run_asym,
    "all": run_all,
}
