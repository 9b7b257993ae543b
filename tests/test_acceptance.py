"""Acceptance gate: every verification target at its full advertised scale.

Each test covers one gate criterion, runs it at the stated caps (exact
equality unless a bound is part of the statement), and prints one
PASS line; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from partition_records import (
    UniSeries,
    cli,
    egf_w,
    enumerate_rgs,
    gf_product,
    gf_recurrence,
    partial_fraction_coeffs,
    partial_fraction_eval,
    pole_expansion_coeffs,
    swrec,
    swrec_histogram,
    total_swrec_bruteforce,
    total_swrec_formula,
    total_swrec_rational,
    total_swrec_series,
    verify,
)
from partition_records.asymptotics import asymptotic_report, bell_shift_error
from partition_records.verify import CaseFailure, VerificationOutcome


@pytest.fixture(scope="module")
def brute_totals():
    """Enumeration totals for n = 0..12 (the heavyweight oracle, run once)."""
    return {n: total_swrec_bruteforce(n) for n in range(13)}


@pytest.fixture(scope="module")
def block_counts_by_n():
    """Counter of block counts over P_n for n = 0..12, from the raw stream."""
    out = {}
    for n in range(13):
        out[n] = Counter(max(w) if w else 0 for w in enumerate_rgs(n))
    return out


def test_product_gf_matches_enumeration_histograms():
    # 45 (n, k) cells with 1 <= k <= n <= 9, exact multiset equality
    cells = 0
    for k in range(1, 10):
        series = gf_product(k, 9)
        for n in range(k, 10):
            assert series.q_coefficients(n) == dict(swrec_histogram(n, k)), (n, k)
            cells += 1
    assert cells == 45
    print("PASS product-vs-enumeration: 45 cells exact")


def test_product_and_recurrence_agree():
    for k in range(1, 7):
        assert gf_product(k, 12) == gf_recurrence(k, 12), k
    print("PASS product-vs-recurrence: k <= 6 at order 12, coefficient-wise")


def test_weighted_sums_match_closed_form_and_enumeration():
    for k in range(1, 7):
        assert gf_product(k, 12).q_weighted_sum() == total_swrec_series(k, 12), k
    for n in range(1, 10):
        for k in range(1, n + 1):
            expected = sum(swrec(w) for w in enumerate_rgs(n, k))
            assert total_swrec_series(k, n)[n] == expected, (n, k)
    print("PASS weighted-sum closed form: k <= 6 through x^12; totals exact for n <= 9")


def test_partial_fractions_reconstruct_rational_form():
    for k in range(1, 11):
        decomp = partial_fraction_coeffs(k)
        for step in range(25):
            y = Fraction(2 * (k + 1) + step, 2)
            assert partial_fraction_eval(decomp, y) == total_swrec_rational(k, y), (k, y)
    spot = partial_fraction_coeffs(2)
    assert pole_expansion_coeffs(2, 1) == (spot.a[1], spot.b[1]) == (-2, -7)
    assert pole_expansion_coeffs(2, 2)[1] == spot.b[2] == 7
    print("PASS partial fractions: k <= 10 x 25 points exact; spot residues match oracle")


def test_egf_matches_block_sums_and_formula(tables):
    w_small = egf_w(12, tables)
    per_k = [total_swrec_series(k, 12) for k in range(1, 13)]
    for n in range(13):
        block_sum = sum(s[n] for s in per_k)
        assert w_small.egf_coefficient(n) == block_sum, n
    w_big = egf_w(203, tables)
    for n in range(201):
        assert w_big.egf_coefficient(n) == total_swrec_formula(n, tables), n
    for n in range(501):
        assert isinstance(total_swrec_formula(n, tables), int), n
    print("PASS aggregate EGF: block sums n <= 12; Bell formula n <= 200; integral n <= 500")


def test_bell_formula_matches_bruteforce(tables, brute_totals):
    for n in range(13):
        assert total_swrec_formula(n, tables) == brute_totals[n], n
    assert brute_totals[2] == 6
    assert brute_totals[3] == 32
    assert brute_totals[10] == 8962070
    print("PASS Bell formula vs brute force: n = 0..12 exact (6, 32, 8962070 spot-checked)")


def test_bell_shift_error_bounds(tables):
    ns = (10, 50, 100, 500, 1000)
    for h in (1, 2, 3):
        errors = [bell_shift_error(n, h, tables) for n in ns]
        for n, err in zip(ns, errors):
            assert err <= 3 * math.log(n) / n, (n, h, err)
        assert all(a > b for a, b in zip(errors, errors[1:])), (h, errors)
    print("PASS shift expansion: errors <= 3 log(n)/n and strictly decreasing, h = 1..3")


def test_asymptotic_ratio_diagnostics(tables):
    ns = (10, 50, 100, 200, 400, 800)
    reports = asymptotic_report(ns, tables)
    for rep in reports:
        assert 0.2 < rep.ratio < 1.5, (rep.n, rep.ratio)
    outcome = verify.run_asym(tables=tables)
    assert outcome.passed
    assert outcome.diagnostics["leading_constant_flag"] is True
    ratio_seq = [r for _, r in outcome.diagnostics["ratios"]]
    assert ratio_seq == [rep.ratio for rep in reports]
    print(
        "PASS asymptotic diagnostics: ratios in (0.2, 1.5); sequence "
        + ", ".join(f"{r:.3f}" for r in ratio_seq)
        + " (leading constant flagged, convergence not asserted)"
    )


def test_infrastructure(tables, stirling2, block_counts_by_n, monkeypatch, capsys):
    # series exponential reproduces the Bell EGF built from the table
    inner = UniSeries([0] + [Fraction(1, math.factorial(n)) for n in range(1, 31)])
    assert inner.exp() == UniSeries([Fraction(tables[n], math.factorial(n)) for n in range(31)])

    # stream counts match B_n and S(n, k) for n <= 12
    for n in range(13):
        counts = block_counts_by_n[n]
        assert sum(counts.values()) == tables[n], n
        for k in range(1, n + 1):
            assert counts[k] == stirling2(n, k), (n, k)
    for n in range(10):  # the k-filtered stream itself, per cell
        for k in range(1, n + 1):
            assert sum(1 for _ in enumerate_rgs(n, k)) == stirling2(n, k)

    # CLI determinism: identical flags, byte-identical output
    args = [sys.executable, "-m", "partition_records", "gf", "--k", "2", "--max-n", "8"]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    # exit-code contract: 0 zero failures, 1 any failure, 2 usage errors
    passing = subprocess.run(
        [sys.executable, "-m", "partition_records", "verify", "--suite", "recurrence",
         "--max-k", "3"],
        capture_output=True,
        text=True,
    )
    assert passing.returncode == 0
    assert json.loads(passing.stdout)["failures"] == []

    def broken():
        return VerificationOutcome("recurrence", 1, [CaseFailure("c", "1", "2")], 0.1)

    monkeypatch.setitem(verify.SUITES, "recurrence", broken)
    assert cli.main(["verify", "--suite", "recurrence"]) == 1
    capsys.readouterr()

    usage = subprocess.run(
        [sys.executable, "-m", "partition_records", "verify", "--suite", "made-up"],
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2

    print("PASS infrastructure: Bell EGF dual build to order 30; stream counts n <= 12; CLI contract")
