"""The verification-suite engine: pass/fail bookkeeping and JSON shape."""

import inspect
import re

import pytest

from partition_records import verify
from partition_records.verify import CaseFailure, VerificationOutcome


def test_eq1_small():
    out = verify.run_eq1(max_n=4)
    assert out.passed
    assert out.cases_run == 1 + 2 + 3 + 4


def test_recurrence_small():
    out = verify.run_recurrence(max_k=3, order=8)
    assert out.passed and out.cases_run == 3


def test_lemma2_small():
    out = verify.run_lemma2(max_k=3, order=8, max_n=5)
    assert out.passed
    assert out.cases_run == 3 + (1 + 2 + 3 + 4 + 5)


def test_propn_small():
    out = verify.run_propn(max_k=3, points=5)
    assert out.passed and out.cases_run == 3 * 5 + 4


def test_thm2_small(tables):
    out = verify.run_thm2(max_n=20, tables=tables)
    assert out.passed
    assert out.cases_run == 13 + 21 + 501


def test_thm3_small(tables):
    out = verify.run_thm3(max_n=6, tables=tables)
    assert out.passed and out.cases_run == 7


def test_bellshift_small(tables):
    out = verify.run_bellshift(tables=tables)
    assert out.passed
    assert out.cases_run == 5 * 3 + 3


def test_asym_diagnostics(tables):
    out = verify.run_asym(tables=tables)
    assert out.passed
    assert out.cases_run == 6
    assert out.diagnostics is not None
    assert out.diagnostics["leading_constant_flag"] is True
    assert [n for n, _ in out.diagnostics["ratios"]] == [10, 50, 100, 200, 400, 800]
    ratios = [r for _, r in out.diagnostics["ratios"]]
    assert all(0.2 < r < 1.5 for r in ratios)


def test_outcome_passed_reflects_failures():
    ok = VerificationOutcome("x", 3, [], 1.0)
    bad = VerificationOutcome("x", 3, [CaseFailure("c", "1", "2")], 1.0)
    assert ok.passed and not bad.passed


def test_outcome_json_schema():
    out = VerificationOutcome("x", 2, [CaseFailure("c", "1", "2")], 1.5, {"k": 1})
    d = out.to_json_dict()
    assert d["suite"] == "x"
    assert d["cases_run"] == 2
    assert d["failures"] == [{"id": "c", "expected": "1", "actual": "2"}]
    assert d["elapsed_ms"] == 1.5
    assert d["diagnostics"] == {"k": 1}
    plain = VerificationOutcome("y", 0, [], 0.1).to_json_dict()
    assert "diagnostics" not in plain


def test_failures_sorted_by_case_id():
    rec = verify._Recorder()
    rec.check("b", 1, 2)
    rec.check("a", 1, 2)
    import time

    out = rec.finish("x", time.perf_counter())
    assert [f.id for f in out.failures] == ["a", "b"]


def test_suite_registry_complete():
    assert set(verify.SUITES) == {
        "eq1",
        "recurrence",
        "lemma2",
        "propn",
        "thm2",
        "thm3",
        "bellshift",
        "asym",
        "all",
    }
    # Each suite's size row names exactly the keywords the suite takes.
    assert set(verify.SUITE_RANGES) == set(verify.SUITES)
    for suite, run in verify.SUITES.items():
        parameters = set(inspect.signature(run).parameters) - {"tables"}
        assert set(verify.SUITE_RANGES[suite]) == parameters, suite


_REFUSED = [
    ("eq1", {"max_n": 0}, "max_n=0 must be >= 1"),
    ("eq1", {"max_n": -3}, "max_n=-3 must be >= 1"),
    ("recurrence", {"max_k": 0}, "max_k=0 must be >= 1"),
    ("recurrence", {"max_k": -1}, "max_k=-1 must be >= 1"),
    ("lemma2", {"max_k": 0}, "max_k=0 must be >= 1"),
    ("lemma2", {"max_n": 0}, "max_n=0 must be >= 1"),
    ("propn", {"max_k": 0}, "max_k=0 must be >= 1"),
    ("propn", {"points": 0}, "points=0 must be >= 1"),
    ("thm2", {"max_n": -3}, "max_n=-3 must be >= 0"),
    ("recurrence", {"order": -1}, "order=-1 must be >= 0"),
    ("lemma2", {"order": -1}, "order=-1 must be >= 0"),
    ("thm3", {"max_n": -3}, "max_n=-3 must be >= 0"),
    # past a cap: refused before any work, too
    ("eq1", {"max_n": 13}, "max_n=13 exceeds the enumeration cap 12"),
    ("thm3", {"max_n": 13}, "max_n=13 exceeds the enumeration cap 12"),
    ("lemma2", {"max_n": 13}, "max_n=13 exceeds the enumeration cap 12"),
    ("recurrence", {"max_k": 31}, "max_k=31 exceeds the gf cap 30"),
    ("lemma2", {"max_k": 31}, "max_k=31 exceeds the gf cap 30"),
    ("recurrence", {"order": 61}, "order=61 exceeds the gf cap 60"),
    ("lemma2", {"order": 61}, "order=61 exceeds the gf cap 60"),
    ("propn", {"max_k": 61}, "max_k=61 exceeds the propn cap 60"),
    ("propn", {"points": 101}, "points=101 exceeds the propn cap 100"),
    ("thm2", {"max_n": 501}, "max_n=501 exceeds the formula cap 500"),
]


@pytest.mark.parametrize(
    "suite, kwargs, error",
    _REFUSED,
    ids=[f"{suite}-kwargs{i}" for i, (suite, _, _) in enumerate(_REFUSED)],
)
def test_ranges_that_leave_cases_out_are_refused(suite, kwargs, error):
    # The suite itself refuses the range and names the keyword.
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        verify.SUITES[suite](**kwargs)


def test_smallest_accepted_ranges_run_cases(tables):
    assert verify.run_eq1(max_n=1).cases_run == 1
    assert verify.run_recurrence(max_k=1, order=0).cases_run == 1
    assert verify.run_lemma2(max_k=1, order=0, max_n=1).cases_run == 2
    assert verify.run_propn(max_k=1, points=1).cases_run == 1 + 4
    assert verify.run_thm2(max_n=0, tables=tables).cases_run == 13 + 1 + 501
    assert verify.run_thm3(max_n=0, tables=tables).cases_run == 1
