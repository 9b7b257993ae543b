"""The verification-suite engine: pass/fail bookkeeping and JSON shape."""

import dataclasses
import inspect
import json
import re

import pytest

from partition_records import cli, closedform, genfunc, setpartitions, verify
from partition_records.powerseries import BiSeries
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
    rec = verify._Recorder("bellshift")
    rec.check("b", 1, 2)
    rec.check("a", 1, 2)
    out = rec.finish()
    assert [f.id for f in out.failures] == ["a", "b"]


# ---------------------------------------------------------------------------
# Failure paths: one fault injected into one oracle per suite, and the
# exact failure list it must produce.
# ---------------------------------------------------------------------------


def test_recurrence_reports_first_bad_row(monkeypatch):
    real = genfunc.gf_recurrence

    def perturbed(k, order, below=None):
        g = real(k, order, below)
        return BiSeries.from_terms([*g.terms(), (4, 5, 1)], order) if k == 2 else g

    monkeypatch.setattr(genfunc, "gf_recurrence", perturbed)
    out = verify.run_recurrence(max_k=3, order=6)
    assert out.cases_run == 3
    # the recurrence side is one chain, so the wrong G_2 (an extra x^4 q^5)
    # feeds G_3 (an extra x^5 q^(3 + 5 + 4*3)) and fails k = 3 as well
    assert out.failures == [
        CaseFailure("recurrence k=2", "{x^4: {5: 4, 7: 2, 9: 1}}", "{x^4: {5: 5, 7: 2, 9: 1}}"),
        CaseFailure(
            "recurrence k=3",
            "{x^5: {14: 9, 17: 6, 19: 3, 20: 4, 22: 2, 24: 1}}",
            "{x^5: {14: 9, 17: 6, 19: 3, 20: 5, 22: 2, 24: 1}}",
        ),
    ]


def test_eq1_renders_histograms(monkeypatch):
    real = setpartitions.swrec_histogram

    def extra_entry(n, k=None):
        hist = real(n, k)
        if (n, k) == (5, 2):
            hist[99] += 1
        return hist

    monkeypatch.setattr(setpartitions, "swrec_histogram", extra_entry)
    out = verify.run_eq1(max_n=5)
    assert out.cases_run == 15
    assert out.failures == [
        CaseFailure("eq1 n=5 k=2", "{5: 8, 7: 4, 9: 2, 11: 1, 99: 1}", "{5: 8, 7: 4, 9: 2, 11: 1}")
    ]


def test_thm2_reports_a_non_integral_total(monkeypatch, tables):
    real = closedform.total_swrec_formula

    def raises_at_7(n, tables):
        if n == 7:
            raise ArithmeticError("not integral at n=7")
        return real(n, tables)

    monkeypatch.setattr(closedform, "total_swrec_formula", raises_at_7)
    out = verify.run_thm2(max_n=5, tables=tables)
    assert out.cases_run == 13 + 6 + 501
    assert out.failures == [CaseFailure("integer n=7", "integer", "not integral at n=7")]


def test_thm2_reports_a_raise_in_the_formula_range(monkeypatch, tables):
    real = closedform.total_swrec_formula
    calls = []

    def raises_at_3(n, tables):
        calls.append(n)
        if n == 3:
            raise ArithmeticError("not integral at n=3")
        return real(n, tables)

    monkeypatch.setattr(closedform, "total_swrec_formula", raises_at_3)
    out = verify.run_thm2(max_n=5, tables=tables)
    assert out.cases_run == 13 + 6 + 501
    assert out.failures == [
        CaseFailure("formula n=3", "not integral at n=3", str(real(3, tables))),
        CaseFailure("integer n=3", "integer", "not integral at n=3"),
    ]
    assert calls == list(range(501))


def test_bellshift_reports_bound_and_decay(monkeypatch, tables):
    monkeypatch.setattr(verify, "bell_shift_error", lambda n, h, tables: 1.0)
    out = verify.run_bellshift(tables=tables)
    bounds = {
        10: "0.6907755278982137",
        50: "0.23472138032568876",
        100: "0.13815510557964275",
        500: "0.03728764859053315",
        1000: "0.02072326583694641",
    }
    assert out.cases_run == 18
    assert out.failures == [
        CaseFailure(f"bound n={n} h={h}", f"<= {bounds[n]}", "1.0")
        for n in (10, 100, 1000, 50, 500)
        for h in (1, 2, 3)
    ] + [
        CaseFailure(f"decreasing h={h}", "strictly decreasing", "[1.0, 1.0, 1.0, 1.0, 1.0]")
        for h in (1, 2, 3)
    ]


# ---------------------------------------------------------------------------
# Mutants: every hand-typed constant of the closed forms is pinned.  Each
# mutant moves one constant by +-1; some suite must then fail a case or
# raise ArithmeticError.
# ---------------------------------------------------------------------------


def _mutation_suites(tables):
    return {
        "thm3": lambda: verify.run_thm3(max_n=8, tables=tables),
        "thm2": lambda: verify.run_thm2(max_n=12, tables=tables),
        "lemma2": lambda: verify.run_lemma2(5, 8, 6),
        "propn": lambda: verify.run_propn(5, 3),
    }


def _killed_by(tables) -> set[str]:
    killed = set()
    for suite, run in _mutation_suites(tables).items():
        try:
            if not run().passed:
                killed.add(suite)
        except ArithmeticError:
            killed.add(suite)
    return killed


def _lemma2_mutant(real, index, delta):
    """``real`` with C_k (index 0) or d_index moved by delta."""

    def mutant(k):
        big_c, d = real(k)
        if index == 0:
            return big_c + delta, d
        return big_c, {i: d_i + delta * (i == index) for i, d_i in d.items()}

    return mutant


def _pf_mutant(real, k, m, field, delta):
    """``real`` with the a_m (field "a_num") or b_m (field "b_num")
    numerator of k's decomposition moved by delta."""

    def mutant(kk):
        decomp = real(kk)
        if kk != k:
            return decomp
        nums = dict(getattr(decomp, field))
        nums[m] += delta
        return dataclasses.replace(decomp, **{field: nums})

    return mutant


# (kind, target, delta): "bell" moves the slope (field 0) or the const
# (field 1) of BELL_FORM_4T[h]; "bracket" moves W_BRACKET[(i, j)]; "lemma2"
# moves C_k (index 0) or d_index, for every k, of _lemma2_weights; "pf"
# moves the numerator field of a_m or b_m in partial_fraction_coeffs(k).
_MUTANTS = [
    (kind, target, delta)
    for kind, targets in [
        ("bell", [(h, field) for h in closedform.BELL_FORM_4T for field in (0, 1)]),
        ("bracket", list(closedform.W_BRACKET)),
        ("lemma2", range(6)),
        (
            "pf",
            [
                (k, m, field)
                for k in range(1, 6)
                for m in range(1, k + 1)
                for field in ("a_num", "b_num")
            ],
        ),
    ]
    for target in targets
    for delta in (1, -1)
]


def _label(kind, target) -> str:
    if kind == "bell":
        return f"h{target[0]}-{('slope', 'const')[target[1]]}"
    if kind == "bracket":
        return f"x^{target[0]}e^{target[1]}x"
    if kind == "pf":
        return "{2}-k{0}-m{1}".format(*target)
    return f"d{target}" if target else "C"


def test_mutation_suites_pass_unmutated(tables):
    assert _killed_by(tables) == set()


@pytest.mark.parametrize(
    "kind, target, delta",
    _MUTANTS,
    ids=[f"{kind}-{_label(kind, target)}{delta:+d}" for kind, target, delta in _MUTANTS],
)
def test_every_closed_form_constant_is_pinned(monkeypatch, tables, kind, target, delta):
    if kind == "pf":
        k, m, field = target
        mutant = _pf_mutant(genfunc.partial_fraction_coeffs, k, m, field, delta)
        monkeypatch.setattr(genfunc, "partial_fraction_coeffs", mutant)
        failed = {f.id for f in _mutation_suites(tables)["propn"]().failures}
        # the evaluation and, at k = 2, the spot checks read the same numerators
        assert any(i.startswith(f"reconstruct k={k} ") for i in failed)
        if k == 2:
            assert f"spot {field[0]} k=2 m={m}" in failed
        return
    if kind == "bell":
        h, field = target
        entry = list(closedform.BELL_FORM_4T[h])
        entry[field] += delta
        monkeypatch.setitem(closedform.BELL_FORM_4T, h, tuple(entry))
    elif kind == "bracket":
        monkeypatch.setitem(closedform.W_BRACKET, target, closedform.W_BRACKET[target] + delta)
    else:
        mutant = _lemma2_mutant(genfunc._lemma2_weights, target, delta)
        monkeypatch.setattr(genfunc, "_lemma2_weights", mutant)
    killed = _killed_by(tables)
    assert killed
    if kind == "lemma2":
        # both suites that read the weights catch each mutant on their own
        assert {"lemma2", "propn"} <= killed


# ---------------------------------------------------------------------------
# all
# ---------------------------------------------------------------------------


def test_all_merges_every_suite(monkeypatch):
    plan = {
        "eq1": (1, ["z"], None),
        "recurrence": (2, [], None),
        "lemma2": (3, ["b", "a"], {"x": 1}),
        "propn": (4, [], None),
        "thm2": (5, ["m"], None),
        "thm3": (6, [], None),
        "bellshift": (7, [], None),
        "asym": (8, ["r"], {"y": 2}),
    }
    calls = {}

    def stub(suite, cases, ids, diagnostics):
        def run(**kwargs):
            calls[suite] = kwargs
            failures = [CaseFailure(i, "e", "a") for i in ids]
            return VerificationOutcome(suite, cases, failures, 1.0, diagnostics)

        return run

    for suite, args in plan.items():
        run = stub(suite, *args)
        monkeypatch.setitem(verify.SUITES, suite, run)
        monkeypatch.setattr(verify, f"run_{suite}", run)
    table = object()
    out = verify.run_all(tables=table)
    assert out.suite == "all"
    assert out.cases_run == 36
    assert out.failures == [
        CaseFailure(i, "e", "a")
        for i in ["asym: r", "eq1: z", "lemma2: a", "lemma2: b", "thm2: m"]
    ]
    assert out.diagnostics == {"lemma2": {"x": 1}, "asym": {"y": 2}}
    assert calls == {
        suite: {"tables": table} if suite in verify._TABLE_SUITES else {} for suite in plan
    }


def test_all_runs_every_suite_on_one_table(capsys):
    assert cli.main(["verify", "--suite", "all"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "all"
    assert payload["cases_run"] == 1108
    assert payload["failures"] == []
    assert set(payload["diagnostics"]) == {"asym"}


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
    # run_all shares its table with exactly the suites that take one.
    assert set(verify._TABLE_SUITES) == {
        suite
        for suite, run in verify.SUITES.items()
        if suite != "all" and "tables" in inspect.signature(run).parameters
    }


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
