"""The verification-suite engine: pass/fail bookkeeping and JSON shape."""

import __future__
import ast
import dataclasses
import functools
import inspect
import json
import re
import textwrap
import time
from fractions import Fraction

import pytest

from partition_records import cli, closedform, genfunc, powerseries, setpartitions, verify
from partition_records.powerseries import BiSeries
from partition_records.setpartitions import DEFAULT_ENUMERATION_CAP
from partition_records.verify import CaseFailure, VerificationOutcome
from test_powerseries import schoolbook_exp, schoolbook_mul


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


def test_thm2_over_the_whole_formula_range(tables):
    # every n that total --method egf serves: 13 block sums, and a formula
    # and an integrality case for each n <= FORMULA_CAP
    out = verify.run_thm2(max_n=closedform.FORMULA_CAP, tables=tables)
    assert out.passed
    assert out.cases_run == 13 + 2 * (closedform.FORMULA_CAP + 1) == 1015


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
        return g.substitute_x_qpow(1) if k == 2 else g

    monkeypatch.setattr(genfunc, "gf_recurrence", perturbed)
    out = verify.run_recurrence(max_k=3, order=6)
    assert out.cases_run == 3
    # the recurrence side is one chain, so the wrong G_2 (x -> x q, which
    # moves its first row x^2 q^5 to x^2 q^7) feeds G_3 (whose first row
    # x^3 q^14 moves to x^3 q^(3 + 7 + 2*3)) and fails k = 3 as well
    assert out.failures == [
        CaseFailure("recurrence k=2", "{x^2: {5: 1}}", "{x^2: {7: 1}}"),
        CaseFailure("recurrence k=3", "{x^3: {14: 1}}", "{x^3: {16: 1}}"),
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


def test_lemma2_reports_the_cell_of_one_wrong_word(monkeypatch):
    # the census reads swrec once per prefix of length n - 2, so a wrong
    # swrec of 121 moves the 10 words of P_5 that extend it, each by 1
    real = setpartitions.swrec
    monkeypatch.setattr(setpartitions, "swrec", lambda w: real(w) + (tuple(w) == (1, 2, 1)))
    out = verify.run_lemma2(max_k=3, order=8, max_n=5)
    assert out.cases_run == 3 + 15
    # the closed form gives 97, 433 and 335 for k = 2, 3, 4; the census
    # side gains 1 per word that extends 121: 4 in P_{5,2} (12111, 12112,
    # 12121, 12122), 5 in P_{5,3} (12113, 12123, 12131, 12132, 12133) and
    # 1 in P_{5,4} (12134)
    assert out.failures == [
        CaseFailure("coeff n=5 k=2", "101", "97"),
        CaseFailure("coeff n=5 k=3", "438", "433"),
        CaseFailure("coeff n=5 k=4", "336", "335"),
    ]


def test_lemma2_walks_each_n_once(monkeypatch):
    real = setpartitions.enumerate_rgs
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(setpartitions, "enumerate_rgs", recording)
    assert verify.run_lemma2(max_k=3, order=8, max_n=5).passed
    # one walk of the prefixes of length n - 2 per n; n = 1 has none
    assert calls == [((n - 2,), {}) for n in range(2, 6)]


def test_lemma2_at_the_enumeration_cap():
    # the census walks B_10 = 115,975 prefixes for n = 12 and the suite
    # takes 0.5-0.9 s; visiting all 4.2M words of P_12 one by one took
    # 6.5-9.8 s on the same 2-CPU host
    started = time.perf_counter()
    out = verify.run_lemma2(max_n=DEFAULT_ENUMERATION_CAP)
    elapsed = time.perf_counter() - started
    # 6 series cases (k <= 6) and 78 coeff cells (k <= n <= 12)
    assert out.passed and out.cases_run == 6 + 78
    assert elapsed < 3.0


def test_lemma2_reports_a_wrong_chain_step(monkeypatch):
    real = genfunc.gf_recurrence

    def perturbed(k, order, below=None):
        g = real(k, order, below)
        return g.substitute_x_qpow(1) if k == 2 else g

    monkeypatch.setattr(genfunc, "gf_recurrence", perturbed)
    out = verify.run_lemma2(max_k=3, order=4, max_n=1)
    assert out.cases_run == 3 + 1
    # x -> x q in G_2 adds n to each x^n total of P_{n,2}; G_3, one step
    # from that G_2, inherits the fault
    assert out.failures == [
        CaseFailure("series k=2", "[0, 0, 7, 26, 71]", "[0, 0, 5, 17, 43]"),
        CaseFailure("series k=3", "[0, 0, 0, 16, 110]", "[0, 0, 0, 14, 95]"),
    ]


def test_lemma2_steps_one_chain(monkeypatch):
    # the series side takes one product per k and builds no product form
    products, real_mul = [], BiSeries.__mul__
    built, real_product = [], genfunc.gf_product

    def counting_mul(self, factor):
        products.append(factor)
        return real_mul(self, factor)

    def counting_product(*args):
        built.append(args)
        return real_product(*args)

    monkeypatch.setattr(BiSeries, "__mul__", counting_mul)
    monkeypatch.setattr(genfunc, "gf_product", counting_product)
    assert verify.run_lemma2(6, 12, 1).passed
    assert built == []
    assert len(products) == 6


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


def _bell_terms():
    return tuple((h, *entry) for h, entry in closedform.BELL_FORM_4T.items())


def test_mutation_suites_pass_unmutated(tables):
    assert closedform._BELL_TERMS == _bell_terms()
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
        # total_swrec_formula reads the triples built once from the table
        monkeypatch.setattr(closedform, "_BELL_TERMS", _bell_terms())
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
# Mutants of the enumeration counts: total_swrec_bruteforce and its
# coefficient tables, swrec_histogram, swrec_census and their two-letter
# class kernel are rewritten in memory, one integer literal moved by +-1
# or one + / - swapped at a time; every suite that runs the mutated
# function must then fail a case or raise.
# ---------------------------------------------------------------------------


class _Mutate(ast.NodeTransformer):
    """Moves the index-th integer literal by delta (kind "int"), or swaps
    the index-th + or - (kind "op"), counting sites in visiting order;
    ``seen`` ends as the number of sites of that kind."""

    def __init__(self, kind, index, delta):
        self.kind, self.index, self.delta, self.seen = kind, index, delta, 0

    def _hit(self):
        self.seen += 1
        return self.seen - 1 == self.index

    def visit_Constant(self, node):
        if self.kind == "int" and type(node.value) is int and self._hit():
            return ast.copy_location(ast.Constant(node.value + self.delta), node)
        return node

    def _swap(self, node):
        self.generic_visit(node)
        if self.kind == "op" and isinstance(node.op, (ast.Add, ast.Sub)) and self._hit():
            node.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
        return node

    visit_BinOp = visit_AugAssign = _swap


# Each counting function with the functions its mutants reach; a name's
# sites are those of its functions in turn.  total_swrec_bruteforce reads
# its per-maximum coefficients from _closed_sum_tables, and swrec_histogram
# its classes from the kernel _two_letter_classes, so their sites run on
# into those; swrec_census shares the kernel and has its own body's.
_COUNTING = {
    "total_swrec_bruteforce": ("total_swrec_bruteforce", "_closed_sum_tables"),
    "swrec_histogram": ("swrec_histogram", "_two_letter_classes"),
    "swrec_census": ("swrec_census",),
}

# The suites that run each function; every one must fail its mutants.
_RUN_BY = {
    "total_swrec_bruteforce": ("thm3",),
    "_closed_sum_tables": ("thm3",),
    "swrec_histogram": ("eq1",),
    "_two_letter_classes": ("eq1", "lemma2"),
    "swrec_census": ("lemma2",),
}


def _compiled(module, qualname, transformer):
    """The function or method ``qualname`` of ``module``, rewritten by
    ``transformer`` and compiled in the module's namespace."""
    target = functools.reduce(getattr, qualname.split("."), module)
    tree = ast.parse(textwrap.dedent(inspect.getsource(target)))
    tree = ast.fix_missing_locations(transformer.visit(tree))
    namespace = dict(vars(module))
    flags = __future__.annotations.compiler_flag
    exec(compile(tree, module.__file__, "exec", flags=flags, dont_inherit=True), namespace)
    return namespace[target.__name__]


def _rewrite(module, qualname, kind, index, delta):
    """``qualname`` rewritten by _Mutate, and the mutator (to read ``seen``)."""
    mutator = _Mutate(kind, index, delta)
    return _compiled(module, qualname, mutator), mutator


def _mutants(module, qualname):
    """Every (kind, index, delta) that _Mutate can apply to ``qualname``."""
    return [
        (kind, index, delta)
        for kind, deltas in (("int", (1, -1)), ("op", (0,)))
        for index in range(_rewrite(module, qualname, kind, -1, 0)[1].seen)
        for delta in deltas
    ]


def _count_mutants(name):
    """Every (kind, index, delta, function, index in function) of ``name``:
    the sites of its functions are numbered in turn, per kind."""
    found = []
    for kind, deltas in (("int", (1, -1)), ("op", (0,))):
        sites = [
            (function, local)
            for function in _COUNTING[name]
            for local in range(_rewrite(setpartitions, function, kind, -1, 0)[1].seen)
        ]
        found += [(kind, index, delta, *site) for index, site in enumerate(sites) for delta in deltas]
    return found


_COUNT_MUTANTS = [(name, *m) for name in _COUNTING for m in _count_mutants(name)]

# Mutants that cannot change any answer, each with its proof; empty today.
_EQUIVALENT_COUNT_MUTANTS: dict[tuple, str] = {}


def _count_mutant_id(name, kind, index, delta):
    return f"{name}-{kind}{index}" + (f"{delta:+d}" if kind == "int" else "")


def test_count_mutant_sites_cover_every_counting_function(monkeypatch):
    sites = {(name, kind) for name, kind, *_ in _COUNT_MUTANTS}
    assert sites == {(name, kind) for name in _COUNTING for kind in ("int", "op")}
    assert {function for *_, function, _ in _COUNT_MUTANTS} == set(_RUN_BY)
    assert set(_EQUIVALENT_COUNT_MUTANTS) <= {tuple(m[:4]) for m in _COUNT_MUTANTS}
    # the unmutated rewrites are the functions themselves, case for case
    expected = [[getattr(setpartitions, name)(n) for n in range(8)] for name in _COUNTING]
    for function in _RUN_BY:
        rewritten, _ = _rewrite(setpartitions, function, "int", -1, 0)
        monkeypatch.setattr(setpartitions, function, rewritten)
    assert [[getattr(setpartitions, name)(n) for n in range(8)] for name in _COUNTING] == expected


@pytest.mark.parametrize(
    "name, kind, index, delta, function, local",
    _COUNT_MUTANTS,
    ids=[_count_mutant_id(*m[:4]) for m in _COUNT_MUTANTS],
)
def test_every_enumeration_count_is_pinned(
    monkeypatch, tables, name, kind, index, delta, function, local
):
    if (name, kind, index, delta) in _EQUIVALENT_COUNT_MUTANTS:
        pytest.skip(_EQUIVALENT_COUNT_MUTANTS[name, kind, index, delta])
    rewritten, _ = _rewrite(setpartitions, function, kind, local, delta)
    monkeypatch.setattr(setpartitions, function, rewritten)
    suites = {**_mutation_suites(tables), "eq1": lambda: verify.run_eq1(max_n=7)}
    passed = [suite for suite in _RUN_BY[function] if _passes(lambda: suites[suite]().passed)]
    assert passed == []


# ---------------------------------------------------------------------------
# Mutants of the series-by-factor product: BiSeries.__mul__ is rewritten in
# memory the same way; eq1, whose enumeration side shares no BiSeries code,
# must then fail a case or raise, but for the two lists below.
# ---------------------------------------------------------------------------


_PRODUCT_MUTANTS = _mutants(powerseries, "BiSeries.__mul__")

# Mutants that cannot change any answer, each with its proof.
_EQUIVALENT_PRODUCT_MUTANTS = {
    ("op", 6, 0): "max(...) + lo only lengthens out with zeros past both terms; _trimmed cuts them",
}

# Mutants that change only rows whose c q^qstep row[n-1] term reaches above
# q^qbase S[n-1].  No product of the package has such a row, so eq1 cannot
# see them: S's top q-power rises by more than qstep per x-power (in
# gf_product the earlier factors have the larger steps; in gf_recurrence
# the substitution adds kk per x-power and qstep is 0).  One product that
# has such a row must show each of them instead.
_EQ1_BLIND_PRODUCT_MUTANTS = {
    ("op", 5, 0): "rlo - len(rcs): out stops before the top of the c q^qstep row[n-1] term",
    ("op", 8, 0): "plo + lo in the slice stop: pcs overwrites, and so drops, entries past it",
    ("op", 9, 0): "a slice stop below its start: pcs is inserted, pushing later entries up",
}


def _product_above_the_series_holds():
    # x / (1 - x) * x q / (1 - x q^5): [x^3] = q + q^6, the q^6 from q^5 row[2]
    product = BiSeries.one(1) * BiSeries.geometric(1, 0, 0) * BiSeries.geometric(1, 1, 5)
    return list(product.terms()) == [(2, 1, 1), (3, 1, 1), (3, 6, 1)]


def test_product_mutant_sites_cover_ints_and_ops(monkeypatch):
    assert {kind for kind, _, _ in _PRODUCT_MUTANTS} == {"int", "op"}
    assert set(_EQUIVALENT_PRODUCT_MUTANTS) | set(_EQ1_BLIND_PRODUCT_MUTANTS) <= set(
        _PRODUCT_MUTANTS
    )
    # the unmutated rewrite is the method itself
    rewritten, _ = _rewrite(powerseries, "BiSeries.__mul__", "int", -1, 0)
    expected = [genfunc.gf_product(k, 7) for k in range(1, 5)]
    monkeypatch.setattr(BiSeries, "__mul__", rewritten)
    assert [genfunc.gf_product(k, 7) for k in range(1, 5)] == expected
    assert verify.run_eq1(max_n=7).passed and _product_above_the_series_holds()


def _passes(check):
    try:
        return check()
    except Exception:  # a mutant that raises is caught as well
        return False


@pytest.mark.parametrize(
    "kind, index, delta",
    _PRODUCT_MUTANTS,
    ids=[_count_mutant_id("BiSeries.__mul__", *m) for m in _PRODUCT_MUTANTS],
)
def test_every_product_step_is_pinned(monkeypatch, kind, index, delta):
    mutant = (kind, index, delta)
    monkeypatch.setattr(BiSeries, "__mul__", _rewrite(powerseries, "BiSeries.__mul__", *mutant)[0])
    above = _passes(_product_above_the_series_holds)
    if mutant in _EQ1_BLIND_PRODUCT_MUTANTS:
        assert not above
        return
    eq1 = _passes(lambda: verify.run_eq1(max_n=7).passed)
    if mutant in _EQUIVALENT_PRODUCT_MUTANTS:
        assert eq1 and above  # as its proof says, no answer changes
    else:
        assert not eq1


# ---------------------------------------------------------------------------
# Mutants of the start orders: gf_product and gf_recurrence start their
# products max(order - steps, 0) rows deep, as each factor adds a row, and
# each start is moved by +-1.  One row short leaves the product a row
# short of x^order, which truncate(order) refuses, so eq1 or recurrence
# must fail a case or raise; one row long is on the allow-list below.
# ---------------------------------------------------------------------------


class _MoveStart(ast.NodeTransformer):
    """Adds delta to the first argument of each max(...) call, counting the
    calls in ``seen``."""

    def __init__(self, delta):
        self.delta, self.seen = delta, 0

    def visit_Call(self, node):
        self.generic_visit(node)
        if isinstance(node.func, ast.Name) and node.func.id == "max":
            self.seen += 1
            node.args[0] = ast.BinOp(node.args[0], ast.Add(), ast.Constant(self.delta))
        return node


_STARTS = ("gf_product", "gf_recurrence")
_START_MUTANTS = [(name, delta) for name in _STARTS for delta in (1, -1)]

# Mutants that cannot change any answer, each with its proof.
_EQUIVALENT_START_MUTANTS = {
    (name, 1): "one row past x^order is built, and truncate(order) drops it" for name in _STARTS
}


def _product_suites_pass():
    return verify.run_eq1(max_n=7).passed and verify.run_recurrence(max_k=8, order=12).passed


def test_start_order_mutant_sites(monkeypatch):
    # each function has one start order, and the unmoved rewrite is the
    # function itself, for k below and above the order
    cases = [(name, k, order) for name in _STARTS for k, order in ((3, 7), (9, 4))]
    expected = [getattr(genfunc, name)(k, order) for name, k, order in cases]
    for name in _STARTS:
        mover = _MoveStart(0)
        monkeypatch.setattr(genfunc, name, _compiled(genfunc, name, mover))
        assert mover.seen == 1, name
    assert [getattr(genfunc, name)(k, order) for name, k, order in cases] == expected
    assert _product_suites_pass()


@pytest.mark.parametrize(
    "name, delta", _START_MUTANTS, ids=[f"{name}{delta:+d}" for name, delta in _START_MUTANTS]
)
def test_every_start_order_is_pinned(monkeypatch, name, delta):
    monkeypatch.setattr(genfunc, name, _compiled(genfunc, name, _MoveStart(delta)))
    if (name, delta) in _EQUIVALENT_START_MUTANTS:
        assert _product_suites_pass()  # as its proof says, no answer changes
    else:
        assert not _passes(_product_suites_pass)


# ---------------------------------------------------------------------------
# Mutants of the EGF product: UniSeries.__mul__ and the factorial basis of
# the rational constructor are rewritten in memory the same way.  egf_w
# builds its factors from integer numerators, so thm2, which compares the
# product W(x) with the Bell formula and with the block sums, sees only
# the product; both are also under one exact product of two dense series
# with d > 1, against the schoolbook product.  Each mutant must fail one
# of the two.  None of these mutants is equivalent, so there is no
# allow-list.
# ---------------------------------------------------------------------------


_EGF_PRODUCT_TARGETS = ("UniSeries.__mul__", "_over_factorial_basis")
_EGF_PRODUCT_MUTANTS = [
    (name, *m) for name in _EGF_PRODUCT_TARGETS for m in _mutants(powerseries, name)
]

# every coefficient past the constant is nonzero, the last one included
_DENSE = [Fraction(0), *(Fraction(p, q) for p, q in ((1, 3), (-2, 5), (7, 11), (3, 4), (-5, 7)))]
# a second one, with a nonzero constant and other denominators
_DENSE_B = [Fraction(p, q) for p, q in ((-2, 9), (5, 6), (1, 13), (-4, 3), (9, 10), (3, 8))]


def _with_egf_mutant(monkeypatch, name, kind, index, delta):
    rewritten = _rewrite(powerseries, name, kind, index, delta)[0]
    if name == "UniSeries.__mul__":
        monkeypatch.setattr(powerseries.UniSeries, "__mul__", rewritten)
    else:
        monkeypatch.setattr(powerseries, name, rewritten)


def _product_checks_pass(tables):
    dense = powerseries.UniSeries(_DENSE) * powerseries.UniSeries(_DENSE_B)
    return (
        verify.run_thm2(max_n=12, tables=tables).passed
        and dense.coeffs == schoolbook_mul(_DENSE, _DENSE_B)
    )


def test_egf_product_mutant_sites_cover_both_functions(monkeypatch, tables):
    assert {(name, kind) for name, kind, _, _ in _EGF_PRODUCT_MUTANTS} == {
        ("UniSeries.__mul__", "int"),
        ("UniSeries.__mul__", "op"),
        ("_over_factorial_basis", "int"),
    }
    assert all(powerseries.UniSeries(s).numerators()[1] > 1 for s in (_DENSE, _DENSE_B))
    # the unmutated rewrites are the functions themselves
    expected = closedform.egf_w(12, tables)
    for name in _EGF_PRODUCT_TARGETS:
        _with_egf_mutant(monkeypatch, name, "int", -1, 0)
    assert closedform.egf_w(12, tables) == expected
    assert _product_checks_pass(tables)


@pytest.mark.parametrize(
    "name, kind, index, delta",
    _EGF_PRODUCT_MUTANTS,
    ids=[_count_mutant_id(*m) for m in _EGF_PRODUCT_MUTANTS],
)
def test_every_egf_product_step_is_pinned(monkeypatch, tables, name, kind, index, delta):
    _with_egf_mutant(monkeypatch, name, kind, index, delta)
    assert not _passes(lambda: _product_checks_pass(tables))


# ---------------------------------------------------------------------------
# Mutants of the EGF exp: UniSeries.exp is rewritten in memory the same way.
# egf_w feeds exp only e^{jx}, whose factorial basis has d = 1 and one
# nonzero term, so thm2 cannot see a mutant of the power of d or of
# C(n-1, i-1) at i > 1.  Each mutant must fail thm2 or differ from the
# schoolbook exp of one fixed dense series with d > 1.  None of these
# mutants is equivalent, so there is no allow-list.
# ---------------------------------------------------------------------------


_EXP_MUTANTS = _mutants(powerseries, "UniSeries.exp")


def _exp_checks_pass(tables):
    return (
        verify.run_thm2(max_n=12, tables=tables).passed
        and powerseries.UniSeries(_DENSE).exp().coeffs == schoolbook_exp(_DENSE)
    )


def test_exp_mutant_sites_cover_ints_and_ops(monkeypatch, tables):
    assert {kind for kind, _, _ in _EXP_MUTANTS} == {"int", "op"}
    # the unmutated rewrite is the method itself
    expected = closedform.egf_w(12, tables)
    monkeypatch.setattr(
        powerseries.UniSeries, "exp", _rewrite(powerseries, "UniSeries.exp", "int", -1, 0)[0]
    )
    assert closedform.egf_w(12, tables) == expected
    assert _exp_checks_pass(tables)


@pytest.mark.parametrize(
    "kind, index, delta",
    _EXP_MUTANTS,
    ids=[_count_mutant_id("UniSeries.exp", *m) for m in _EXP_MUTANTS],
)
def test_every_exp_step_is_pinned(monkeypatch, tables, kind, index, delta):
    rewritten = _rewrite(powerseries, "UniSeries.exp", kind, index, delta)[0]
    monkeypatch.setattr(powerseries.UniSeries, "exp", rewritten)
    assert not _passes(lambda: _exp_checks_pass(tables))


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
