"""CLI contract: flags, formats, exit codes, determinism."""

import csv
import inspect
import io
import json
import subprocess
import sys

import pytest

from partition_records import cli, setpartitions, verify
from partition_records.verify import CaseFailure, VerificationOutcome


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "partition_records", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_n3():
    res = run_cli("enumerate", "--n", "3")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["111", "112", "121", "122", "123"]


def test_enumerate_with_stat():
    res = run_cli("enumerate", "--n", "3", "--k", "2", "--stat", "swrec")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["112\t7", "121\t5", "122\t5"]


def test_enumerate_empty_word_marker():
    res = run_cli("enumerate", "--n", "0")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["ε"]


def test_enumerate_over_cap_is_usage_error():
    res = run_cli("enumerate", "--n", "13")
    assert res.returncode == 2
    assert res.stdout == ""


def test_enumerate_wide_words_are_dot_separated():
    res = run_cli("enumerate", "--n", "10", "--k", "10")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["1.2.3.4.5.6.7.8.9.10"]


# ---------------------------------------------------------------------------
# total
# ---------------------------------------------------------------------------


def test_total_brute():
    res = run_cli("total", "--n", "2", "--method", "brute")
    assert res.returncode == 0 and res.stdout.strip() == "6"


def test_total_formula():
    res = run_cli("total", "--n", "10", "--method", "formula")
    assert res.returncode == 0 and res.stdout.strip() == "8962070"


def test_total_methods_agree():
    for n in (0, 1, 4, 7):
        outs = {
            m: run_cli("total", "--n", str(n), "--method", m).stdout.strip()
            for m in ("formula", "brute", "egf")
        }
        assert len(set(outs.values())) == 1, outs


def test_total_brute_cap_exceeded():
    res = run_cli("total", "--n", "13", "--method", "brute")
    assert res.returncode == 2


def test_total_no_scientific_notation():
    res = run_cli("total", "--n", "60", "--method", "formula")
    assert res.returncode == 0
    text = res.stdout.strip()
    assert text.isdigit() and "e" not in text.lower()
    assert len(text) > 20  # genuinely big integer printed in full


# ---------------------------------------------------------------------------
# gf
# ---------------------------------------------------------------------------


def test_gf_json_rows():
    res = run_cli("gf", "--k", "2", "--max-n", "3")
    assert res.returncode == 0
    assert json.loads(res.stdout) == [[2, 5, 1], [3, 5, 2], [3, 7, 1]]


def test_gf_k1_rows():
    res = run_cli("gf", "--k", "1", "--max-n", "4")
    assert json.loads(res.stdout) == [[1, 1, 1], [2, 1, 1], [3, 1, 1], [4, 1, 1]]


def test_gf_csv_matches_json():
    js = json.loads(run_cli("gf", "--k", "3", "--max-n", "6").stdout)
    raw = run_cli("gf", "--k", "3", "--max-n", "6", "--format", "csv").stdout
    reader = csv.DictReader(io.StringIO(raw))
    assert reader.fieldnames == ["n", "s", "count"]
    rows = [[int(r["n"]), int(r["s"]), int(r["count"])] for r in reader]
    assert rows == js


def test_gf_bad_k_is_usage_error():
    res = run_cli("gf", "--k", "0", "--max-n", "3")
    assert res.returncode == 2


def test_enumerate_negative_n_is_usage_error():
    res = run_cli("enumerate", "--n", "-1")
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passing_suite():
    res = run_cli("verify", "--suite", "thm3", "--max-n", "5")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["suite"] == "thm3"
    assert payload["cases_run"] == 6
    assert payload["failures"] == []
    assert "elapsed_ms" in payload


def test_verify_eq1_cell_count():
    res = run_cli("verify", "--suite", "eq1", "--max-n", "6")
    assert res.returncode == 0
    assert json.loads(res.stdout)["cases_run"] == 21


@pytest.mark.parametrize("suite", ["thm3", "eq1", "lemma2"])
def test_verify_over_enumeration_cap_is_usage_error(suite, monkeypatch, capsys):
    def no_walk(*args, **kwargs):
        raise AssertionError("enumeration started past the cap")

    for name in ("enumerate_rgs", "swrec_histogram", "total_swrec_bruteforce"):
        monkeypatch.setattr(setpartitions, name, no_walk)
    rc = cli.main(["verify", "--suite", suite, "--max-n", "13"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "thm3", "--max-n", "-3"],
        ["--suite", "eq1", "--max-n", "-3"],
        ["--suite", "recurrence", "--max-k", "-1"],
        ["--suite", "lemma2", "--max-k", "0", "--max-n", "0"],
        ["--suite", "propn", "--max-k", "0"],
        ["--suite", "propn", "--points", "0"],
        ["--suite", "thm2", "--max-n", "-3"],
        # flags the suite does not take
        ["--suite", "all", "--max-n", "3"],
        ["--suite", "bellshift", "--max-n", "5"],
        ["--suite", "asym", "--points", "2"],
        ["--suite", "eq1", "--max-k", "2"],
        ["--suite", "thm3", "--order", "4"],
        ["--suite", "recurrence", "--max-n", "4"],
    ],
)
def test_verify_vacuous_or_ignored_flags_are_usage_errors(argv, monkeypatch, capsys):
    def no_run(**kwargs):
        raise AssertionError("suite started")

    for name in ("all", "bellshift", "asym"):
        monkeypatch.setitem(verify.SUITES, name, no_run)
    rc = cli.main(["verify", *argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, kwargs",
    [
        (["--suite", "eq1", "--max-n", "4"], {"max_n": 4}),
        (["--suite", "recurrence", "--max-k", "2", "--order", "5"], {"max_k": 2, "order": 5}),
        (
            ["--suite", "lemma2", "--max-n", "4", "--order", "5", "--max-k", "2"],
            {"max_k": 2, "order": 5, "max_n": 4},
        ),
        (["--suite", "propn", "--points", "3", "--max-k", "2"], {"max_k": 2, "points": 3}),
        (["--suite", "thm2", "--max-n", "7"], {"formula_max_n": 7}),
        (["--suite", "thm3", "--max-n", "5"], {"max_n": 5}),
        (["--suite", "bellshift"], {}),
        (["--suite", "asym"], {}),
        (["--suite", "all"], {}),
    ],
)
def test_verify_flags_set_suite_keywords(argv, kwargs, monkeypatch, capsys):
    seen = []
    suite = argv[1]
    assert set(kwargs) <= set(inspect.signature(verify.SUITES[suite]).parameters)

    def fake(**got):
        seen.append(got)
        return VerificationOutcome(suite, 1, [], 0.5)

    monkeypatch.setitem(verify.SUITES, suite, fake)
    assert cli.main(["verify", *argv]) == 0
    assert seen == [kwargs]
    capsys.readouterr()


def test_verify_unknown_suite_is_usage_error():
    res = run_cli("verify", "--suite", "nope")
    assert res.returncode == 2


def test_verify_failure_maps_to_exit_1(monkeypatch, capsys):
    def broken():
        return VerificationOutcome("eq1", 1, [CaseFailure("c", "1", "2")], 0.5)

    monkeypatch.setitem(verify.SUITES, "eq1", broken)
    rc = cli.main(["verify", "--suite", "eq1"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == [{"id": "c", "expected": "1", "actual": "2"}]


# ---------------------------------------------------------------------------
# asymptotic
# ---------------------------------------------------------------------------


def test_asymptotic_single():
    res = run_cli("asymptotic", "--ns", "10")
    assert res.returncode == 0
    (rep,) = json.loads(res.stdout)
    assert rep["exact_total"] == 8962070
    assert abs(rep["ratio"] - 0.386) < 1e-3


def test_asymptotic_empty_list():
    res = run_cli("asymptotic", "--ns", "")
    assert res.returncode == 0
    assert res.stdout.strip() == "[]"


def test_asymptotic_r_increases():
    res = run_cli("asymptotic", "--ns", "10,100")
    a, b = json.loads(res.stdout)
    assert a["r"] < b["r"]


def test_asymptotic_bad_list_is_usage_error():
    res = run_cli("asymptotic", "--ns", "10,banana")
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# cross-cutting contract
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_usage_error():
    res = run_cli()
    assert res.returncode == 2


def test_data_commands_are_deterministic():
    invocations = [
        ("enumerate", "--n", "4", "--stat", "swrec"),
        ("total", "--n", "8", "--method", "formula"),
        ("gf", "--k", "2", "--max-n", "6"),
        ("asymptotic", "--ns", "10,50"),
    ]
    for args in invocations:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_verify_deterministic_modulo_timing():
    outs = []
    for _ in range(2):
        res = run_cli("verify", "--suite", "recurrence", "--max-k", "3")
        payload = json.loads(res.stdout)
        payload.pop("elapsed_ms")
        outs.append(payload)
    assert outs[0] == outs[1]


def test_bell_cache_env_var(tmp_path):
    import os

    env = dict(os.environ, PARTITION_RECORDS_CACHE=str(tmp_path))
    first = run_cli("total", "--n", "9", "--method", "formula", env=env)
    assert first.returncode == 0
    cache = tmp_path / "bell.txt"
    assert cache.exists()
    stamp = cache.read_text()
    second = run_cli("total", "--n", "9", "--method", "formula", env=env)
    assert second.stdout == first.stdout
    assert cache.read_text() == stamp  # reused, not rewritten
