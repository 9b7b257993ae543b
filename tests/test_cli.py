"""CLI contract: flags, formats, exit codes, determinism."""

import contextlib
import csv
import inspect
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_records import bell_numbers, cli, genfunc, setpartitions, verify
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
    "value, error",
    [
        ("501", "error: --max-n=501 exceeds the formula cap 500\n"),
        ("-3", "error: --max-n=-3 must be >= 0\n"),
    ],
)
def test_verify_errors_name_the_flag(value, error, capsys):
    # run_thm2 refuses the range and names its keyword max_n
    assert cli.main(["verify", "--suite", "thm2", "--max-n", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == error


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
        (["--suite", "thm2", "--max-n", "7"], {"max_n": 7}),
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


@pytest.mark.parametrize(
    "argv, error",
    [
        (["total", "--n", "-5"], "--n=-5 must be >= 0"),
        (["total", "--n", "-2", "--method", "egf"], "--n=-2 must be >= 0"),
        (["total", "--n", "501"], "--n=501 exceeds the formula cap 500"),
        (["total", "--n", "13", "--method", "brute"], "--n=13 exceeds the enumeration cap 12"),
        (["gf", "--k", "2", "--max-n", "-1"], "--max-n=-1 must be >= 0"),
        (["gf", "--k", "0", "--max-n", "3"], "--k=0 must be >= 1"),
        (["gf", "--k", "2", "--max-n", "61"], "--max-n=61 exceeds the gf cap 60"),
        (["enumerate", "--n", "3", "--k", "0"], "--k=0 must be >= 1"),
        (["enumerate", "--n", "13"], "--n=13 exceeds the enumeration cap 12"),
        (["asymptotic", "--ns", "1001"], "--ns=1001 exceeds the asymptotic cap 1000"),
        (["verify", "--suite", "recurrence", "--order", "-1"], "--order=-1 must be >= 0"),
        (["verify", "--suite", "lemma2", "--order", "-1"], "--order=-1 must be >= 0"),
        (
            ["verify", "--suite", "propn", "--max-k", "2000", "--points", "1"],
            "--max-k=2000 exceeds the propn cap 60",
        ),
        (
            ["verify", "--suite", "recurrence", "--max-k", "3", "--order", "20000"],
            "--order=20000 exceeds the gf cap 60",
        ),
        # every minimum is checked before any cap
        (["verify", "--suite", "recurrence", "--max-k", "31", "--order", "-1"], "--order=-1 must be >= 0"),
        (["asymptotic", "--ns", ",".join(["1"] * 1001)], "--ns count=1001 exceeds the asymptotic cap 1000"),
        (["asymptotic", "--ns", ",".join(["1000"] * 1000)], None),
    ],
)
def test_usage_errors_name_the_flag(argv, error, monkeypatch, capsys):
    def stand_in(*args, **kwargs):
        raise _WorkStarted

    monkeypatch.setattr(cli, "build_tables", stand_in)
    if error is None:  # a size at its cap reaches the work
        with pytest.raises(_WorkStarted):
            cli.main(argv)
        return
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


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


def test_cache_env_var_is_ignored(tmp_path):
    # A Bell-number cache file with one wrong digit in B_17.
    bell = bell_numbers(30)
    bell[17] += 10**6
    (tmp_path / "bell.txt").write_text("".join(f"{n} {b}\n" for n, b in enumerate(bell)))
    env = dict(os.environ, PARTITION_RECORDS_CACHE=str(tmp_path))
    res = run_cli("total", "--n", "16", env=env)
    assert res.returncode == 0
    assert res.stdout.strip() == "2303066401903"


@pytest.mark.parametrize(
    "argv",
    [
        ["asymptotic", "--ns", "10", "--json"],
        ["enumerate", "--n", "3", "--cap", "20"],
        ["total", "--n", "3", "--brute-cap", "20"],
        ["total", "--n", "3", "--formula-cap", "900"],
    ],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class _WorkStarted(Exception):
    pass


@pytest.mark.parametrize(
    "template, cap",
    [
        (["asymptotic", "--ns", "{}"], 1000),
        (["asymptotic", "--ns", "10,{},20"], 1000),
        (["gf", "--k", "{}", "--max-n", "3"], 30),
        (["gf", "--k", "2", "--max-n", "{}"], 60),
        (["total", "--n", "{}"], 500),
        (["total", "--n", "{}", "--method", "egf"], 500),
        (["verify", "--suite", "thm2", "--max-n", "{}"], 500),
        (["verify", "--suite", "recurrence", "--max-k", "{}", "--order", "2"], 30),
        (["verify", "--suite", "recurrence", "--max-k", "2", "--order", "{}"], 60),
        (["verify", "--suite", "lemma2", "--max-k", "{}", "--order", "2"], 30),
        (["verify", "--suite", "lemma2", "--max-k", "2", "--order", "{}"], 60),
        (["verify", "--suite", "propn", "--max-k", "{}", "--points", "2"], 60),
        (["verify", "--suite", "propn", "--max-k", "2", "--points", "{}"], 100),
    ],
)
def test_sizes_past_a_cap_are_usage_errors(template, cap, monkeypatch, capsys):
    # Stand-ins for the first costly call of each command: reaching one
    # means the size passed the cap check.
    def stand_in(*args, **kwargs):
        raise _WorkStarted

    for module, name in (
        (cli, "build_tables"),
        (cli, "gf_product"),
        (verify, "build_tables"),
        (genfunc, "gf_product"),
        (genfunc, "partial_fraction_coeffs"),
    ):
        monkeypatch.setattr(module, name, stand_in)
    with pytest.raises(_WorkStarted):
        cli.main([arg.format(cap) for arg in template])
    assert cli.main([arg.format(cap + 1) for arg in template]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# Argv for the CLI contract property.  Sizes stay small enough to start no
# real work: enumeration sizes are at most 8 or past the cap of 12, and
# every verify run gives each of its suite's caps explicitly.  Each option
# is given with a chance in tenths: 9 for required flags, 5 for optional
# ones, 2 for the removed ones and for verify flags the suite does not take.
_SMALL = st.integers(-3, 14)
_ENUM_N = st.sampled_from([*range(-3, 9), 13, 14])
_VERIFY_CAPS = ("max_n", "max_k", "order", "points")


def _given(draw, tenths: int) -> bool:
    return draw(st.integers(0, 9)) < tenths


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["enumerate", "total", "gf", "verify", "asymptotic"]))
    if command == "verify":
        suite = draw(st.sampled_from(sorted(verify.SUITES)))
        accepted = verify.SUITE_RANGES[suite]
        flags = [f for f in _VERIFY_CAPS if f in accepted or _given(draw, 2)]
        if not flags:  # bellshift, asym and all take no caps and would run in full
            flags = [draw(st.sampled_from(_VERIFY_CAPS))]
        argv = ["verify", "--suite", suite]
        for flag in flags:
            argv += ["--" + flag.replace("_", "-"), str(draw(_ENUM_N if flag == "max_n" else _SMALL))]
        return argv
    # (flag, values or None for a bare switch, chance in tenths)
    options = {
        "enumerate": [
            ("--n", _ENUM_N, 9),
            ("--k", _SMALL, 5),
            ("--stat", st.sampled_from(["swrec", "srec", "rec", "max"]), 5),
            ("--cap", _SMALL, 2),
        ],
        "total": [
            ("--n", _ENUM_N, 9),
            ("--method", st.sampled_from(["formula", "brute", "egf", "dp"]), 5),
            ("--brute-cap", _SMALL, 2),
            ("--formula-cap", _SMALL, 2),
        ],
        "gf": [
            ("--k", _SMALL, 9),
            ("--max-n", _SMALL, 9),
            ("--format", st.sampled_from(["json", "csv", "xml"]), 5),
        ],
        "asymptotic": [
            ("--ns", st.lists(st.sampled_from(["-1", "0", "1", "3", "14", "1001", "x", " ", ""]),
                              max_size=3).map(",".join), 9),
            ("--json", None, 2),
        ],
    }[command]
    argv = [command]
    for flag, values, tenths in options:
        if _given(draw, tenths):
            argv += [flag] if values is None else [flag, str(draw(values))]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "--" in err.getvalue()  # the line names the flag at fault
