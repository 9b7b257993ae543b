"""The benchmark's workloads, their operations and their answer checks.

Every workload is a closed loop with one client: an operation starts when
the previous one has returned.  An *operation* is one call into a top-level
entry point, ``verify.SUITES[name](...)`` or ``cli.main(argv)``.  A *pass*
is the workload's fixed list of operations; the seed fixes the list, and
every pass of a run repeats it.  Each workload names the layer it stresses
and the layers it bypasses, so a proposed change can cite a workload and predict
which of its metrics a change should move and which must stay flat.
``silent`` lists the spans (by name prefix) the traced run requires never
to fire on that workload; every other installed span must fire.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from partition_records import cli, closedform, genfunc, verify

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` runs it, ``check`` returns None when the
    answer is right and a description of the mismatch otherwise."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    stresses: str
    bypasses: str
    silent: tuple[str, ...]
    # plan(rng, reference) -> new_pass; new_pass() does the pass's own
    # preparation (timed as part of the pass) and returns its operations.
    plan: Callable[[random.Random, "Reference"], Callable[[], list[Op]]]


class Reference:
    """Pinned totals of swrec over all partitions of [n]: brute-force
    values for small n, digests of EGF-route values above (see
    ``make_reference.py``)."""

    def __init__(self, path: Path = REFERENCE_PATH) -> None:
        data = json.loads(path.read_text(encoding="ascii"))
        self.brute_force: list[int] = data["brute_force"]
        self.first_digest_n: int = data["egf_digest_first_n"]
        self.digests: list[str] = data["egf_digests"]

    @property
    def max_n(self) -> int:
        return self.first_digest_n + len(self.digests) - 1

    def matches(self, n: int, text: str) -> bool:
        """True iff ``text`` is the decimal total for n."""
        if 0 <= n < len(self.brute_force):
            return text == str(self.brute_force[n])
        if self.first_digest_n <= n <= self.max_n:
            return digest(text) == self.digests[n - self.first_digest_n]
        return False


def digest(text: str) -> str:
    """First 16 hex digits of the SHA-256 of ``text``."""
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# verify operations
# ---------------------------------------------------------------------------

# Cases each suite runs at its default caps (1108 in all).
DEFAULT_CASES = {
    "eq1": 45, "recurrence": 6, "lemma2": 51, "propn": 254,
    "thm2": 715, "thm3": 13, "bellshift": 18, "asym": 6,
}
# verify.run_all builds one B_0..B_1003 table for the default caps and hands
# it to the suites that take one.
SHARED_TABLE_N = 1003
TABLE_SUITES = ("thm2", "thm3", "bellshift", "asym")

# gf-deep caps and the cases each suite then runs.  lemma2 keeps its
# enumeration cap at the default n <= 9.
GF_DEEP = {
    "recurrence": ({"max_k": 14, "order": 36}, 14),
    "lemma2": ({"max_k": 14, "order": 36}, 59),
    "propn": ({"max_k": 40, "points": 40}, 1604),
}


def _suite_op(suite: str, kwargs: dict, cases: int) -> Op:
    def call():
        return verify.SUITES[suite](**kwargs)

    def check(outcome) -> str | None:
        if not outcome.passed:
            return f"{len(outcome.failures)} failures, first {outcome.failures[0].id}"
        if outcome.cases_run != cases:
            return f"cases_run {outcome.cases_run}, expected {cases}"
        return None

    return Op(f"verify {suite}", call, check)


def plan_verify_default(rng: random.Random, reference: Reference):
    # The work is fixed by the default caps; the seed only orders the suites.
    suites = list(DEFAULT_CASES)
    rng.shuffle(suites)

    def new_pass() -> list[Op]:
        tables = closedform.build_tables(SHARED_TABLE_N, stirling_max_n=0)
        return [
            _suite_op(s, {"tables": tables} if s in TABLE_SUITES else {}, DEFAULT_CASES[s])
            for s in suites
        ]

    return new_pass


def plan_gf_deep(rng: random.Random, reference: Reference):
    # The seed only orders the suites.
    suites = list(GF_DEEP)
    rng.shuffle(suites)
    ops = [_suite_op(s, *GF_DEEP[s]) for s in suites]
    return lambda: ops


# ---------------------------------------------------------------------------
# cli operations
# ---------------------------------------------------------------------------


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_op(argv: list[str], check_stdout: Callable[[str], str | None]) -> Op:
    def check(result: CliResult) -> str | None:
        if result.code != 0:
            return f"exit {result.code}: {result.stderr.strip()[:200]}"
        return check_stdout(result.stdout)

    return Op(" ".join(argv), lambda: run_cli(argv), check)


def _grid(rng: random.Random, count: int, lo: int, hi: int, jitter: int) -> list[int]:
    """``count`` sizes, one near the middle of each of ``count`` equal
    slices of [lo, hi], moved by up to ``jitter`` either way."""
    return [
        min(hi, max(lo, round(lo + (hi - lo) * (i + 0.5) / count) + rng.randint(-jitter, jitter)))
        for i in range(count)
    ]


def _check_total(reference: Reference, n: int):
    def check(stdout: str) -> str | None:
        return None if reference.matches(n, stdout.strip()) else f"total for n={n} differs from the reference"

    return check


def _check_total_equals(n: int, expected: int):
    def check(stdout: str) -> str | None:
        return None if stdout.strip() == str(expected) else f"egf total for n={n} differs from the formula"

    return check


def _check_asymptotic(reference: Reference, ns: list[int]):
    def check(stdout: str) -> str | None:
        reports = json.loads(stdout)
        if [r["n"] for r in reports] != ns:
            return f"reports for n={[r['n'] for r in reports]}, asked for {ns}"
        for r in reports:
            n = r["n"]
            if not reference.matches(n, str(r["exact_total"])):
                return f"exact_total for n={n} differs from the reference"
            if not math.isclose(r["r"] * math.exp(r["r"]), n + 1, rel_tol=1e-9):
                return f"r={r['r']} does not solve r e^r = {n + 1}"
        return None

    return check


def _check_gf(k: int, max_n: int, fmt: str):
    # gf answers come from the product form; check them against the
    # recurrence form.
    expected = [list(t) for t in genfunc.gf_recurrence(k, max_n).terms()]

    def check(stdout: str) -> str | None:
        if fmt == "json":
            rows = json.loads(stdout)
        else:
            header, *lines = stdout.splitlines()
            if header != "n,s,count":
                return f"csv header {header!r}"
            rows = [[int(v) for v in line.split(",")] for line in lines]
        return None if rows == expected else f"gf k={k} max_n={max_n} differs from the recurrence form"

    return check


def plan_cli_queries(rng: random.Random, reference: Reference):
    # Sizes sit near a fixed grid with a small seeded jitter, so that the
    # cost of a pass does not depend on the seed while every seed still
    # sends different argv in a different order.
    formula_ns = _grid(rng, 30, 0, 500, 3)
    egf_ns = _grid(rng, 8, 0, 250, 3)
    asym_tops = _grid(rng, 4, 10, 1000, 3)
    tables = closedform.build_tables(max(egf_ns) + 3, stirling_max_n=0)
    ops = [
        _cli_op(["total", "--n", str(n)], _check_total(reference, n)) for n in formula_ns
    ]
    ops += [
        _cli_op(
            ["total", "--method", "egf", "--n", str(n)],
            _check_total_equals(n, closedform.total_swrec_formula(n, tables)),
        )
        for n in egf_ns
    ]
    for top in asym_tops:
        ns = [rng.randint(1, top) for _ in range(rng.randint(0, 2))] + [top]
        rng.shuffle(ns)
        ops.append(_cli_op(["asymptotic", "--ns", ",".join(map(str, ns))], _check_asymptotic(reference, ns)))
    for _ in range(3):
        k, max_n, fmt = rng.randint(1, 4), rng.randint(4, 10), rng.choice(["json", "csv"])
        argv = ["gf", "--k", str(k), "--max-n", str(max_n), "--format", fmt]
        ops.append(_cli_op(argv, _check_gf(k, max_n, fmt)))
    rng.shuffle(ops)
    return lambda: ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-default",
            # Measured: setpartitions ~92% of traced self time, powerseries ~4%,
            # closedform ~2%, genfunc ~1%.
            stresses=(
                "setpartitions enumeration (thm3 brute force; eq1 and lemma2 through "
                "k-restricted enumerate_rgs); closedform.egf_w through thm2; one shared "
                "B_0..B_1003 table build per pass"
            ),
            bypasses="cli entirely; the GF layer is only a few percent of a pass",
            silent=("cli.",),
            plan=plan_verify_default,
        ),
        Workload(
            name="gf-deep",
            # Measured: powerseries ~85% (almost all BiSeries products), genfunc
            # ~13%, setpartitions ~1%.
            stresses="powerseries BiSeries/UniSeries products and genfunc constructions",
            bypasses=(
                "closedform (no Bell tables), asymptotics, cli; enumeration is ~1.5% "
                "(lemma2 at n <= 9)"
            ),
            silent=(
                "setpartitions.swrec_histogram",
                "setpartitions.total_swrec_bruteforce",
                "powerseries.UniSeries.exp",
                "closedform.",
                "asymptotics.",
                "verify.run_eq1",
                "verify.run_thm",
                "verify.run_bellshift",
                "verify.run_asym",
                "cli.",
            ),
            plan=plan_gf_deep,
        ),
        Workload(
            name="cli-queries",
            # Measured: powerseries ~70% (UniSeries products of egf requests),
            # closedform ~25% (mostly Bell tables), cli ~4%.
            stresses=(
                "closedform: a fresh Bell table per request, Fraction UniSeries EGFs "
                "(powerseries unimul/exp); cli parsing and decimal output"
            ),
            bypasses="setpartitions and verify entirely; genfunc apart from small gf queries",
            silent=(
                "setpartitions.",
                "powerseries.UniSeries.reciprocal",
                "genfunc.gf_recurrence",
                "genfunc.total_swrec",
                "genfunc.partial_fraction",
                "genfunc.pole_expansion",
                "verify.",
            ),
            plan=plan_cli_queries,
        ),
    )
}
