"""Benchmark worker: one fresh process runs one workload.

``run.py`` starts this with ``PYTHONPATH`` set to the checkout's ``src``.
The worker imports the program, prints ``ready`` (the parent times process
start to this line as set-up), then runs timed passes until the next pass
would end after ``--seconds``, checks every answer, and prints one JSON
result line.  With ``--probe`` it exits right after ``ready``.

With ``--trace 1`` untraced and traced passes alternate; the difference of
their median pass times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import mpmath
import partition_records
from tracing import MODULES, SPANS, Tracer
from workloads import WORKLOADS, CliResult, Reference

SRC = Path(__file__).resolve().parent.parent / "src"


def run_pass(new_pass, state: dict, tracer: Tracer | None = None) -> float:
    """One timed pass; appends the pass's op latencies and check failures
    to ``state`` and returns the pass's wall seconds."""
    started = perf_counter()
    ops = new_pass()
    results, latencies = [], []
    for op in ops:
        if tracer is not None:
            tracer.operation += 1
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises is a failed operation
            result = exc
        latencies.append(perf_counter() - t0)
        results.append(result)
    seconds = perf_counter() - started
    state["latencies"].append(latencies)
    for op, result in zip(ops, results):
        state["attempted"] += 1
        if isinstance(result, Exception):
            error = f"raised {type(result).__name__}: {result}"
        else:
            try:
                error = op.check(result)
            except (ValueError, KeyError, TypeError) as exc:  # output that does not parse
                error = f"malformed output: {type(exc).__name__}: {exc}"
            if tracer is not None:
                _count_result(tracer, result)
        if error is not None:
            state["failed"] += 1
            state["errors"].append(f"{op.label}: {error}")
    return seconds


def _count_result(tracer: Tracer, result) -> None:
    if isinstance(result, CliResult):
        tracer.counters["out_bytes"] += len(result.stdout.encode())
    else:
        tracer.counters["cases"] += result.cases_run


# (metric, unit, source, key, computed): per-pass layer metrics of a traced
# run.  Sources: self/total = seconds of a span group, calls = calls of a
# group, entries = calls into a group from another layer, counter = a sum
# per pass, max = a maximum over the run.
LAYER_METRICS = (
    ("setpartitions.self_s", "s", "self", "setpartitions", False),
    ("setpartitions.calls", "count", "entries", "setpartitions", False),
    ("setpartitions.words", "count", "counter", "words", True),
    ("powerseries.bimul_self_s", "s", "self", "powerseries.bimul", False),
    ("powerseries.bimul_calls", "count", "calls", "powerseries.bimul", False),
    ("powerseries.unimul_self_s", "s", "self", "powerseries.unimul", False),
    ("powerseries.exp_self_s", "s", "self", "powerseries.exp", False),
    ("powerseries.reciprocal_self_s", "s", "self", "powerseries.reciprocal", False),
    ("powerseries.max_coeff_bits", "bits", "max", "max_coeff_bits", True),
    ("genfunc.gf_product_s", "s", "self", "genfunc.gf_product", False),
    ("genfunc.gf_recurrence_s", "s", "self", "genfunc.gf_recurrence", False),
    ("genfunc.closed_form_s", "s", "self", "genfunc.closed_form", False),
    ("closedform.tables_self_s", "s", "self", "closedform.tables", False),
    ("closedform.tables_calls", "count", "calls", "closedform.tables", False),
    ("closedform.bell_max_bits", "bits", "max", "bell_max_bits", True),
    ("closedform.egf_w_self_s", "s", "self", "closedform.egf_w", False),
    ("closedform.formula_self_s", "s", "self", "closedform.formula", False),
    ("asymptotics.self_s", "s", "self", "asymptotics", False),
    ("asymptotics.calls", "count", "entries", "asymptotics", False),
    *((f"verify.{g.split('.')[1]}_s", "s", "total", g, False) for _, _, g in SPANS if g.startswith("verify.")),
    ("verify.cases", "count", "counter", "cases", False),
    ("cli.self_s", "s", "self", "cli", False),
    ("cli.out_bytes", "bytes", "counter", "out_bytes", False),
)


def layer_metrics(tracer: Tracer, passes: int, traced_pass_s: float, untraced_pass_s: float) -> list:
    """[(metric, value, unit, computed)] per traced pass."""
    out = []
    for metric, unit, source, key, computed in LAYER_METRICS:
        if source == "max":
            value = tracer.counters[key]
        else:
            table = {"self": tracer.self_s, "total": tracer.total_s, "calls": tracer.group_calls,
                     "entries": tracer.entries, "counter": tracer.counters}[source]
            value = table[key] / passes
        out.append((metric, value, unit, computed))
    by_name = {m: v for m, v, _, _ in out}
    words, enum_s = by_name["setpartitions.words"], by_name["setpartitions.self_s"]
    walked = tracer.counters["restricted_walked"]
    out += [
        ("setpartitions.words_per_s", words / enum_s if enum_s else 0.0, "1/s", True),
        ("setpartitions.yield_ratio",
         tracer.counters["restricted_yielded"] / walked if walked else 0.0, "ratio", True),
    ]
    for module in MODULES:
        self_s = sum(s for g, s in tracer.self_s.items() if g.split(".")[0] == module) / passes
        out.append((f"share.{module}", 100.0 * self_s / traced_pass_s, "%", False))
    out += [
        ("trace.overhead_s", traced_pass_s - untraced_pass_s, "s", False),
        ("trace.spans", len(tracer.records) / passes, "count", False),
    ]
    return out


def check_spans(tracer: Tracer, installed: list[str], silent: tuple[str, ...]) -> list[str]:
    """Every installed span fires, except the workload's silent ones, which must not."""
    errors = []
    for span in installed:
        quiet = span.startswith(silent)
        if quiet and tracer.calls[span]:
            errors.append(f"span {span} fired {tracer.calls[span]} times but the workload bypasses it")
        elif not quiet and not tracer.calls[span]:
            errors.append(f"span {span} was installed but never fired")
    return errors + tracer.errors


def main() -> int:
    print("ready", flush=True)
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None, help="write traced span records here")
    args = parser.parse_args()
    if not Path(partition_records.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {partition_records.__file__}, not the checkout's src", file=sys.stderr)
        return 2
    if args.probe:
        return 0
    workload = WORKLOADS[args.workload]
    new_pass = workload.plan(random.Random(args.seed), Reference())
    state = {"attempted": 0, "failed": 0, "errors": [], "latencies": []}
    deadline = perf_counter() + args.seconds
    result: dict = {}
    # Passes run until the next one is predicted to end after the deadline
    # (at least one).  A traced run alternates untraced and traced passes,
    # so that drift during the run does not show up as tracing overhead.
    if args.trace:
        tracer = Tracer()
        untraced, traced = [], []
        while True:
            untraced.append(run_pass(new_pass, state))
            with tracer.installed() as installed:
                traced.append(run_pass(new_pass, state, tracer))
            if perf_counter() + statistics.median(untraced) + statistics.median(traced) > deadline:
                break
        span_errors = check_spans(tracer, installed, workload.silent)
        state["errors"] += span_errors
        result["layers"] = layer_metrics(
            tracer, len(traced), statistics.median(traced), statistics.median(untraced)
        )
        result["untraced_passes"], result["traced_passes"] = untraced, traced
        result["span_errors"] = len(span_errors)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.records), encoding="ascii")
    else:
        passes = result["passes"] = []
        while True:
            passes.append(run_pass(new_pass, state))
            if perf_counter() + statistics.median(passes) > deadline:
                break
    result.update(
        stresses=workload.stresses,
        bypasses=workload.bypasses,
        attempted=state["attempted"],
        failed=state["failed"],
        errors=state["errors"][:20],
        latencies=state["latencies"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version(),
        mpmath=mpmath.__version__,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
