"""The benchmark's span contract holds for the program as it stands.

A traced benchmark run wraps every function in ``perfbench/tracing.py``'s
``SPANS`` and marks itself incorrect when an installed span never fires
(unless its workload lists the span as ``silent``, which then must not
fire), when a span's target is missing (``LookupError``), or when an
operation fails.  This test runs one traced pass of each workload at a
fixed seed with the benchmark's own ``worker.run_pass``,
``tracing.Tracer`` and ``worker.check_spans``, so a change that stops
calling a span target, or deletes one, fails here rather than only in a
benchmark run.

The benchmark's modules are imported without writing bytecode, so no
``perfbench/__pycache__`` is left behind to change a later benchmark
run's start-up time.
"""

import random
import sys
from pathlib import Path

import pytest

from partition_records import verify
from partition_records.asymptotics import BELL_SHIFTS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_perfbench():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        import tracing
        import worker
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
    return tracing, worker, workloads


tracing, worker, workloads = _import_perfbench()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_is_correct_and_fires_every_span(name):
    workload = workloads.WORKLOADS[name]
    new_pass = workload.plan(random.Random(1), workloads.Reference())
    state = {"attempted": 0, "failed": 0, "errors": [], "latencies": []}
    tracer = tracing.Tracer()
    with tracer.installed() as installed:
        worker.run_pass(new_pass, state, tracer)
    assert state["attempted"] > 0
    assert (state["failed"], state["errors"]) == (0, [])
    assert worker.check_spans(tracer, installed, workload.silent) == []


def test_verify_default_shares_the_table_of_verify_all():
    # verify-default hands the suites of verify --suite all the same table
    # that run_all builds, to the same suites.
    assert workloads.SHARED_TABLE_N == max(verify.DEFAULT_BELLSHIFT_NS) + max(BELL_SHIFTS)
    assert workloads.TABLE_SUITES == verify._TABLE_SUITES
