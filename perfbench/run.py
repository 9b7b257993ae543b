"""Benchmark of partition-records: end-to-end metrics per workload, and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; nothing needs building.  Each workload
runs single-threaded in its own fresh worker process (``worker.py``), with
``PYTHONPATH`` set to the checkout's ``src`` and no
``PARTITION_RECORDS_CACHE``.  The workloads, and why each was chosen, are
defined in ``workloads.py``.

End-to-end metrics (``--trace 0``):

    setup_s      median over several fresh processes of the seconds from
                 process start until partition_records (with mpmath) is
                 imported and ready
    pass_s       median wall seconds per pass, with quartiles and count
    op_p50_ms    median, over the operations of a pass, of each operation's
                 latency (its median over the run's passes)
    op_p90_ms    90th percentile of the same (nearest rank)
    peak_rss_mb  peak resident memory of the worker process

plus ``fail_ratio`` (failed / attempted operations), printed and carried by
the ``attempted`` and ``failed`` fields of the result line; a wrong answer,
a non-zero exit code or a raised exception fails an operation.  With
``--trace 1`` the per-layer metrics of ``worker.LAYER_METRICS`` are
reported instead, with the tracing overhead.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the run context (CPU count,
Python and mpmath versions, git commit, seed, traced) is the line before,
and the whole result is also written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("verify-default", "gf-deep", "cli-queries")
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60.0
WORKER_GRACE_S = 100.0  # time a worker may take beyond --seconds


class BenchmarkError(Exception):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PARTITION_RECORDS_CACHE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    return env


def _start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return it with the
    seconds from process start to ready."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = perf_counter() - started
    if line.strip() != "ready":
        _stop(proc)
        raise BenchmarkError("worker did not start; its error output is above")
    return proc, ready


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set-up probes, then the workload in a fresh worker; return its result."""
    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready = _start_worker(["--probe"])
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchmarkError("set-up probe did not exit") from None
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe exited {proc.returncode}")
        setups.append(ready)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    worker_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace))]
    if trace:
        worker_args += ["--spans-out", str(OUT_DIR / f"{stem}-spans.json")]
    proc, ready = _start_worker(worker_args)
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker ran longer than {seconds + WORKER_GRACE_S} s") from None
    finally:
        _stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["setups"] = setups
    result["context"] = _context(workload, seed, trace, result)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="ascii")
    return result


def _context(workload: str, seed: int, trace: bool, result: dict) -> dict:
    """The run context; takes the versions the worker reported out of ``result``."""
    return {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "nproc": os.cpu_count(),
        "python": result.pop("python"),
        "mpmath": result.pop("mpmath"),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not its own git repository."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel") or "/nonexistent").resolve() != ROOT:
            return "unknown"
        return git("rev-parse", "HEAD") or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    return sorted(values)[math.ceil(p / 100 * len(values)) - 1]


def end_to_end(result: dict) -> list[tuple[str, float, str, str]]:
    """[(metric, value, unit, note)] of an untraced result."""
    passes = result["passes"]
    quart = statistics.quantiles(passes, n=4, method="inclusive") if len(passes) > 1 else passes * 3
    # Every pass runs the same operations in the same order.  Each
    # operation's latency is its median over the passes, which keeps a
    # stretch of host interference from moving the percentiles.
    per_op = [statistics.median(column) for column in zip(*result["latencies"])]
    samples = f"{len(per_op)} ops x {len(passes)} passes"
    return [
        ("setup_s", statistics.median(result["setups"]), "s", f"median of {len(result['setups'])}"),
        ("pass_s", statistics.median(passes), "s",
         f"q1 {quart[0]:.4f}  q3 {quart[2]:.4f}  passes {len(passes)}"),
        ("op_p50_ms", 1000.0 * _percentile(per_op, 50), "ms", samples),
        ("op_p90_ms", 1000.0 * _percentile(per_op, 90), "ms", samples),
        ("peak_rss_mb", result["peak_rss_mb"], "MiB", "worker process"),
    ]


def report(workload: str, result: dict, trace: bool) -> dict:
    """Print one workload's metrics; return {metric: {"value", "unit"}}."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}  ({json.dumps(result['context'])})")
    print(f"   stresses: {result['stresses']}\n   bypasses: {result['bypasses']}")
    if trace:
        rows = [(m, v, u, "computed" if c else "") for m, v, u, c in result["layers"]]
        untraced = statistics.median(result["untraced_passes"])
        traced = statistics.median(result["traced_passes"])
        print(f"   untraced pass_s {untraced:.4f} ({len(result['untraced_passes'])} passes), "
              f"traced pass_s {traced:.4f} ({len(result['traced_passes'])} passes)")
    else:
        rows = end_to_end(result)
    for metric, value, unit, note in rows:
        print(f"   {metric:32} {value:>16.6f} {unit:6} {note}")
    print(f"   {'fail_ratio':32} {failed / max(attempted, 1):>16.6f} {'ratio':6} "
          f"failed {failed} of {attempted} operations")
    for error in result["errors"]:
        print(f"   FAIL {error}")
    return {m: {"value": v, "unit": u} for m, v, u, _ in rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "partition_records" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        shown = report(name, result, bool(args.trace))
        correct = correct and result["failed"] == 0 and not result.get("span_errors")
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + m: v for m, v in shown.items()})
        if len(names) == 1:
            print(json.dumps(result["context"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
