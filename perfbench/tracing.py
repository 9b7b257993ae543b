"""Span tracing for the benchmark's traced run, installed from outside.

The program carries no tracing of its own.  ``Tracer.installed`` wraps the
public functions listed in ``SPANS`` and restores them afterwards.  A name
is replaced at every place it is bound: the defining module, every module
that did ``from .x import name``, and module-level dicts such as
``verify.SUITES``.  Patching only the defining module would miss the calls
``verify`` and ``cli`` make through their own bindings, so installation
fails if any binding of an original function is left.

A span covers one call.  On a generator (``enumerate_rgs``) it covers the
iteration until the generator is exhausted, so the caller's per-word loop
counts as enumeration time.  Per-word functions (``swrec``, ``srec``,
``rec_count``, ``records``) get no spans; the words walked and yielded are
computed from the call arguments instead (``observe_*`` below), and such
counters are labelled ``computed`` in the output.

Self time of a span is its duration minus the time covered by its child
spans.  Time spent computing counters is excluded from every span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator

PACKAGE = "partition_records"
SUITE_NAMES = ("eq1", "recurrence", "lemma2", "propn", "thm2", "thm3", "bellshift", "asym")

# (module, attribute, group): the functions that get a span, and the metric
# group their self time is charged to.  A group's first dotted part is its
# module, which is the layer.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("setpartitions", "enumerate_rgs", "setpartitions"),
    ("setpartitions", "swrec_histogram", "setpartitions"),
    ("setpartitions", "total_swrec_bruteforce", "setpartitions"),
    ("powerseries", "BiSeries.__mul__", "powerseries.bimul"),
    ("powerseries", "UniSeries.__mul__", "powerseries.unimul"),
    ("powerseries", "UniSeries.exp", "powerseries.exp"),
    ("powerseries", "UniSeries.reciprocal", "powerseries.reciprocal"),
    ("genfunc", "gf_product", "genfunc.gf_product"),
    ("genfunc", "gf_recurrence", "genfunc.gf_recurrence"),
    ("genfunc", "total_swrec_series", "genfunc.closed_form"),
    ("genfunc", "total_swrec_rational", "genfunc.closed_form"),
    ("genfunc", "partial_fraction_coeffs", "genfunc.closed_form"),
    ("genfunc", "partial_fraction_eval", "genfunc.closed_form"),
    ("genfunc", "pole_expansion_coeffs", "genfunc.closed_form"),
    ("closedform", "bell_numbers", "closedform.tables"),
    ("closedform", "egf_w", "closedform.egf_w"),
    ("closedform", "total_swrec_formula", "closedform.formula"),
    ("asymptotics", "asymptotic_report", "asymptotics"),
    ("asymptotics", "bell_shift_error", "asymptotics"),
    *(("verify", f"run_{suite}", f"verify.{suite}") for suite in SUITE_NAMES),
    ("cli", "main", "cli"),
)
MODULES = tuple(dict.fromkeys(module for module, _, _ in SPANS))


# -- computed counters ------------------------------------------------------
#
# Bell and Stirling numbers for the word counts, from the benchmark's own
# recurrences so that no program code runs inside the tracer.


@functools.lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _bell(n: int) -> int:
    return sum(_stirling2(n, k) for k in range(n + 1))


def observe_enumeration(counters: dict, arguments: dict, result) -> None:
    """enumerate_rgs(n, k) walks every RGS of length n (B_n words) and
    yields the S(n, k) with exactly k blocks; with k > n it walks none."""
    n, k = arguments["n"], arguments.get("k")
    if k is not None and k > n:
        return
    walked = _bell(n)
    counters["words"] += walked
    if k is not None:
        counters["restricted_walked"] += walked
        counters["restricted_yielded"] += _stirling2(n, k)


def observe_series_bits(counters: dict, arguments: dict, result) -> None:
    if result is not None:
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coeffs)
        counters["max_coeff_bits"] = max(counters["max_coeff_bits"], bits)


def observe_bell_bits(counters: dict, arguments: dict, result) -> None:
    if result:
        counters["bell_max_bits"] = max(counters["bell_max_bits"], result[-1].bit_length())


OBSERVERS: dict[str, Callable[[dict, dict, object], None]] = {
    "setpartitions.enumerate_rgs": observe_enumeration,
    "powerseries.UniSeries.__mul__": observe_series_bits,
    "powerseries.UniSeries.exp": observe_series_bits,
    "powerseries.UniSeries.reciprocal": observe_series_bits,
    "closedform.bell_numbers": observe_bell_bits,
}


class Tracer:
    """Collects spans and per-group times and counts, in memory.

    ``records`` holds one ``[span, start, end, parent record, operation]``
    list per call; spans of one operation share the operation index.
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self.operation = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.entries: dict[str, int] = defaultdict(int)  # calls from another layer
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.group_calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.errors: list[str] = []
        self._stack: list[list] = []  # [span, group, record index, start, child seconds]

    # -- spans --------------------------------------------------------

    def _enter(self, span: str, group: str) -> list:
        parent = self._stack[-1] if self._stack else None
        index = len(self.records)
        self.records.append([span, 0.0, 0.0, parent[2] if parent else None, self.operation])
        if parent is None or parent[1].split(".")[0] != group.split(".")[0]:
            self.entries[group] += 1
        frame = [span, group, index, 0.0, 0.0]
        self._stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        span, group, index, start, child = frame
        if not self._stack or self._stack[-1] is not frame:
            self.errors.append(f"span {span} closed out of order")
            return
        self._stack.pop()
        elapsed = end - start
        self.records[index][1:3] = [start, end]
        self.calls[span] += 1
        self.group_calls[group] += 1
        self.self_s[group] += elapsed - child
        self.total_s[group] += elapsed
        if self._stack:
            self._stack[-1][4] += elapsed

    def _observe(self, observer, signature, args, kwargs, result) -> None:
        """Update computed counters; the time this takes is charged to no span."""
        started = perf_counter()
        observer(self.counters, signature.bind(*args, **kwargs).arguments, result)
        if self._stack:
            self._stack[-1][4] += perf_counter() - started

    def wrap(self, span: str, group: str, fn: Callable) -> Callable:
        observer = OBSERVERS.get(span)
        signature = inspect.signature(fn)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_span(*args, **kwargs):
                frame = self._enter(span, group)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._exit(frame)
                    if observer is not None:
                        self._observe(observer, signature, args, kwargs, None)

            return generator_span

        @functools.wraps(fn)
        def call_span(*args, **kwargs):
            frame = self._enter(span, group)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(frame)
                if observer is not None:
                    self._observe(observer, signature, args, kwargs, result)

        return call_span

    # -- installation ---------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator[list[str]]:
        """Patch every binding of every ``SPANS`` function; yield the names
        of the spans installed, and restore the originals on exit."""
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        undo: list[Callable[[], None]] = []
        installed: list[str] = []
        originals: dict[int, str] = {}
        try:
            for module, attr, group in SPANS:
                owner = modules[f"{PACKAGE}.{module}"]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner).get(leaf)
                span = f"{module}.{attr}"
                if not callable(original):
                    raise LookupError(f"cannot trace {span}: not found")
                wrapper = self.wrap(span, group, original)
                originals[id(original)] = span
                sites = [(owner, leaf)] + [
                    (container, key)
                    for _, container, key, value in _binding_sites(modules.values())
                    if value is original and not (container is owner and key == leaf)
                ]
                for container, key in sites:
                    _assign(container, key, wrapper)
                    undo.append(functools.partial(_assign, container, key, original))
                installed.append(span)
            missed = [
                f"{site} still binds {originals[id(value)]}"
                for site, _, _, value in _binding_sites(modules.values())
                if id(value) in originals
            ]
            if missed:
                raise LookupError("; ".join(missed))
            yield installed
        finally:
            for restore in reversed(undo):
                restore()


def _binding_sites(modules) -> Iterator[tuple[str, object, object, object]]:
    """(site, container, key, value) for every top-level binding of the
    given modules and every entry of a top-level dict, such as
    ``verify.SUITES``."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if key.startswith("__"):
                continue
            yield f"{module.__name__}.{key}", module, key, value
            if isinstance(value, dict):
                for inner, item in list(value.items()):
                    yield f"{module.__name__}.{key}[{inner!r}]", value, inner, item


def _assign(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)
