"""Spans around the benchmark's calls into spheremat, and timing summaries.

Every call the benchmark makes into a layer goes through `tracer.call`.
The untraced run uses `Timer`, which only times the call, and the traced
run uses `Tracer`, which also keeps spans in memory as tuples
`(span_id, parent_id, op_id, layer, fn, start, end)`; each operation of a
workload is a root span in the `bench` layer, and the spans of one
operation share its `op_id`.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from collections import Counter, defaultdict

# The tail is the highest of these percentiles with at least ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count: int) -> float:
    return next((p for p in TAIL_LADDER if count * (1 - p / 100) >= 10), 50.0)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def latency_summary(seconds) -> dict:
    """Median and tail in ms, with the tail's percentile and the sample count."""
    pct = tail_percentile(len(seconds))
    return {
        "p50_ms": statistics.median(seconds) * 1e3,
        "tail_ms": percentile(seconds, pct) * 1e3,
        "tail_pct": pct,
        "count": len(seconds),
    }


class Calibrator:
    """Samples the machine's speed while a workload runs.

    The hosts this runs on drift in speed by tens of percent over seconds
    and minutes, which swamps the differences a benchmark must resolve.
    Every PERIOD_S a SIGALRM handler times a fixed piece of pure-Python
    integer arithmetic; the kernel's median time over an interval, relative
    to REFERENCE_S, is the machine's slowdown there, by which the worker
    scales latencies to time on a reference machine. Time spent in the
    handler is subtracted from every measured interval.
    """

    PERIOD_S = 0.05
    REFERENCE_S = 1e-3  # the kernel's median time on the reference machine
    _MATRIX = ((3, 1, 4, 1), (5, 9, 2, 6), (5, 3, 5, 8), (9, 7, 9, 3))

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def __enter__(self) -> "Calibrator":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @classmethod
    def kernel(cls) -> None:
        a = cls._MATRIX
        for _ in range(40):
            cols = tuple(zip(*a))
            a = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 1009 for col in cols) for row in a)

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - start
        self.stamps.append(start)
        self.durations.append(took)
        self.spent += took

    def slowdown(self, start: float, end: float) -> float:
        """The machine's slowness over [start, end] relative to the reference."""
        lo, hi = bisect.bisect_left(self.stamps, start), bisect.bisect_right(self.stamps, end)
        window = self.durations[lo:hi] or self.durations[-3:] or [self.REFERENCE_S]
        return statistics.median(window) / self.REFERENCE_S


class Timer:
    """Times the benchmark's calls into spheremat.

    `op_time` sums the calls of the current operation, so an operation's
    latency is the time spent in the library, not in the benchmark's checks.
    Calibration samples taken during a call are not counted.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.op_time = 0.0

    def _elapsed(self, start: float, spent: float) -> float:
        return time.perf_counter() - start - (self.calibrator.spent - spent)

    def call(self, layer, fn, func, *args):
        start, spent = time.perf_counter(), self.calibrator.spent
        try:
            return func(*args)
        finally:
            self.op_time += self._elapsed(start, spent)

    def begin_op(self) -> None:
        self.op_time = 0.0

    def end_op(self, kind: str, failed_layer) -> None:
        pass


class Tracer(Timer):
    """A Timer that also records a span per call and one per operation."""

    def __init__(self, calibrator: Calibrator) -> None:
        super().__init__(calibrator)
        self.spans: list[tuple] = []
        self.failed: Counter = Counter()
        self._stack: list[tuple[int, float]] = []
        self._next_id = 1
        self._op_id = 0

    def _open(self) -> None:
        self._stack.append((self._next_id, time.perf_counter()))
        self._next_id += 1

    def _close(self, layer: str, fn: str) -> None:
        end = time.perf_counter()
        span_id, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((span_id, parent, self._op_id, layer, fn, start, end))

    def call(self, layer, fn, func, *args):
        start, spent = time.perf_counter(), self.calibrator.spent
        self._open()
        try:
            return func(*args)
        finally:
            self._close(layer, fn)
            self.op_time += self._elapsed(start, spent)

    def begin_op(self) -> None:
        self.op_time = 0.0
        self._op_id += 1
        self._open()

    def end_op(self, kind: str, failed_layer) -> None:
        self._close("bench", kind)
        if failed_layer:
            self.failed[failed_layer] += 1


def layer_stats(spans, failed: Counter, layers, functions, busy_functions) -> dict:
    """Per-layer calls, self time and failures, plus per-function call counts
    and median durations, for the fixed layer and function lists.

    A span's self time is its duration minus the time its child spans cover.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, _, start, end in spans:
        if parent:
            child_time[parent] += end - start
    calls: Counter = Counter()
    busy: dict[str, float] = defaultdict(float)
    durations: dict[tuple[str, str], list[float]] = defaultdict(list)
    for span_id, _, _, layer, fn, start, end in spans:
        if layer == "bench":
            continue
        calls[layer] += 1
        busy[layer] += end - start - child_time[span_id]
        durations[layer, fn].append(end - start)
    unknown = set(durations) - set(functions)
    if unknown:
        raise ValueError(f"spans for functions outside the metric list: {sorted(unknown)}")
    out = {}
    for layer in layers:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.failed"] = failed[layer]
    for layer, fn in functions:
        times = durations.get((layer, fn), [])
        out[f"{layer}.{fn}.calls"] = len(times)
        out[f"{layer}.{fn}.p50_us"] = statistics.median(times) * 1e6 if times else 0.0
    for layer, fn in busy_functions:
        out[f"{layer}.{fn}.busy_s"] = sum(durations.get((layer, fn), []))
    return out
