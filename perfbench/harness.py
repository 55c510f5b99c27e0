"""Measurement primitives shared by the workloads.

* percentiles, including the tail rule: report the highest percentile
  that still has at least ten samples beyond it, with the sample count;
* :class:`SpanLog` — spans kept in memory in compact arrays, with self
  time and the unattributed share computed after the run, and written
  out at the end as JSONL plus a Chrome ``trace_event`` document;
* :class:`OpenLoop` — a fixed-rate schedule whose requests are timed
  from when they were due, not from when they were sent;
* :class:`HostSpeed` — the host's speed, sampled between operations, so
  times can be reported at one reference speed;
* :func:`run_header` — what a reader needs to interpret the numbers.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail rule chooses from, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples a reported tail percentile must have beyond it.
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile (linear interpolation between ranks)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: Sequence[float],
                    candidates: Sequence[float] = TAIL_CANDIDATES
                    ) -> Tuple[Optional[float], Optional[float], int]:
    """(pct, value, n): the highest candidate percentile with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it.  ``(None, None, n)`` when
    even the lowest candidate is not supported."""
    count = len(samples)
    for pct in candidates:
        if round(count * (100.0 - pct) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return pct, percentile(samples, pct), count
    return None, None, count


def sliced_percentile(samples: Sequence[float], pct: float,
                      max_slices: int = 25) -> float:
    """*pct* of each consecutive slice of *samples*, median over slices.

    Each slice keeps at least :data:`TAIL_MIN_BEYOND` samples beyond the
    percentile; with fewer samples than one slice needs, this is the
    plain percentile.  A burst of CPU steal or one long collector pause
    then moves one slice, not the figure.
    """
    per_slice = math.ceil(TAIL_MIN_BEYOND * 100.0 / (100.0 - pct))
    slices = max(1, min(max_slices, len(samples) // per_slice))
    size = len(samples) // slices
    return statistics.median(
        percentile(samples[index * size:(index + 1) * size], pct)
        for index in range(slices))


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, p99 and the supported tail of one timing sample."""
    pct, value, count = tail_percentile(samples)
    return {
        "n": count,
        "p50": statistics.median(samples) if samples else None,
        "p99": percentile(samples, 99.0) if samples else None,
        "tail_pct": pct,
        "tail": value,
    }


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (a layer that did no
    work on this workload)."""
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Window:
    """What one measured window of a workload recorded.

    Times are as measured; :meth:`op_ms_ref`, :meth:`session_ms_ref`
    and :meth:`rate` give them at the reference speed of *speed*.
    """

    #: perf_counter() at the window's start, and its length.
    started: float
    seconds: float
    #: Latency of each of the workload's own operations, in ms.
    op_ms: Sequence[float]
    #: perf_counter() at which each of those operations completed.
    op_end: Sequence[float]
    #: Latency of each schema-change session beside them, in ms.
    session_ms: List[float]
    #: perf_counter() at which each of those sessions completed.
    session_end: List[float]
    #: The host's speed, sampled through the window.
    speed: "HostSpeed"
    #: An open loop's rate is its schedule's, so it is not rescaled.
    open_loop: bool = False
    #: How late an open-loop sender ran, per request, in ms.
    late_ms: List[float] = field(default_factory=list)

    def op_ms_ref(self) -> List[float]:
        return self.speed.scale(self.op_ms, self.op_end)

    def session_ms_ref(self) -> List[float]:
        return self.speed.scale(self.session_ms, self.session_end)

    def rate(self) -> float:
        """Operations completed per second; for a closed loop, per
        second at the reference speed, calibration runs left out."""
        if self.open_loop:
            return len(self.op_end) / self.seconds
        return len(self.op_end) / self.speed.reference_seconds(
            self.started, self.started + self.seconds)


# -- host speed ----------------------------------------------------------------

#: Records the reference loop builds in one calibration run.
REFERENCE_RECORDS = 300
#: What one calibration run costs at the reference speed, in seconds
#: (about its median on the 2-vCPU host the benchmark was tuned on).
REFERENCE_COST_S = 0.00035
#: A window of reference seconds closes after this many times its
#: length in wall time, however slow the host.
MAX_WALL_FACTOR = 1.4


class _Record:
    __slots__ = ("number", "key")

    def __init__(self, number: int, key: tuple) -> None:
        self.number = number
        self.key = key

    def rank(self) -> int:
        return self.number % 13


def reference_loop(records: int = REFERENCE_RECORDS) -> int:
    """Fixed interpreter work — a dict of small objects under tuple keys,
    a sort with a method as key, a set — whose cost tracks the host's
    speed as the workloads' does."""
    table = {}
    for number in range(records):
        key = (number, "k%d" % (number % 37))
        table[key] = _Record(number, key)
    ordered = sorted(table.values(), key=_Record.rank)
    return len({record.key for record in ordered if record.number & 1})


def calibration_cost(runs: int = 3) -> float:
    """Median thread CPU seconds of *runs* reference loops.

    Thread CPU time, not wall time: a run that waits for the interpreter
    lock is not mistaken for a slow host.  The collector is held off
    meanwhile, so a collection the workload's garbage is due does not
    land in a run (it runs at the workload's next allocation instead).
    """
    costs = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            started = time.thread_time()
            reference_loop()
            costs.append(time.thread_time() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(costs)


class HostSpeed:
    """The host's speed, sampled between a workload's operations.

    A shared host switches between a fast state and one up to twice as
    slow (a busy SMT sibling, a neighbour's cache traffic) for seconds
    to minutes at a time, and thread CPU time slows as much as wall
    time, so no statistic over one window cancels it.  A fixed
    interpreter loop run between operations slows by nearly the same
    factor; a time measured at *t* is reported times
    ``REFERENCE_COST_S / cost``, with *cost* the loop's cost around *t*
    — the time it would have taken at the reference speed.  The
    workload calls :meth:`poll` between operations; each sample costs
    about three reference loops, and is left out of the window's time.
    """

    def __init__(self, every_s: float = 0.1,
                 clock: Callable[[], float] = time.perf_counter,
                 cost: Callable[[], float] = calibration_cost,
                 smooth: int = 5) -> None:
        self.every_s = every_s
        self.clock = clock
        self._cost = cost
        self.smooth = smooth
        self.start = array("d")
        self.end = array("d")
        self.cost = array("d")
        self._next = -math.inf
        self._gap_cost: List[float] = []
        #: Reference seconds between samples so far, and the current
        #: estimate of reference cost over the host's.
        self._elapsed = 0.0
        self._factor = 1.0

    def due(self, now: float) -> bool:
        return now >= self._next

    def poll(self) -> None:
        """Sample if the last sample is *every_s* old."""
        if self.clock() >= self._next:
            self.sample()

    def sample(self) -> None:
        start = self.clock()
        cost = self._cost()
        end = self.clock()
        if self.end:
            self._elapsed += (start - self.end[-1]) * self._factor
        self.start.append(start)
        self.end.append(end)
        self.cost.append(cost)
        self._next = end + self.every_s
        self._gap_cost = []
        self._factor = REFERENCE_COST_S / statistics.median(
            self.cost[-self.smooth:])

    def elapsed(self) -> float:
        """Reference seconds since the first sample, calibration runs
        left out, estimated as the window runs: a closed loop that stops
        when this reaches its length does about the same work on a slow
        host as on a fast one."""
        if not self.end:
            return 0.0
        return self._elapsed + (self.clock() - self.end[-1]) * self._factor

    def within(self, seconds: float) -> bool:
        """Whether a window of *seconds* reference seconds, begun at the
        first sample, is still open (see :data:`MAX_WALL_FACTOR`)."""
        if not self.end:
            return True
        return self.elapsed() < seconds and \
            self.clock() - self.start[0] < MAX_WALL_FACTOR * seconds

    def factor(self, at: float) -> float:
        """Reference cost over the host's around *at*: the median of the
        *smooth* samples on either side, so one sample that an
        interrupt slowed does not move it."""
        if not self.cost:
            raise ValueError("no host speed sample")
        if not self._gap_cost:
            count = len(self.cost)
            self._gap_cost = [
                statistics.median(self.cost[max(0, gap - self.smooth):
                                            min(count, gap + self.smooth)])
                for gap in range(count + 1)]
        return REFERENCE_COST_S / self._gap_cost[
            bisect.bisect_left(self.end, at)]

    def scale(self, ms: Sequence[float], ends: Sequence[float]
              ) -> List[float]:
        """Each time, ending at its *ends*, at the reference speed."""
        return [value * self.factor(end - value / 2000.0)
                for value, end in zip(ms, ends)]

    def reference_seconds(self, low: float, high: float) -> float:
        """Seconds of [low, high] at the reference speed, without the
        calibration runs."""
        total = 0.0
        edges = [low] + [t for pair in zip(self.start, self.end)
                         for t in pair] + [high]
        # Gaps between samples are edges[0:1], edges[2:3], ...
        for index in range(0, len(edges), 2):
            start = max(low, edges[index])
            end = min(high, edges[index + 1])
            if end > start:
                total += (end - start) * self.factor((start + end) / 2.0)
        return total


# -- spans ---------------------------------------------------------------------

class SpanLog:
    """Spans kept in memory: name, start, end, parent and operation id.

    Every span belongs to one operation: a span opened with no open
    parent on its thread starts a new operation id, and its descendants
    share it.  Records live in parallel ``array`` columns (about 60
    bytes a span) because a traced window produces hundreds of
    thousands of them.  ``value`` carries one number a wrapper reads off
    the call's result (violations found, objects converted, ...).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("i")
        self.thread = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.span_id)

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> Tuple[int, int, int, float]:
        """Begin a span on this thread: (id, parent, op, start)."""
        stack = self._stack()
        span_id = self.new_id()
        if stack:
            parent, op = stack[-1]
        else:
            parent, op = -1, span_id
        stack.append((span_id, op))
        return span_id, parent, op, self.clock()

    def close(self, handle: Tuple[int, int, int, float], name: str,
              value: float = math.nan) -> None:
        """End a span begun with :meth:`open` and record it."""
        end = self.clock()
        span_id, parent, op, start = handle
        stack = self._stack()
        if stack and stack[-1][0] == span_id:
            stack.pop()
        self.record(name, start, end, parent=parent, op=op,
                    span_id=span_id, value=value)

    def discard(self, handle: Tuple[int, int, int, float]) -> None:
        """End a span begun with :meth:`open` without recording it."""
        stack = self._stack()
        if stack and stack[-1][0] == handle[0]:
            stack.pop()

    def record(self, name: str, start: float, end: float,
               parent: int = -1, op: Optional[int] = None,
               span_id: Optional[int] = None,
               value: float = math.nan) -> int:
        """Record a finished span with explicit times (spans measured
        across threads, such as a request's queue wait)."""
        if span_id is None:
            span_id = self.new_id()
        with self._lock:
            self.span_id.append(span_id)
            self.parent.append(parent)
            self.op.append(span_id if op is None else op)
            self.name.append(self._intern(name))
            self.thread.append(threading.get_ident())
            self.start.append(start)
            self.end.append(end)
            self.value.append(value)
        return span_id

    # -- analysis --------------------------------------------------------------

    def by_name(self) -> Dict[str, List[int]]:
        """Record indexes grouped by span name."""
        groups: Dict[str, List[int]] = {}
        for index, name_index in enumerate(self.name):
            groups.setdefault(self.names[name_index], []).append(index)
        return groups

    def self_times(self) -> List[float]:
        """Per record: duration minus the part its children cover."""
        children: Dict[int, List[int]] = {}
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        result = []
        for index in range(len(self.span_id)):
            start, end = self.start[index], self.end[index]
            kids = children.get(self.span_id[index], ())
            covered = covered_length(
                [(self.start[k], self.end[k]) for k in kids], start, end)
            result.append(end - start - covered)
        return result

    def unattributed_share(self, roots: Iterable[str]) -> float:
        """Share of the root spans' time that no child span covers.

        *roots* names the benchmark's own operation spans; their direct
        children are the layer spans the wrappers record.
        """
        wanted = {self._name_index[name] for name in roots
                  if name in self._name_index}
        selfs = self.self_times()
        total = uncovered = 0.0
        for index, name_index in enumerate(self.name):
            if name_index in wanted:
                total += self.end[index] - self.start[index]
                uncovered += selfs[index]
        return uncovered / total if total > 0 else 0.0

    # -- output ------------------------------------------------------------------

    def write(self, jsonl_path: str, chrome_path: str,
              limit: int = 50_000) -> int:
        """Write the first *limit* spans as JSONL and as a Chrome trace.

        Returns the number written.  Times are microseconds from the
        first span's start.
        """
        count = min(limit, len(self.span_id))
        origin = min(self.start[:count]) if count else 0.0
        threads: Dict[int, int] = {}
        events = []
        with open(jsonl_path, "w", encoding="utf-8") as handle:
            for index in range(count):
                record = {
                    "id": self.span_id[index],
                    "parent": self.parent[index],
                    "op": self.op[index],
                    "name": self.names[self.name[index]],
                    "start_us": (self.start[index] - origin) * 1e6,
                    "dur_us": (self.end[index] - self.start[index]) * 1e6,
                }
                if not math.isnan(self.value[index]):
                    record["value"] = self.value[index]
                handle.write(json.dumps(record) + "\n")
                tid = threads.setdefault(self.thread[index], len(threads))
                events.append({
                    "name": record["name"], "ph": "X", "pid": 1, "tid": tid,
                    "ts": record["start_us"], "dur": record["dur_us"],
                    "args": {"op": record["op"]},
                })
        with open(chrome_path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
        return count


def covered_length(intervals: Sequence[Tuple[float, float]],
                   low: float, high: float) -> float:
    """Length of the union of *intervals* clipped to [low, high]."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


# -- open-loop schedule ----------------------------------------------------------

class OpenLoop:
    """Requests due at a fixed rate, timed from their due time.

    The sender calls :meth:`wait` before each request: it sleeps until
    the request is due and returns the due time, and records how late
    the sender actually was.  A request's latency is measured from its
    due time, so a stall delays every later request's clock too — the
    cost a closed loop would hide.
    """

    def __init__(self, interval_s: float, start: float,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.interval_s = interval_s
        self.start = start
        self.clock = clock
        self.sleep = sleep
        self.sent = 0
        #: Seconds the sender was behind schedule, per request.
        self.lateness: List[float] = []

    def next_due(self) -> float:
        return self.start + self.sent * self.interval_s

    def wait(self) -> float:
        """Sleep until the next request is due; return its due time."""
        due = self.next_due()
        now = self.clock()
        if now < due:
            self.sleep(due - now)
            now = self.clock()
        self.lateness.append(max(0.0, now - due))
        self.sent += 1
        return due


# -- run header ------------------------------------------------------------------

def run_header(workload: str, seed: int, seconds: float, trace: bool,
               config: Dict[str, object]) -> Dict[str, object]:
    """Seed, machine, interpreter and flush policy of one run."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "flush_policy": ("one fsync per committed session (the WAL "
                         "commit record); WAL in a temporary directory "
                         "inside the benchmark's output directory"),
        "latency_note": ("latencies and fsync times are this sandbox's "
                         "(page cache, shared CPU), not a storage "
                         "device's"),
        "gc": "gc.collect(); gc.freeze() after set-up",
        "reference_speed": (f"times are scaled to a host on which one "
                            f"reference loop ({REFERENCE_RECORDS} records) "
                            f"costs {REFERENCE_COST_S * 1000:g} ms of "
                            f"thread CPU time"),
        "config": config,
    }
