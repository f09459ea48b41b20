"""Measurement plumbing shared by the workloads and the layer probes:
harness-side spans, a per-round time guard, resource usage and
quantiles.  Nothing here touches the program under test.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

#: ``BENCHMARK.json`` at the repo root: the one place metric names,
#: units, directions and bounds are stated.
BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def metric_specs(section: str) -> Dict[str, dict]:
    """``{name: entry}`` of ``end_to_end`` or ``per_layer``."""
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m for m in json.load(fh)[section]}


#: Seconds one round (or one boot) may take before the guard raises.
ROUND_GUARD_S = 60


class GuardTimeout(Exception):
    """A guarded phase ran past its limit."""


@contextmanager
def guard(seconds: float = ROUND_GUARD_S) -> Iterator[None]:
    """Raise :class:`GuardTimeout` in the main thread after ``seconds``.

    A wedged mp partition blocks the driver in ``conn.recv()`` with no
    time-out of its own; the alarm turns that hang into an exception
    the caller's ``finally`` can clean up after.
    """

    def on_alarm(signum, frame):
        raise GuardTimeout(f"phase exceeded its {seconds:g} s guard")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Spans:
    """Harness-side spans, kept in memory and written out at exit.

    Each span carries name, start, end, its parent and the workload it
    belongs to.  A disabled recorder costs one attribute test per span.
    """

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        #: [id, parent id, name, start ns, end ns]
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        rec = [sid, parent, name, time.perf_counter_ns(), 0]
        self.records.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()

    def self_ms(self) -> Dict[str, List[float]]:
        """Per span name, the self time of every instance in ms:
        duration minus the part its child spans cover."""
        child_ns = [0] * len(self.records)
        for sid, parent, _name, start, end in self.records:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, List[float]] = {}
        for sid, _parent, name, start, end in self.records:
            out.setdefault(name, []).append((end - start - child_ns[sid]) / 1e6)
        return out

    @staticmethod
    def cost_us(n: int = 2000) -> float:
        """What recording one span costs, in µs: ``n`` empty spans on
        a scratch recorder."""
        scratch = Spans("cost")
        t0 = time.perf_counter()
        for _ in range(n):
            with scratch.span("x"):
                pass
        return (time.perf_counter() - t0) / n * 1e6

    def chrome_events(self, pid: int) -> List[dict]:
        """The spans as Chrome trace-event ``X`` records."""
        return [
            {
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": sid, "parent": parent,
                         "workload": self.workload},
            }
            for sid, parent, name, start, end in self.records
        ]


def write_chrome_trace(path: str, events: Sequence[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"traceEvents": list(events), "displayTimeUnit": "ms"}, fh)


def cpu_seconds() -> float:
    """User+system CPU of this process and of every reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    reaped child, in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process, if the shm
    probes made it start one, and wait for it: the benchmark leaves no
    process behind.  (The tracker restarts on demand.)"""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def quartiles(values: Sequence[float]) -> Optional[tuple]:
    """(q1, q3), or None with fewer than two values."""
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    idx = min(len(sorted_values) - 1, int(len(sorted_values) * p))
    return sorted_values[idx]
