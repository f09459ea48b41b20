"""Run one workload and measure it from outside.

Order of one run (one fresh process per run, see ``run.py``):

1. ``SETUP_CYCLES`` cold cycles of boot → load → populate → first
   ``rt.run()``; the median is ``setup_s``.  On simulator workloads the
   last cycle stays up a little longer and replays the warm-up and the
   first timed round: the determinism reference.
2. On workloads that do not time their own round trips, the
   request/reply probe on a runtime of its own.
3. The measured runtime: boot, warm-up round, then timed rounds until
   ``seconds`` of round time have been spent, ``gc.collect()`` before
   each and the collector left on.  CPU time is taken around this step
   only, after ``rt.close()`` has reaped the workers.

The traced run (``--trace 1``) keeps harness spans and does step 3
alone.
"""

from __future__ import annotations

import gc
import time
import traceback
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.system import HalRuntime

from perfbench.actors import Echo, TimedClient
from perfbench.harness import (
    Spans, cpu_seconds, guard, peak_rss_mb, percentile, quartiles,
)
from perfbench.workloads import Workload

SETUP_CYCLES = 7
MIN_ROUNDS = 3
TRACED_MIN_ROUNDS = 2
#: Request/reply probe: bursts of sequential requests from node 0 to
#: node 1, 20 samples beyond each burst's p99.  Bursts repeat for
#: ``PROBE_S`` seconds (at least ``PROBE_BURSTS`` of them), because the
#: median of many per-burst percentiles is what steadies a p99; the
#: real-time backends, whose tail is the scheduler's, get twice as long.
PROBE_BURSTS = 5
PROBE_REQUESTS = 2000
PROBE_S = 2.0
REALTIME_PROBE_S = 4.0

#: A recorder that records nothing, for the phases no span is kept of.
NO_SPANS = Spans("", enabled=False)


class Tally:
    """Ops attempted and failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.errors.append(why)


def boot(wl: Workload, spans: Spans, *, trace: Optional[bool] = None
         ) -> Tuple[HalRuntime, Any]:
    """Boot, load and populate; returns once the first ``rt.run()``
    has.  The caller owns ``rt.close()``."""
    with guard():
        with spans.span("boot"):
            rt = HalRuntime(wl.config(),
                            trace=wl.trace if trace is None else trace)
        try:
            with spans.span("load"):
                wl.load(rt)
            with spans.span("populate"):
                state = wl.populate(rt)
                rt.run()
        except BaseException:
            rt.close()
            raise
    return rt, state


def sim_marks(wl: Workload, rt) -> Dict[str, float]:
    """The platform clock and, on the simulator, the event count and
    the workload's pinned counters, as they stand now."""
    marks = {"sim_us": rt.now}
    if wl.is_sim:
        marks["events_executed"] = rt.machine.events_executed
        for key in wl.golden_counters:
            marks[key] = rt.stats.counter(key)
        if rt.spans.enabled:
            acct = rt.spans.accounting()
            for key in wl.golden_spans:
                marks[key] = acct[key]
    return marks


def play_round(wl: Workload, rt, state, r: int, spans: Spans
               ) -> Tuple[float, int, Dict[str, float]]:
    """One round: (wall seconds of inject+drain, failed ops, what the
    round added to :func:`sim_marks`)."""
    gc.collect()
    with guard(), spans.span("round"):
        before = sim_marks(wl, rt)
        t0 = time.perf_counter()
        with spans.span("inject"):
            wl.inject(rt, state, r)
        with spans.span("drain"):
            rt.run()
        wall = time.perf_counter() - t0
        after = sim_marks(wl, rt)
        with spans.span("verify"):
            failed = wl.verify(rt, state, r)
    return wall, failed, {k: after[k] - before[k] for k in after}


def setup_cycles(wl: Workload, cycles: int
                 ) -> Tuple[List[float], Optional[Dict[str, float]]]:
    """Seconds of each cold set-up cycle, and the replayed first timed
    round of a simulator workload."""
    setup: List[float] = []
    replay = None
    for cycle in range(cycles):
        gc.collect()
        last = cycle == cycles - 1
        t0 = time.perf_counter()
        # The replay twin of a traced workload runs untraced: equal
        # simulated time is then also the proof that tracing is free
        # on the modelled machine.
        rt, state = boot(wl, NO_SPANS, trace=False if last else None)
        try:
            setup.append(time.perf_counter() - t0)
            if last and wl.is_sim:
                if not wl.fresh_runtime:
                    play_round(wl, rt, state, 0, NO_SPANS)
                replay = play_round(wl, rt, state, 1, NO_SPANS)[2]
        finally:
            rt.close()
    return setup, replay


def probe_rtt(wl: Workload) -> List[List[int]]:
    """Sorted in-actor round-trip samples (ns), one list per burst of
    sequential requests from a client on node 0 to an echo on node 1,
    after one burst of warm-up."""
    requests = 100 if wl.quick else PROBE_REQUESTS
    bursts = 2 if wl.quick else PROBE_BURSTS
    with guard():
        rt = HalRuntime(wl.probe_config(), trace=wl.trace)
    try:
        rt.load_behaviors(Echo, TimedClient)
        echo = rt.spawn(Echo, at=1)
        client = rt.spawn(TimedClient, at=0)
        out: List[List[int]] = []
        lasts = PROBE_S if wl.is_sim else REALTIME_PROBE_S
        deadline = time.perf_counter() + (0.0 if wl.quick else lasts)
        b = 0
        while b <= bursts or time.perf_counter() < deadline:
            with guard():
                rt.send(client, "burst", echo, requests, b * requests)
                rt.run()
                samples, wrong = rt.call(client, "take")
            if wrong or len(samples) != requests:
                raise AssertionError(
                    f"probe: {wrong} wrong replies, {len(samples)} samples")
            if b:
                out.append(sorted(samples))
            b += 1
        return out
    finally:
        rt.close()


def timed_rounds(wl: Workload, seconds: float, spans: Spans, min_rounds: int,
                 tally: Tally) -> Dict[str, Any]:
    """The measured runtime: boot, warm-up, timed rounds, close."""
    ops = wl.ops()
    out: Dict[str, Any] = {
        "walls": [], "clock_us": [], "first": None, "counters": {},
        "events": 0, "accounting": {},
    }
    walls = out["walls"]
    cpu0 = cpu_seconds()
    wall0 = time.perf_counter()
    rt = None
    try:
        rt, state = boot(wl, spans)
        r = 0
        while True:
            if wl.fresh_runtime and r:
                rt.close()
                rt, state = boot(wl, NO_SPANS)
            tally.attempted += ops
            try:
                wall, bad, delta = play_round(wl, rt, state, r, spans)
            except Exception:
                # The runtime may be wedged: no further round on it.
                tally.fail(ops, traceback.format_exc())
                break
            tally.failed += bad
            if r == 1:
                out["first"] = delta
            if r:
                walls.append(wall)
                out["clock_us"].append(delta["sim_us"])
                if wl.fresh_runtime and wl.is_sim and delta != out["first"]:
                    tally.fail(ops, f"round {r} differs from round 1 on a "
                                    f"fresh runtime: {delta} != {out['first']}")
            r += 1
            if wl.quick:
                if r > 2:
                    break
            elif r > min_rounds and sum(walls) + median(walls) / 2 > seconds:
                break
        out["counters"] = dict(rt.stats.counters)
        out["events"] = rt.machine.events_executed
        if rt.spans.enabled:
            out["accounting"] = rt.spans.accounting()
    except Exception:
        # Boot, load or populate failed: nothing ran, which must not
        # read as a clean run.
        tally.attempted += ops
        tally.fail(ops, traceback.format_exc())
    finally:
        if rt is not None:
            with spans.span("close"):
                rt.close()
    out["cpu_s"] = cpu_seconds() - cpu0
    out["lifetime_s"] = time.perf_counter() - wall0
    return out


def measure(
    wl: Workload,
    seconds: float,
    *,
    traced: bool = False,
    golden: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Run ``wl`` and return its result record.  ``golden`` is the
    pinned first-round record for this seed and size, if there is one."""
    tally = Tally()
    spans = Spans(wl.name, enabled=traced)
    ops = wl.ops()
    result: Dict[str, Any] = {
        "workload": wl.name, "seed": wl.seed, "op": wl.op, "quick": wl.quick,
    }

    setup: List[float] = []
    replay = None
    rtt_rounds: List[List[int]] = []
    if not traced:
        setup, replay = setup_cycles(wl, 2 if wl.quick else SETUP_CYCLES)
        if not wl.own_rtt:
            tally.attempted += 1
            try:
                rtt_rounds = probe_rtt(wl)
            except Exception:
                tally.fail(1, traceback.format_exc())
    run = timed_rounds(wl, seconds, spans,
                       TRACED_MIN_ROUNDS if traced else MIN_ROUNDS, tally)
    walls, first = run["walls"], run["first"]
    if wl.own_rtt:
        rtt_rounds = wl.rtt_rounds

    # Exact checks: the simulator is deterministic, so the first timed
    # round must repeat the replay and, at the golden seed, the record.
    if wl.is_sim and first is not None:
        for name, want in (("replay", replay), ("golden", golden)):
            if want is None:
                continue
            got = {k: first[k] for k in want if k in first}
            if got != want:
                tally.fail(ops, f"{name} mismatch: got {got}, want {want}")
        result["sim"] = first

    metrics: Dict[str, float] = {}
    detail: Dict[str, Any] = {"rounds": len(walls), "round_s": walls}
    rounds_run = len(walls) + 1
    if walls:
        rates = [ops / w for w in walls]
        metrics["ops_per_s"] = median(rates)
        detail["ops_per_s_quartiles"] = quartiles(rates)
        # The platform's own clock: simulated µs on the simulator
        # (round 1, which is what golden pins), wall µs elsewhere.
        clock = first["sim_us"] if wl.is_sim else median(run["clock_us"])
        metrics["machine_us_per_op"] = clock / ops
        metrics["cpu_us_per_op"] = run["cpu_s"] * 1e6 / (rounds_run * ops)
    if setup:
        metrics["setup_s"] = median(setup)
        detail["setup_s_all"] = setup
    if rtt_rounds:
        metrics["rtt_p50_us"] = median(
            [percentile(s, 0.50) for s in rtt_rounds]) / 1e3
        metrics["rtt_p99_us"] = median(
            [percentile(s, 0.99) for s in rtt_rounds]) / 1e3
        detail["rtt_samples"] = sum(len(s) for s in rtt_rounds)
        detail["rtt_beyond_p99_per_round"] = len(rtt_rounds[0]) // 100
    metrics["peak_rss_mb"] = peak_rss_mb()
    result.update(
        attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
        fail_ratio=tally.failed / tally.attempted,
        metrics=metrics, detail=detail,
    )
    if traced:
        result["traced"] = {
            "counters": run["counters"], "events": run["events"],
            "ops": rounds_run * ops, "accounting": run["accounting"],
            "self_ms": spans.self_ms(), "spans": len(spans.records),
            "lifetime_s": run["lifetime_s"], "span_cost_us": Spans.cost_us(),
            "chrome": spans.chrome_events(pid=0),
        }
    return result
