"""Order-equivalence property test: overhauled engine vs seed engine.

The hot-path overhaul (list heap entries, args pass-through, tombstone
compaction, O(1) ``pending``) must not change *what* the simulator
computes — only how fast.  These tests replay identical randomized
schedule/cancel workloads (seeded via :mod:`repro.rng`) on the
current engine and on the vendored seed engine
(``benchmarks/_seed_engine.py``) and require:

1. the exact same firing order ``(time, event_id)`` trace;
2. the exact same executed-event count and final clock;
3. the exact same final ``StatsRegistry.snapshot()`` when the workload
   records per-event counters and timers;
4. bit-identical traces across two runs of the same engine (determinism).
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import sys

import pytest

from repro.rng import RngStreams
from repro.sim.engine import Simulator
from repro.stats import StatsRegistry

# The seed engine is vendored next to the benchmark that measures
# against it; load it by path so tests need no sys.path games.
_SEED_ENGINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "_seed_engine.py"
)
_spec = importlib.util.spec_from_file_location("_seed_engine", _SEED_ENGINE_PATH)
_seed_engine = importlib.util.module_from_spec(_spec)
# Registered before exec: the dataclass machinery resolves field types
# through sys.modules[cls.__module__].
sys.modules.setdefault("_seed_engine", _seed_engine)
_spec.loader.exec_module(_seed_engine)
SeedSimulator = _seed_engine.SeedSimulator

#: Small time grids with repeats so ties (same ``time``, different
#: ``seq``) occur constantly — the tie-break contract is the point.
_START_GRID = (0.0, 1.0, 2.0, 2.0, 5.0, 5.0, 5.0, 9.0)
_DELAY_GRID = (0.0, 0.0, 0.5, 1.5, 3.0)
_MAX_DEPTH = 3


def run_workload(sim, seed: int, n_initial: int = 60, stats=None):
    """Drive one randomized schedule/cancel workload to completion.

    All randomness flows from one named substream, and draws happen in
    firing order — so two engines produce the same workload if and only
    if they fire events in the same order, which is exactly the
    property under test.
    """
    rng = RngStreams(seed).stream("order-property")
    log = []
    handles = []
    ids = itertools.count()

    def make_cb(eid: int, depth: int):
        def cb() -> None:
            log.append((round(sim.now, 9), eid))
            if stats is not None:
                stats.incr("wl.fired")
                stats.incr(f"wl.lane{eid % 4}")
                stats.timer("wl.gap_us").record(sim.now)
            if depth < _MAX_DEPTH:
                for _ in range(rng.choice((0, 0, 1, 2))):
                    t = sim.now + rng.choice(_DELAY_GRID)
                    handles.append(sim.schedule(t, make_cb(next(ids), depth + 1)))
            if handles and rng.random() < 0.35:
                # May hit live, already-fired, or already-cancelled
                # handles — all three must behave identically.
                handles[rng.randrange(len(handles))].cancel()

        return cb

    for _ in range(n_initial):
        t = rng.choice(_START_GRID)
        handles.append(sim.schedule(t, make_cb(next(ids), 0)))
    sim.run()
    return log


@pytest.mark.parametrize("seed", [7, 42, 1995, 20_000_101])
def test_firing_order_matches_seed_engine(seed):
    seed_sim = SeedSimulator()
    seed_log = run_workload(seed_sim, seed)
    new_sim = Simulator()
    new_log = run_workload(new_sim, seed)
    assert new_log == seed_log
    assert new_sim.events_executed == seed_sim.events_executed
    assert new_sim.now == seed_sim.now
    assert new_sim.pending == seed_sim.pending == 0


@pytest.mark.parametrize("seed", [3, 1234])
def test_stats_snapshot_matches_seed_engine(seed):
    seed_stats = StatsRegistry()
    run_workload(SeedSimulator(), seed, stats=seed_stats)
    new_stats = StatsRegistry()
    run_workload(Simulator(), seed, stats=new_stats)
    assert new_stats.snapshot() == seed_stats.snapshot()


@pytest.mark.parametrize("engine", [Simulator, SeedSimulator])
def test_determinism_across_identical_runs(engine):
    a = run_workload(engine(), 555)
    b = run_workload(engine(), 555)
    assert a == b
    assert len(a) > 60  # the workload actually spawned children


def test_cancellation_heavy_workload_compacts_and_agrees():
    """A workload dominated by cancels pushes the new engine through
    its compaction path; order and counts must still match the seed."""
    for seed in (11, 13):
        logs = []
        for make in (SeedSimulator, Simulator):
            sim = make()
            rng = RngStreams(seed).stream("cancel-heavy")
            log = []
            handles = [
                sim.schedule(
                    rng.choice(_START_GRID) + 10.0 * rng.random(),
                    (lambda i=i: log.append(i)),
                )
                for i in range(600)
            ]
            for i, h in enumerate(handles):
                if rng.random() < 0.8:
                    h.cancel()
            sim.run()
            logs.append((log, sim.events_executed, sim.pending))
        assert logs[0] == logs[1]
