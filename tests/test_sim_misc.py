"""RNG streams, stats registry, machine facade."""

from __future__ import annotations

import random

from repro.config import RuntimeConfig
from repro.platform.simbackend import SimMachine
from repro.rng import RngStreams
from repro.stats import StatsRegistry, TimerStat


class TestRngStreams:
    def test_same_seed_same_sequence(self):
        a = RngStreams(42).stream("x")
        b = RngStreams(42).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RngStreams(42)
        xs = [streams.stream("x").random() for _ in range(3)]
        ys = [streams.stream("y").random() for _ in range(3)]
        assert xs != ys

    def test_stream_is_cached(self):
        streams = RngStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_adding_a_consumer_does_not_perturb_others(self):
        s1 = RngStreams(7)
        first = s1.stream("steal/node0").random()
        s2 = RngStreams(7)
        s2.stream("brand-new-stream").random()
        assert s2.stream("steal/node0").random() == first

    def test_node_stream_and_fork(self):
        streams = RngStreams(3)
        assert isinstance(streams.node_stream("steal", 2), random.Random)
        fork = streams.fork("child")
        assert fork.stream("x").random() != streams.stream("x").random()


class TestStats:
    def test_counters(self):
        s = StatsRegistry()
        s.incr("a")
        s.incr("a", 4)
        assert s.counter("a") == 5
        assert s.counter("missing") == 0

    def test_timers(self):
        s = StatsRegistry()
        for v in (1.0, 3.0, 5.0):
            s.record_time("t", v)
        t = s.timer("t")
        assert t.count == 3
        assert t.mean_us == 3.0
        assert t.min_us == 1.0
        assert t.max_us == 5.0

    def test_empty_timer_mean(self):
        assert TimerStat().mean_us == 0.0

    def test_gauges(self):
        s = StatsRegistry()
        s.set_gauge("g", 2.0)
        s.max_gauge("g", 1.0)
        assert s.gauges["g"] == 2.0
        s.max_gauge("g", 9.0)
        assert s.gauges["g"] == 9.0

    def test_snapshot_and_reset(self):
        s = StatsRegistry()
        s.incr("a")
        s.record_time("t", 2.0)
        snap = s.snapshot()
        assert snap["counter.a"] == 1.0
        assert snap["timer.t.count"] == 1.0
        s.reset()
        assert s.counter("a") == 0

    def test_table_render(self):
        s = StatsRegistry()
        assert s.table() == "(no counters)"
        s.incr("am.sends", 2)
        s.incr("net.bytes", 100)
        out = s.table(prefixes=["am."])
        assert "am.sends" in out and "net.bytes" not in out


class TestMachine:
    def test_boot_shape(self):
        m = SimMachine(RuntimeConfig(num_nodes=8))
        assert m.num_nodes == 8
        assert len(m.nodes) == 8
        assert m.topology.size == 8
        assert m.frontend_node.node_id == -1

    def test_cpu_utilisation(self):
        m = SimMachine(RuntimeConfig(num_nodes=2))
        m.nodes[0].execute(0.0, lambda: m.nodes[0].charge(10.0))
        m.run()
        util = m.cpu_utilisation()
        assert util[0] == 1.0
        assert util[1] == 0.0
