"""Interconnect model: latency, NIC serialisation, back-pressure."""

from __future__ import annotations

import pytest

from repro.config import NetworkParams, RuntimeConfig
from repro.errors import NetworkError, TopologyError
from repro.sim.engine import SimNode, Simulator
from repro.sim.network import Network
from repro.stats import StatsRegistry
from repro.topology import HypercubeTopology


def make_net(n=4, **param_overrides):
    sim = Simulator()
    nodes = [SimNode(i, sim) for i in range(n)]
    params = NetworkParams(**param_overrides)
    net = Network(sim, HypercubeTopology(n), nodes, params, StatsRegistry())
    return sim, nodes, net


class TestUnicast:
    def test_delivery_happens_after_wire_latency(self):
        sim, nodes, net = make_net()
        arrived = []
        net.unicast(0, 1, 20, lambda: arrived.append(sim.now))
        sim.run()
        p = net.params
        expected = (
            20 * p.inject_us_per_byte
            + p.base_latency_us + 1 * p.per_hop_us
            + 20 * p.drain_us_per_byte
        )
        assert arrived == [pytest.approx(expected)]

    def test_local_unicast_rejected(self):
        _, _, net = make_net()
        with pytest.raises(NetworkError):
            net.unicast(2, 2, 10, lambda: None)

    def test_empty_message_rejected(self):
        _, _, net = make_net()
        with pytest.raises(NetworkError):
            net.unicast(0, 1, 0, lambda: None)

    @pytest.mark.parametrize("dst", [-1, 4])
    def test_out_of_range_node_rejected(self, dst):
        # The cached wire latency must not let a bad node index wrap
        # around to a real node once other pairs are in the cache.
        _, _, net = make_net()
        for other in (1, 2, 3):
            net.unicast(0, other, 10, lambda: None)
        with pytest.raises(TopologyError):
            net.unicast(0, dst, 10, lambda: None)

    def test_sender_nic_serialises_injection(self):
        sim, nodes, net = make_net(inject_us_per_byte=1.0)
        done = []
        t1 = net.unicast(0, 1, 100, lambda: done.append("a"))
        t2 = net.unicast(0, 2, 100, lambda: done.append("b"))
        assert t2 == pytest.approx(t1 + 100.0)

    def test_receiver_nic_serialises_drain(self):
        sim, nodes, net = make_net(drain_us_per_byte=1.0, inject_us_per_byte=0.0)
        times = []
        net.unicast(0, 3, 100, lambda: times.append(sim.now))
        net.unicast(1, 3, 100, lambda: times.append(sim.now))
        sim.run()
        assert len(times) == 2
        # second message drains strictly after the first finishes
        assert times[1] >= times[0] + 100.0

    def test_messages_between_same_pair_stay_fifo(self):
        sim, nodes, net = make_net()
        order = []
        for i in range(10):
            net.unicast(0, 1, 24 + i, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))


class TestBackPressure:
    def test_single_large_transfer_pays_no_penalty(self):
        sim, nodes, net = make_net(rx_buffer_bytes=1000)
        net.unicast(0, 1, 50_000, lambda: None)
        sim.run()
        assert net.stats.counter("net.backup_events") == 0

    def test_converging_bulks_overflow_the_buffer(self):
        sim, nodes, net = make_net(rx_buffer_bytes=1000)
        for src in (0, 1, 2):
            net.unicast(src, 3, 5_000, lambda: None)
        sim.run()
        assert net.stats.counter("net.backup_events") > 0
        assert net.stats.counter("net.backup_bytes") > 0

    def test_penalty_delays_delivery(self):
        times_small_buffer = []
        times_big_buffer = []
        for buf, times in ((100, times_small_buffer), (10**9, times_big_buffer)):
            sim, nodes, net = make_net(rx_buffer_bytes=buf)
            for src in (0, 1, 2):
                net.unicast(src, 3, 4_000, lambda: times.append(sim.now))
            sim.run()
        assert max(times_small_buffer) > max(times_big_buffer)

    def test_small_messages_behind_one_bulk_unpenalised(self):
        sim, nodes, net = make_net(rx_buffer_bytes=1000)
        net.unicast(0, 3, 50_000, lambda: None)
        net.unicast(1, 3, 24, lambda: None)
        sim.run()
        assert net.stats.counter("net.backup_events") == 0


class TestAccounting:
    def test_stats_counters(self):
        sim, nodes, net = make_net()
        net.unicast(0, 1, 100, lambda: None)
        net.unicast(1, 2, 200, lambda: None)
        sim.run()
        assert net.stats.counter("net.messages") == 2
        assert net.stats.counter("net.bytes") == 300

    def test_reset_contention(self):
        sim, nodes, net = make_net(inject_us_per_byte=1.0)
        net.unicast(0, 1, 1000, lambda: None)
        net.reset_contention()
        t = net.unicast(0, 1, 10, lambda: None)
        assert t == pytest.approx(10.0)

    def test_node_count_must_match_topology(self):
        sim = Simulator()
        with pytest.raises(NetworkError):
            Network(sim, HypercubeTopology(4), [SimNode(0, sim)],
                    NetworkParams(), StatsRegistry())
