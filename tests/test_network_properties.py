"""Property tests on the interconnect model's invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NetworkParams
from repro.sim.engine import SimNode, Simulator
from repro.sim.faults import FaultInjector, FaultPlan, FaultRule, NodeFault
from repro.sim.network import Network
from repro.stats import StatsRegistry
from repro.topology import FatTreeTopology, HypercubeTopology


def make_net(n=4, **over):
    sim = Simulator()
    nodes = [SimNode(i, sim) for i in range(n)]
    net = Network(sim, HypercubeTopology(n), nodes,
                  NetworkParams(**over), StatsRegistry())
    return sim, net


@st.composite
def transmissions(draw):
    n = 4
    count = draw(st.integers(1, 25))
    msgs = []
    for _ in range(count):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        if dst == src:
            dst = (dst + 1) % n
        size = draw(st.sampled_from([24, 100, 2000, 40_000]))
        msgs.append((src, dst, size))
    return msgs


class TestNicInvariants:
    @given(transmissions())
    @settings(max_examples=60, deadline=None)
    def test_pairwise_fifo(self, msgs):
        """Messages between one (src, dst) pair deliver in send order."""
        sim, net = make_net()
        deliveries = []
        for i, (src, dst, size) in enumerate(msgs):
            net.unicast(src, dst, size,
                        lambda i=i, s=src, d=dst: deliveries.append((s, d, i)))
        sim.run()
        assert len(deliveries) == len(msgs)
        for pair in {(s, d) for s, d, _ in deliveries}:
            seq = [i for s, d, i in deliveries if (s, d) == pair]
            assert seq == sorted(seq)

    @given(transmissions())
    @settings(max_examples=60, deadline=None)
    def test_rx_drains_never_overlap(self, msgs):
        """The interval-gap scheduler never double-books a receive NIC."""
        sim, net = make_net()
        for (src, dst, size) in msgs:
            net.unicast(src, dst, size, lambda: None)
        for dst in range(4):
            windows = sorted(
                (s, t) for (_a, s, t, _b) in net._rx_sched[dst]
            )
            for (s1, t1), (s2, t2) in zip(windows, windows[1:]):
                assert t1 <= s2 + 1e-9, "overlapping drains"
        sim.run()

    @given(transmissions())
    @settings(max_examples=40, deadline=None)
    def test_delivery_never_precedes_wire_latency(self, msgs):
        sim, net = make_net()
        records = []
        for (src, dst, size) in msgs:
            send_time = sim.now
            min_arrival = (
                size * net.params.inject_us_per_byte
                + net.wire_latency(src, dst)
                + size * net.params.drain_us_per_byte
            )
            net.unicast(
                src, dst, size,
                lambda lo=send_time + min_arrival: records.append(
                    (sim.now, lo)
                ),
            )
        sim.run()
        for at, lo in records:
            assert at >= lo - 1e-9

    @given(st.integers(2, 10), st.integers(1000, 60_000))
    @settings(max_examples=40, deadline=None)
    def test_backpressure_monotone_in_fan_in(self, senders_count, size):
        """More concurrent senders never *reduce* total delivery time."""
        def last_delivery(k):
            sim, net = make_net(n=16, rx_buffer_bytes=2048)
            times = []
            for src in range(1, k + 1):
                net.unicast(src, 0, size, lambda: times.append(sim.now))
            sim.run()
            return max(times)

        few = last_delivery(max(1, senders_count // 2))
        many = last_delivery(senders_count)
        assert many >= few - 1e-9


class _ReferenceNetwork(Network):
    """The rx-NIC schedule in its plainest form, kept as the oracle:
    wire latency from the topology per message, the schedule rebuilt
    and summed on every backlog query and re-sorted after every
    insertion."""

    def rx_backlog_bytes(self, dst, at):
        sched = self._rx_sched[dst]
        horizon = self.sim.now
        sched[:] = [e for e in sched if e[2] > horizon]
        return sum(b for (arr, s, t, b) in sched if arr <= at < s)

    def unicast(self, src, dst, nbytes, deliver, args=(), *, label=""):
        if self._faults_on:
            handled = self._unicast_faulty(src, dst, nbytes, deliver, args, label)
            if handled is not None:
                return handled
        p = self.params
        sender = self.nodes[src]
        now = sender.now if sender._in_handler else self.sim.now
        inject_start = max(now, self._tx_free[src])
        inject_done = inject_start + nbytes * p.inject_us_per_byte
        self._tx_free[src] = inject_done
        arrive = inject_done + self.wire_latency(src, dst)
        backlog = self.rx_backlog_bytes(dst, arrive)
        drain_us = nbytes * p.drain_us_per_byte
        overflow = max(0, backlog + nbytes - max(p.rx_buffer_bytes, nbytes))
        if overflow:
            drain_us += overflow * p.backup_penalty_us_per_byte
            self._c_backup_events.n += 1
            self._c_backup_bytes.n += overflow
        fifo_floor = self._pair_last.get((src, dst), 0.0)
        drain_start = self._rx_slot(dst, max(arrive, fifo_floor), drain_us)
        drain_done = drain_start + drain_us
        self._pair_last[(src, dst)] = drain_done
        sched = self._rx_sched[dst]
        sched.append((arrive, drain_start, drain_done, nbytes))
        sched.sort(key=lambda entry: entry[1])
        self._c_messages.n += 1
        self._c_bytes.n += nbytes
        self._rec_delivery_us(drain_done - now)
        self.nodes[dst].post_preempting(drain_done, deliver, args)
        return inject_done

    def _unicast_faulty(self, src, dst, nbytes, deliver, args, label):
        f = self.faults
        rule = f.rule_for(label) if label else None
        if rule is None and not f.node_faulted(dst):
            return None
        p = self.params
        sender = self.nodes[src]
        now = sender.now if sender._in_handler else self.sim.now
        inject_start = max(now, self._tx_free[src])
        inject_done = inject_start + nbytes * p.inject_us_per_byte
        self._tx_free[src] = inject_done
        self._c_messages.n += 1
        self._c_bytes.n += nbytes
        if rule is not None:
            extras = f.sample(rule, label, src, dst, now)
            if not extras:
                return inject_done
            ordered = False
        else:
            extras = [0.0]
            ordered = True
        wire = self.wire_latency(src, dst)
        drain_us = nbytes * p.drain_us_per_byte * f.slow_factor(dst)
        node = self.nodes[dst]
        sched = self._rx_sched[dst]
        for extra in extras:
            arrive = f.stall_shift(dst, inject_done + wire + extra)
            if ordered:
                arrive = max(arrive, self._pair_last.get((src, dst), 0.0))
            drain_start = self._rx_slot(dst, arrive, drain_us)
            drain_done = drain_start + drain_us
            if ordered:
                self._pair_last[(src, dst)] = drain_done
            sched.append((arrive, drain_start, drain_done, nbytes))
            sched.sort(key=lambda entry: entry[1])
            self._rec_delivery_us(drain_done - now)
            node.post_preempting(drain_done, deliver, args)
        return inject_done


_CHAOS = FaultPlan(
    seed=5,
    by_kind={"fir": FaultRule(drop=0.1, duplicate=0.2, delay=0.2, reorder=0.2)},
    node_faults={2: NodeFault(stall_at_us=100.0, stall_for_us=3000.0,
                              slow_factor=1.5)},
)


def _drive_schedule(net_cls, seed, faults, n=8, steps=250):
    """Seeded random traffic: fan-in bursts, varied sizes, clock
    advances, and chained sends issued from inside delivery handlers.
    Returns everything a schedule decides."""
    sim = Simulator()
    nodes = [SimNode(i, sim) for i in range(n)]
    stats = StatsRegistry()
    injector = FaultInjector(faults, seed, stats) if faults else None
    net = net_cls(sim, FatTreeTopology(n), nodes,
                  NetworkParams(rx_buffer_bytes=3000), stats, faults=injector)
    rng = random.Random(seed)
    drains = []
    scheds = []

    def send(src):
        dst = rng.randrange(n - 1)
        dst += dst >= src
        size = rng.choice((24, 64, 700, 2500, 9000, rng.randint(1, 20_000)))
        label = rng.choice(("fir", "deliver_keyed", "reply"))
        net.unicast(src, dst, size, deliver, (dst,), label=label)

    def deliver(dst):
        drains.append((dst, sim.now))
        if rng.random() < 0.25:
            nodes[dst].charge(rng.uniform(0.0, 5.0))
            send(dst)

    for _ in range(steps):
        roll = rng.random()
        if roll < 0.3:
            sim.run(until=sim.now + rng.uniform(0.0, 300.0))
        elif roll < 0.4:
            # Fan-in burst: several senders converge on one receiver.
            dst = rng.randrange(n)
            for src in rng.sample([i for i in range(n) if i != dst], 4):
                net.unicast(src, dst, rng.randint(1000, 8000), deliver, (dst,),
                            label="deliver_keyed")
        else:
            send(rng.randrange(n))
        scheds.append([list(s) for s in net._rx_sched])
    sim.run()
    scheds.append([list(s) for s in net._rx_sched])
    counters = {k: stats.counter(k) for k in (
        "net.messages", "net.bytes", "net.backup_events", "net.backup_bytes",
        "faults.dup_packets", "faults.stall_shifted_packets")}
    return drains, counters, scheds


class TestScheduleMatchesReference:
    @pytest.mark.parametrize("faults", [None, _CHAOS], ids=["plain", "faulty"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 1995])
    def test_same_drains_counters_and_schedule(self, seed, faults):
        got = _drive_schedule(Network, seed, faults)
        want = _drive_schedule(_ReferenceNetwork, seed, faults)
        drains, counters, scheds = got
        assert drains == want[0]
        assert counters == want[1]
        assert scheds == want[2]
        # The traffic must reach the paths under test.
        assert counters["net.backup_events"] > 0
        assert len(drains) > 250
        if faults is not None:
            assert counters["faults.dup_packets"] > 0
            assert counters["faults.stall_shifted_packets"] > 0
