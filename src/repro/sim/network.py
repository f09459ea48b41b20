"""Contention-aware interconnect model.

The model captures exactly the phenomena the paper's communication
module reasons about:

- **sender injection**: each node's transmit NIC serialises outgoing
  packets at ``inject_us_per_byte``;
- **wire latency**: ``base_latency_us + hops * per_hop_us`` from the
  topology;
- **receiver drain**: the receive NIC serialises incoming packets, so
  many concurrent senders to one node queue up;
- **packet back-up**: bytes that arrive while more than
  ``rx_buffer_bytes`` are already queued pay an extra
  ``backup_penalty_us_per_byte``.  This is the congestion that the
  paper's *minimal flow control* (one outstanding bulk transfer per
  receiving node) is designed to avoid, and it is what makes the
  flow-control ablation in Table 1 visible.

All transmissions deliver by running a callback on the destination
:class:`~repro.sim.engine.SimNode`, so CPU occupancy at the receiver is
modelled by the engine itself.

Every unicast is priced and queued with little host work and without
changing any simulated time: the wire latency comes from a per-pair
table filled on the pair's first send by :meth:`Network.wire_latency`
itself; the receive schedule stays sorted by drain start, so past
windows are pruned from its front (drains on one NIC never overlap, so
it is end-sorted too) and a new window is inserted with
``bisect.insort`` exactly where a stable append-and-sort would put it.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter
from typing import Callable, List, Optional

from repro.config import NetworkParams
from repro.errors import NetworkError
from repro.sim.engine import SimNode, Simulator
from repro.sim.faults import FaultInjector
from repro.stats import StatsRegistry
from repro.topology import Topology

#: Sort key of an rx-NIC schedule entry: its drain start.
_DRAIN_START = itemgetter(1)


class Network:
    """Point-to-point transport between :class:`SimNode` instances."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        nodes: List[SimNode],
        params: NetworkParams,
        stats: StatsRegistry,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if len(nodes) != topology.size:
            raise NetworkError(
                f"{len(nodes)} nodes but topology of size {topology.size}"
            )
        self.sim = sim
        self.topology = topology
        self.nodes = nodes
        self.params = params
        self.stats = stats
        # Fault injection is off on the vast majority of machines; the
        # fast path pays exactly one cached boolean test per unicast.
        self.faults = faults
        self._faults_on = faults is not None
        # Hot-path bindings: one counter-cell / timer handle per stat,
        # bound once so unicast never hashes a dotted name per message.
        self._c_messages = stats.cell("net.messages")
        self._c_bytes = stats.cell("net.bytes")
        self._c_backup_events = stats.cell("net.backup_events")
        self._c_backup_bytes = stats.cell("net.backup_bytes")
        self._rec_delivery_us = stats.timer("net.delivery_us").record
        n = topology.size
        self._tx_free = [0.0] * n
        # Per-(src, dst) last drain_done: the CM-5 data network (and
        # every protocol built here) delivers messages between one
        # pair of nodes in injection order, so a later small message
        # may not slip through a gap ahead of an earlier large one.
        self._pair_last: dict[tuple[int, int], float] = {}
        # (arrive, drain_start, drain_done, bytes) for messages
        # scheduled on each rx NIC, kept sorted by drain_start.  The
        # NIC serves packets in arrival order; a packet arriving while
        # the NIC is idle drains immediately even if a later arrival
        # has already reserved a future window (interval-gap
        # scheduling).  Bytes count against the receive buffer only
        # while a message is *waiting* — it has arrived but its drain
        # has not begun; the transfer currently streaming through the
        # NIC does not occupy buffer space.
        self._rx_sched: List[List[tuple[float, float, float, int]]] = [
            [] for _ in range(n)
        ]
        # Per-(src, dst) wire latency, filled on the pair's first plain
        # send: no O(P^2) step at setup, and an out-of-range node still
        # raises from the topology on its first use.
        self._wire_us: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def wire_latency(self, src: int, dst: int) -> float:
        """Pure wire latency between two nodes (no serialisation)."""
        return (
            self.params.base_latency_us
            + self.topology.hops(src, dst) * self.params.per_hop_us
        )

    def rx_backlog_bytes(self, dst: int, at: float) -> int:
        """Bytes *waiting* (scheduled but not yet draining) at ``dst``'s
        receive NIC at time ``at``."""
        sched = self._rx_sched[dst]
        # Prune only windows that are past for *everyone*: a future
        # send from another node may still arrive earlier than ``at``,
        # and its slot search must see every window after sim.now —
        # otherwise it could be booked over one and jump the queue.
        # Drains on one NIC never overlap, so the start-sorted list is
        # end-sorted too and the past windows form a prefix.
        horizon = self.sim.now
        past = 0
        for entry in sched:
            if entry[2] > horizon:
                break
            past += 1
        if past:
            del sched[:past]
        # Only windows starting after ``at`` can hold a waiting message:
        # they are a suffix of the start-sorted list.
        backlog = 0
        for arr, start, _done, nbytes in reversed(sched):
            if start <= at:
                break
            if arr <= at:
                backlog += nbytes
        return backlog

    def _rx_slot(self, dst: int, arrive: float, duration: float) -> float:
        """Earliest start >= ``arrive`` of a gap of ``duration`` on the
        destination NIC's schedule.  The schedule list stays sorted by
        start time."""
        t = arrive
        for (_arr, s, e, _b) in self._rx_sched[dst]:
            if e <= t:
                continue
            if s >= t + duration:
                break  # the gap before this interval fits
            t = e  # e > t here: the window ends after t
        return t

    # ------------------------------------------------------------------
    def unicast(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Callable[..., None],
        args: tuple = (),
        *,
        label: str = "",
    ) -> float:
        """Transmit ``nbytes`` from ``src`` to ``dst``.

        ``deliver(*args)`` runs on the destination node's CPU once the
        message has fully drained from the receive NIC (``args`` rides
        the engine's pass-through — no closure needed per message).
        Returns the time at which the *sender's* NIC finishes injecting
        (the moment the paper's alias scheme lets the sender resume).
        """
        if src == dst:
            raise NetworkError("unicast requires distinct src/dst; local sends "
                               "bypass the network")
        if nbytes <= 0:
            raise NetworkError(f"message size must be positive, got {nbytes}")
        if self._faults_on:
            handled = self._unicast_faulty(src, dst, nbytes, deliver, args, label)
            if handled is not None:
                return handled
        p = self.params
        sender = self.nodes[src]
        now = sender.now if sender._in_handler else self.sim.now

        # Sender-side injection (serialised per node).  Conditional
        # expressions stand in for max() on this per-message path.
        tx_free = self._tx_free[src]
        inject_start = tx_free if tx_free > now else now
        inject_done = inject_start + nbytes * p.inject_us_per_byte
        self._tx_free[src] = inject_done

        # Wire.
        pair = (src, dst)
        wire_us = self._wire_us.get(pair)
        if wire_us is None:
            wire_us = self._wire_us[pair] = self.wire_latency(src, dst)
        arrive = inject_done + wire_us

        # Receiver-side drain (serialised per node) + back-pressure.
        backlog = self.rx_backlog_bytes(dst, arrive)
        drain_us = nbytes * p.drain_us_per_byte
        # Back-pressure applies only to *converging* traffic: a single
        # streamed transfer never overflows (sender and receiver move
        # at matched rates), and the message currently draining flows
        # through the NIC.  But bytes already parked waiting for the
        # NIC fill the receive buffer; once they exceed its capacity,
        # further arrivals pay the back-up (retry/packet-discard)
        # penalty.  This is the congestion minimal flow control exists
        # to avoid (§6.5).
        buffer_bytes = p.rx_buffer_bytes
        overflow = backlog + nbytes - (
            buffer_bytes if buffer_bytes > nbytes else nbytes
        )
        if overflow > 0:
            drain_us += overflow * p.backup_penalty_us_per_byte
            self._c_backup_events.n += 1
            self._c_backup_bytes.n += overflow
        fifo_floor = self._pair_last.get(pair, 0.0)
        drain_start = self._rx_slot(
            dst, fifo_floor if fifo_floor > arrive else arrive, drain_us
        )
        drain_done = drain_start + drain_us
        self._pair_last[pair] = drain_done
        # Inserted after every equal start: where a stable sort of the
        # appended entry would put it.
        insort(self._rx_sched[dst], (arrive, drain_start, drain_done, nbytes),
               key=_DRAIN_START)

        self._c_messages.n += 1
        self._c_bytes.n += nbytes
        self._rec_delivery_us(drain_done - now)

        # Delivery handlers run preemptively: the receiving node
        # manager steals the processor from whatever is executing (§3).
        self.nodes[dst].post_preempting(drain_done, deliver, args)
        return inject_done

    # ------------------------------------------------------------------
    def _unicast_faulty(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Callable[..., None],
        args: tuple,
        label: str,
    ) -> Optional[float]:
        """Fault-aware transmission path.

        Returns ``None`` when neither the message kind nor the
        destination node is covered by the fault plan — the caller then
        falls through to the plain path, so untargeted traffic keeps
        its normal ordering and cost model even on a faulty machine.

        Kinds with a fault rule leave the per-pair FIFO lane: a delayed
        or duplicated packet may be overtaken by a later send between
        the same pair, which is what makes reorder faults observable.
        Back-pressure accounting is skipped here — faulted protocol
        packets are minimal-size and never converge in bulk.
        """
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
                # Dropped: the sender paid the wire, nothing arrives.
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
            insort(sched, (arrive, drain_start, drain_done, nbytes),
                   key=_DRAIN_START)
            self._rec_delivery_us(drain_done - now)
            node.post_preempting(drain_done, deliver, args)
        return inject_done

    # ------------------------------------------------------------------
    def reset_contention(self) -> None:
        """Forget NIC occupancy (used between benchmark phases)."""
        n = self.topology.size
        self._tx_free = [0.0] * n
        self._rx_sched = [[] for _ in range(n)]
        self._pair_last.clear()
