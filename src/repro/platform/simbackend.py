"""The discrete-event backend: the original simulator behind the seam.

:class:`SimMachine` is a thin adapter that assembles the event engine
(:mod:`repro.sim.engine`), the contention/fault network model
(:mod:`repro.sim.network`) and the measurement stack into the
:class:`~repro.platform.base.PlatformMachine` shape.  It deliberately
adds nothing to the per-event path — the PR 1 hot-path representation
(plain list heap entries, bound-method payloads) is untouched, and
runs remain bit-reproducible given a seed.

This is the only backend that supports deterministic replay and fault
injection, which is why it stays the default and the one CI's
fault-fuzz and invariant jobs run on.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import RuntimeConfig
from repro.rng import RngStreams
from repro.sim.engine import SimNode, Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import Network
from repro.stats import StatsRegistry
from repro.topology import Topology, make_topology
from repro.tracing import NullSpanRecorder, SpanRecorder


class SimMachine:
    """A simulated partition of ``config.num_nodes`` processing elements.

    The partition manager (front-end) is modelled as a distinguished
    host outside the data network; it is represented by
    :attr:`frontend_node`, a :class:`SimNode` used for program loading
    and I/O (see :class:`repro.runtime.frontend.FrontEnd`).
    """

    #: Given a seed, every run is bit-identical: events fire in
    #: ``(time, seq)`` order and all randomness flows from RngStreams.
    deterministic = True
    supports_faults = True
    supports_tracing = True
    distributed = False

    def __init__(
        self,
        config: RuntimeConfig,
        *,
        trace: bool = False,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config
        self.sim = Simulator(max_events=config.max_events)
        self.stats = StatsRegistry()
        self.rng = RngStreams(config.seed)
        # Untraced machines (the common case) get the inert null
        # recorder, so tracing costs one cached flag check on the
        # message hot path.  Head-sampling draws come from a dedicated
        # substream so the decision sequence is a pure function of the
        # seed and adding (or removing) tracing never perturbs other
        # RNG consumers.
        self.spans = (
            SpanRecorder(
                enabled=True,
                capacity=config.tracing.span_capacity,
                sample_rate=config.tracing.sample_rate,
                sampler=self.rng.stream("tracing.head"),
            )
            if trace
            else NullSpanRecorder()
        )
        self.topology: Topology = make_topology(config.topology, config.num_nodes)
        self.nodes: List[SimNode] = [
            SimNode(i, self.sim) for i in range(config.num_nodes)
        ]
        # An empty plan degrades to no plan so the fault-free fast
        # paths (one cached boolean in Network and the AM endpoint)
        # stay engaged.
        if faults is not None and faults.empty:
            faults = None
        self.faults: Optional[FaultInjector] = (
            FaultInjector(faults, config.seed, self.stats)
            if faults is not None
            else None
        )
        self.network = Network(
            self.sim, self.topology, self.nodes, config.network, self.stats,
            faults=self.faults,
        )
        #: The partition manager's CPU (not on the data network).
        self.frontend_node = SimNode(-1, self.sim)
        # Quiescence-probe counter cells, bound once (net_idle is
        # polled repeatedly by the load balancer while the machine
        # idles, so cell lookups must not be on that path).
        stats = self.stats
        self._c_am_sends = stats.cell("am.sends")
        self._c_am_delivered = stats.cell("am.delivered")
        # Only the workless req/deny probes are excluded from the
        # in-flight arithmetic.  The symmetric ``steal.proto_*`` audit
        # cells also count grants, which carry real work and must hold
        # quiescence open while in flight.
        self._c_steal_sent = stats.cell("steal.chatter_sent")
        self._c_steal_recv = stats.cell("steal.chatter_recv")
        # Under fault injection the packet books only balance once
        # drops (sent, never delivered) and duplicates (delivered
        # twice) are added back in.
        self._c_dropped = stats.cell("faults.dropped_packets")
        self._c_dup = stats.cell("faults.dup_packets")
        # Reliability acks are pure control traffic; like steal chatter
        # they must not hold quiescence open (idle nodes trading polls
        # always have an ack briefly in flight).
        self._c_ack_sent = stats.cell("rel.ack_sent")
        self._c_ack_recv = stats.cell("rel.ack_recv")
        self._c_ack_dropped = stats.cell("faults.dropped_acks")
        self._c_ack_dup = stats.cell("faults.dup_acks")
        # Work probes: callables the runtime registers (one per
        # dispatcher) so quiescence can see ready-but-unscheduled work.
        self._work_probes: List = []

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def node(self, node_id: int) -> SimNode:
        return self.nodes[node_id]

    def run(self, **kwargs) -> float:
        """Drain the event heap; returns the final simulated time."""
        return self.sim.run(**kwargs)

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def pending(self) -> int:
        """Queued (non-cancelled) events.  O(1)."""
        return self.sim.pending

    @property
    def events_executed(self) -> int:
        """Total handler invocations across all nodes."""
        return self.sim.events_executed

    def net_idle(self) -> bool:
        """True when no application message is in flight.

        Computed from global counter arithmetic — sound here because
        the discrete-event machine mutates counters one event at a
        time.  Steal-protocol chatter and reliability acks are control
        traffic and excluded (see the cell comments in ``__init__``).
        """
        inflight = (
            self._c_am_sends.n + self._c_dup.n
            - self._c_dropped.n - self._c_am_delivered.n
        )
        steal_chatter = self._c_steal_sent.n - self._c_steal_recv.n
        ack_chatter = (
            self._c_ack_sent.n + self._c_ack_dup.n
            - self._c_ack_dropped.n - self._c_ack_recv.n
        )
        return inflight - steal_chatter - ack_chatter <= 0

    def register_work_probe(self, probe) -> None:
        """Register a callable reporting True while runnable work is
        held above the platform (a kernel's ready queue)."""
        self._work_probes.append(probe)

    def quiescent(self) -> bool:
        """No message in flight and no probe holding runnable work."""
        if not self.net_idle():
            return False
        return not any(probe() for probe in self._work_probes)

    def cpu_utilisation(self) -> List[float]:
        """Fraction of elapsed simulated time each node spent busy."""
        elapsed = self.sim.now or 1.0
        return [min(1.0, n.busy_us / elapsed) for n in self.nodes]

    def shutdown(self) -> None:
        """Nothing to release: the simulator owns no OS resources."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimMachine(P={self.num_nodes}, topology={self.config.topology}, "
            f"t={self.sim.now:.1f}us)"
        )
