"""Real-time threaded backend: one OS thread per processing element.

Where the simulator models a CM-5 partition, this backend *is* a tiny
one: every node runs its own worker thread draining a per-node inbound
queue (a priority heap of ``[due_us, seq, fn, args]`` entries, the
same shape the simulator uses), the clock is the host's wall clock in
microseconds, and messages cross between nodes by enqueueing onto the
destination's heap.  The runtime above is unchanged — name tables,
FIR chasing, migration and work stealing execute the same protocol
code over the same :mod:`repro.platform.base` interfaces.

What this backend guarantees:

- **per-node serialisation** — at most one handler runs on a node at a
  time (the worker thread is the node's CPU);
- **per-(src, dst) FIFO** — a global sequence counter orders same-due
  entries, so two sends from one handler arrive in order;
- **sound quiescence** — ``run()`` returns when the machine's live
  count (queued entries + armed timers + running handlers) reaches
  zero.  The count is decremented only *after* a handler returns, and
  new work is only enqueued from counted contexts or the driver, so
  zero can never be observed while a handler might still fan out.

What it does not guarantee: determinism (thread interleaving is the
host scheduler's) and fault injection (the injector needs the modelled
network).  Wire latency, NIC serialisation and back-pressure are not
modelled — delivery is as fast as the host runs — so timing-derived
measurements are meaningless here; use the sim backend for tables.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from time import perf_counter
from typing import Any, Callable, List, Optional

from repro.config import NetworkParams, RuntimeConfig
from repro.errors import NetworkError, ReproError, SimulationError
from repro.rng import RngStreams
from repro.stats import StatsRegistry
from repro.topology import Topology, make_topology
from repro.tracing import NullSpanRecorder, SpanRecorder

Callback = Callable[..., None]

#: Pure control chatter: message kinds excluded from the in-flight
#: count so idle nodes trading steal polls (or reliability acks) never
#: hold quiescence open.  Mirrors the counter arithmetic in
#: ``SimMachine.net_idle``.
_CHATTER_KINDS = frozenset({"steal_req", "steal_deny", "__rel_ack__"})


class WallClock:
    """Monotonic host clock in microseconds since construction."""

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = perf_counter()

    @property
    def now(self) -> float:
        return (perf_counter() - self._t0) * 1e6


class _Timer:
    """Cancellable handle on a queued entry (threaded analogue of the
    simulator's :class:`~repro.sim.engine.Event`)."""

    __slots__ = ("_entry", "_node", "label")

    def __init__(self, node: "ThreadedNode", entry: list, label: str = "") -> None:
        self._node = node
        self._entry = entry
        self.label = label

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        """Prevent the entry from running.  Idempotent; a no-op once
        the worker has started (or consumed) it."""
        node = self._node
        with node._lock:
            entry = self._entry
            if entry[2] is None:
                return
            entry[2] = None
            entry[3] = ()
            node._cv.notify()
        node.machine._dec_live()


class ThreadedNode:
    """A processing element backed by one worker thread.

    Matches the :class:`~repro.platform.base.NodeExecutor` protocol,
    including the writable ``now``/``busy_us`` attributes the AM hot
    path mutates directly.  ``now`` is set from the wall clock at
    handler entry; :meth:`charge` advances it (pure accounting — the
    thread does not sleep, so charged costs do not slow real time).
    """

    __slots__ = (
        "node_id", "machine", "clock", "now", "busy_us", "_in_handler",
        "events_run", "_heap", "_lock", "_cv", "_exec_lock", "_stopped",
        "_thread",
    )

    def __init__(self, node_id: int, machine: "ThreadedMachine") -> None:
        self.node_id = node_id
        self.machine = machine
        self.clock = machine.clock
        #: Node-local clock, valid during a handler execution.
        self.now: float = 0.0
        #: Total microseconds of CPU time charged on this node.
        self.busy_us: float = 0.0
        self._in_handler = False
        #: Entries executed by this node's worker (read for the
        #: machine-wide events_executed total; written only by the
        #: owning worker thread, so the sum is exact at quiescence).
        self.events_run: int = 0
        self._heap: list[list] = []
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        #: Serialises handler execution against driver-side bootstrap.
        self._exec_lock = threading.Lock()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._worker, name=f"repro-node-{node_id}", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # scheduling (thread-safe: called from any node's worker or driver)
    # ------------------------------------------------------------------
    def _enqueue(self, at: float, fn: Callback, args: tuple) -> list:
        self.machine._inc_live()
        entry = [at, next(self.machine._seq), fn, args]
        with self._lock:
            heapq.heappush(self._heap, entry)
            self._cv.notify()
        return entry

    def execute(self, at: float, fn: Callback, *, label: str = "") -> _Timer:
        """Run ``fn`` on this node no earlier than wall time ``at``."""
        return _Timer(self, self._enqueue(at, fn, ()), label)

    def execute_now(self, fn: Callback, *, label: str = "") -> _Timer:
        return _Timer(self, self._enqueue(self.time(), fn, ()), label)

    def post(self, at: float, fn: Callback, args: tuple = ()) -> None:
        self._enqueue(at, fn, args)

    def post_now(self, fn: Callback, args: tuple = ()) -> None:
        self._enqueue(self.time(), fn, args)

    def post_preempting(self, at: float, fn: Callback, args: tuple = ()) -> None:
        """No preemption in real time: the entry queues like any other
        (the worker is between handlers often enough that network
        servicing is not starved)."""
        self._enqueue(at, fn, args)

    def defer(self, fn: Callback, args: tuple = ()) -> None:
        """Inline: the wall clock and the node clock never diverge the
        way the simulator's lazy charging lets them."""
        fn(*args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        heap = self._heap
        cv = self._cv
        clock = self.clock
        while True:
            with cv:
                fn: Optional[Callback] = None
                while fn is None:
                    if self._stopped:
                        return
                    if heap:
                        entry = heap[0]
                        if entry[2] is None:  # tombstone
                            heapq.heappop(heap)
                            continue
                        wait_us = entry[0] - clock.now
                        if wait_us <= 0:
                            heapq.heappop(heap)
                            # Consume under the lock so a late cancel()
                            # through a handle is a no-op.
                            fn = entry[2]
                            args = entry[3]
                            entry[2] = None
                            break
                        cv.wait(timeout=wait_us / 1e6)
                    else:
                        cv.wait()
            with self._exec_lock:
                self.now = clock.now
                self._in_handler = True
                try:
                    fn(*args)
                finally:
                    self._in_handler = False
                    self.events_run += 1
            self.machine._dec_live()

    def bootstrap(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on this node synchronously from the driver thread,
        serialised against the worker (the driver borrows the node's
        CPU, exactly like the simulator's driver-side bootstrap)."""
        if self._in_handler and threading.current_thread() is self._thread:
            raise SimulationError(
                f"bootstrap on node {self.node_id} during a handler; "
                "use execute_now instead"
            )
        with self._exec_lock:
            self.now = self.clock.now
            self._in_handler = True
            try:
                return fn()
            finally:
                self._in_handler = False

    # ------------------------------------------------------------------
    def charge(self, us: float) -> None:
        """Account ``us`` microseconds of modelled CPU time.  Advances
        the node-local clock but never sleeps — modelled costs are
        bookkeeping here, not real time."""
        if us < 0:
            raise SimulationError(f"negative charge {us}")
        self.now += us
        self.busy_us += us

    @property
    def in_handler(self) -> bool:
        return self._in_handler

    def time(self) -> float:
        return self.now if self._in_handler else self.clock.now

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            self._cv.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadedNode({self.node_id})"


class ThreadedTransport:
    """Inter-thread message passing shaped like the sim's ``Network``.

    ``unicast`` enqueues the delivery on the destination node's heap.
    No latency, serialisation or congestion is modelled — the point of
    this backend is protocol execution on a real substrate, not
    timing.  Application messages (everything but steal/ack chatter)
    are counted in flight from injection until their delivery handler
    *returns*, which is what makes :meth:`ThreadedMachine.net_idle`
    exact rather than a racy counter difference.
    """

    def __init__(
        self,
        machine: "ThreadedMachine",
        topology: Topology,
        nodes: List["ThreadedNode"],
        params: NetworkParams,
        stats: StatsRegistry,
    ) -> None:
        self.machine = machine
        self.topology = topology
        self.nodes = nodes
        self.params = params
        self.stats = stats
        self.faults = None
        self._faults_on = False
        self._c_messages = stats.cell("net.messages")
        self._c_bytes = stats.cell("net.bytes")
        self._lock = threading.Lock()
        #: Application messages in flight (injected, handler not yet
        #: returned).  Exact: guarded by ``_lock``.
        self._msgs = 0

    # ------------------------------------------------------------------
    def unicast(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Callback,
        args: tuple = (),
        *,
        label: str = "",
    ) -> float:
        if src == dst:
            raise NetworkError("unicast requires distinct src/dst; local sends "
                               "bypass the network")
        if nbytes <= 0:
            raise NetworkError(f"message size must be positive, got {nbytes}")
        self._c_messages.n += 1
        self._c_bytes.n += nbytes
        now = self.machine.clock.now
        node = self.nodes[dst]
        if label in _CHATTER_KINDS:
            node.post_preempting(now, deliver, args)
        else:
            with self._lock:
                self._msgs += 1
            node.post_preempting(now, self._deliver_counted, (deliver, args))
        return now

    def _deliver_counted(self, deliver: Callback, args: tuple) -> None:
        try:
            deliver(*args)
        finally:
            with self._lock:
                self._msgs -= 1

    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        with self._lock:
            return self._msgs

    def reset_contention(self) -> None:
        """No NIC state to forget."""


class ThreadedMachine:
    """A partition of ``config.num_nodes`` worker threads.

    Satisfies :class:`~repro.platform.base.PlatformMachine`.  Stats
    counters are written from many threads without locks — under the
    GIL increments can race and lose updates, which is acceptable for
    diagnostics but is exactly why quiescence here rests on the exact
    ``_live`` / transport counts instead of counter arithmetic.
    """

    deterministic = False
    supports_faults = False
    supports_tracing = True
    distributed = False

    #: Driver poll interval while waiting on a predicate or deadline.
    _POLL_S = 0.0005

    def __init__(
        self,
        config: RuntimeConfig,
        *,
        trace: bool = False,
        faults=None,
    ) -> None:
        if faults is not None and not getattr(faults, "empty", False):
            from repro.platform.capabilities import unsupported_message

            raise ReproError(unsupported_message("threaded", "supports_faults"))
        self.config = config
        self.clock = WallClock()
        self.stats = StatsRegistry()
        self.rng = RngStreams(config.seed)
        # Same dedicated sampling substream as the sim backend; on this
        # backend the draw sequence is still deterministic even though
        # interleaving is not, so which *rooting order* wins a draw may
        # differ run to run.
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
        self.faults = None
        # Live-work accounting: queued entries + armed timers + running
        # handlers.  Zero is a sound termination signal because the
        # count is only decremented after a handler returns, and only
        # counted contexts (or the driver, before run()) enqueue.
        self._live = 0
        self._live_cv = threading.Condition()
        self._work_probes: List = []
        self._seq = itertools.count()
        self._shut = False
        self.nodes: List[ThreadedNode] = [
            ThreadedNode(i, self) for i in range(config.num_nodes)
        ]
        self.network = ThreadedTransport(
            self, self.topology, self.nodes, config.network, self.stats
        )
        #: The partition manager's CPU (not on the data network).
        self.frontend_node = ThreadedNode(-1, self)

    # ------------------------------------------------------------------
    # live-work accounting
    # ------------------------------------------------------------------
    def _inc_live(self) -> None:
        with self._live_cv:
            self._live += 1

    def _dec_live(self) -> None:
        with self._live_cv:
            self._live -= 1
            if self._live <= 0:
                self._live_cv.notify_all()

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def node(self, node_id: int) -> ThreadedNode:
        return self.nodes[node_id]

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        with self._live_cv:
            return max(0, self._live)

    @property
    def events_executed(self) -> int:
        return sum(n.events_run for n in self.nodes) + self.frontend_node.events_run

    def run(
        self,
        *,
        until: Optional[float] = None,
        until_idle: bool = True,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Wait until the machine drains (live count zero), a predicate
        fires, or the wall-clock deadline ``until`` (µs) passes.  The
        workers run continuously; this only blocks the driver."""
        clock = self.clock
        with self._live_cv:
            while True:
                if stop_when is not None and stop_when():
                    break
                # A drained machine returns even when a predicate never
                # fires (e.g. a lost reply): there is nothing left that
                # could make it true.
                if self._live <= 0:
                    break
                if until is not None and clock.now >= until:
                    break
                if stop_when is not None or until is not None:
                    self._live_cv.wait(timeout=self._POLL_S)
                else:
                    self._live_cv.wait()
        return clock.now

    def net_idle(self) -> bool:
        """True when no application message is in flight (exact count
        held by the transport; chatter excluded by construction)."""
        return self.network.in_flight() == 0

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
        """Fraction of elapsed wall time each node spent charged busy.
        Indicative only: charges are modelled costs, not host CPU."""
        elapsed = self.clock.now or 1.0
        return [min(1.0, n.busy_us / elapsed) for n in self.nodes]

    def shutdown(self) -> None:
        """Stop and join every worker thread.  Idempotent."""
        if self._shut:
            return
        self._shut = True
        for n in self.nodes:
            n.stop()
        self.frontend_node.stop()
        for n in self.nodes:
            n._thread.join(timeout=2.0)
        self.frontend_node._thread.join(timeout=2.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThreadedMachine(P={self.num_nodes}, "
            f"topology={self.config.topology}, t={self.clock.now:.1f}us)"
        )
