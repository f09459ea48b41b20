"""The platform seam: interfaces the runtime consumes, backends provide.

The HAL runtime (name tables, FIR chasing, aliases, join
continuations, load balancing) is defined against an abstract active-
message machine, not against a particular execution substrate.  This
module pins down that abstraction as four narrow protocols:

``Clock``
    A monotonic microsecond clock.  The simulator's clock only moves
    when events fire; the threaded backend's is the host's wall clock.

``NodeExecutor``
    One processing element's CPU: serialised handler execution,
    cancellable timers, CPU-time accounting, and a driver-side
    ``bootstrap`` entry point.  The upper layers only ever run code
    *on* a node through this interface.

``Transport``
    The partition interconnect: point-to-point ``unicast`` with a
    byte-cost model, delivering by scheduling the handler on the
    destination node.  Ordering guarantee: per (src, dst) pair,
    delivery is FIFO.

``PlatformMachine``
    The booted partition: N node executors, a transport, the
    observability sinks (stats/spans), RNG streams, topology,
    and execution control (``run`` to a deadline/predicate/idle,
    ``net_idle`` for quiescence detection, ``shutdown``).

These are :class:`typing.Protocol` classes — backends satisfy them
structurally, no registration or inheritance required — which keeps
the simulator's hot-path representation (plain attributes, bound
methods in heap entries) untouched.  The layering lint
(``tools/check_layering.py``) enforces that ``repro.runtime`` and
``repro.am`` import execution machinery only from ``repro.platform``.

Feature support differs per backend and is advertised by flags on the
machine.  The single source of truth is the declarative table in
:mod:`repro.platform.capabilities` (tests pin the class flags, the
rejection messages and the README matrix against it):

========================  ===========  ============  ====  =========
capability                sim          threaded      mp    asyncio
========================  ===========  ============  ====  =========
``deterministic``         yes          no            no    no
``supports_faults``       yes          no            yes   yes
``supports_tracing``      yes          yes           no    no
``distributed``           no           no            yes   yes
========================  ===========  ============  ====  =========

A *distributed* machine runs each node in its own OS process: nothing
is shared, every message crosses an operating-system boundary as a
:class:`WirePacket` — batched per destination into compact binary
frames (:mod:`repro.platform.wireformat`) over a pipe mesh, a
UNIX-domain socket mesh, or shared-memory SPSC rings
(:mod:`repro.platform.shmring`) — and quiescence is detected by a
token-ring protocol rather than shared counters.  The runtime facade
consults the flag to route driver operations as commands instead of
direct calls.  Fault injection on mp is per-worker: each node derives
its own injector seed, so the draw stream per (seed, node) is
reproducible even though the global interleaving is not.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

Callback = Callable[..., None]


class WirePacket(NamedTuple):
    """The explicit, picklable wire form of an active-message packet.

    On shared-memory backends delivery hands a bound method straight to
    the destination node's heap; on a distributed backend the packet
    must serialise, so the AM layer describes it as plain data: the
    destination re-binds ``handler`` against its own endpoint's handler
    table.  ``kind`` is the logical message kind (the transmit label)
    used for chatter classification and quiescence accounting.

    A packet is the unit of *identity* (quiescence counts packets),
    not the unit of transmission: transports may batch many packets
    into one frame with a struct-packed header and interned handler
    names, serialising only ``args`` (see
    :mod:`repro.platform.wireformat`).
    """

    src: int
    dst: int
    handler: str
    args: tuple
    nbytes: int
    kind: str


@runtime_checkable
class Clock(Protocol):
    """A monotonic microsecond clock."""

    @property
    def now(self) -> float:
        """Current time in microseconds since machine boot."""
        ...


@runtime_checkable
class TimerHandle(Protocol):
    """Handle on deferred work scheduled via :meth:`NodeExecutor.execute`."""

    def cancel(self) -> None:
        """Prevent the work from running.  Idempotent; a no-op once
        the work has started."""
        ...


@runtime_checkable
class NodeExecutor(Protocol):
    """One processing element's CPU.

    All handler execution on a node is serialised: at most one handler
    runs at a time, and within a handler ``now`` is the node-local
    time that :meth:`charge` advances.  The ``post_*`` methods are the
    allocation-lean per-message fast path; ``execute*`` return a
    cancellable handle for timers.
    """

    node_id: int
    #: Node-local clock, valid during a handler execution.  Writable —
    #: the AM layer advances it directly on its hot path.
    now: float
    #: Total microseconds of CPU time charged on this node.
    busy_us: float

    @property
    def in_handler(self) -> bool:
        """True while a handler is executing on this node."""
        ...

    def charge(self, us: float) -> None:
        """Consume ``us`` microseconds of CPU time on this node."""
        ...

    def time(self) -> float:
        """The node's best notion of current time: node-local time
        inside a handler, global platform time otherwise.  Timers arm
        relative to this."""
        ...

    def execute(self, at: float, fn: Callback, *, label: str = "") -> TimerHandle:
        """Run ``fn`` on this node no earlier than time ``at``;
        returns a cancellable handle (the timer primitive)."""
        ...

    def execute_now(self, fn: Callback, *, label: str = "") -> TimerHandle:
        """Run ``fn`` on this node as soon as the CPU is free."""
        ...

    def post(self, at: float, fn: Callback, args: tuple = ()) -> None:
        """Fast path of :meth:`execute`: no handle, args pass-through."""
        ...

    def post_now(self, fn: Callback, args: tuple = ()) -> None:
        """Fast path of :meth:`execute_now`."""
        ...

    def post_preempting(self, at: float, fn: Callback, args: tuple = ()) -> None:
        """Deliver ``fn`` at ``at`` even if the CPU is busy — the
        paper's node manager steals the processor to service network
        requests.  Backends without preemption degrade to :meth:`post`.
        """
        ...

    def defer(self, fn: Callback, args: tuple = ()) -> None:
        """Run ``fn(*args)`` at this node's current local time.

        On the simulator this bridges the node-local clock (which lazy
        charging lets run ahead) back onto the global event heap; on
        real-time backends the clocks never diverge and the call is
        made inline.  The AM send path uses this so message injection
        happens at a consistent global time.
        """
        ...

    def bootstrap(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on this node synchronously from the external
        driver (front-end program loading, test injection).  Returns
        ``fn``'s value.  Must not be called from inside a handler."""
        ...


@runtime_checkable
class Transport(Protocol):
    """The partition interconnect.

    Delivery contract: ``deliver(*args)`` runs on the *destination*
    node's executor; per (src, dst) pair deliveries are FIFO; the
    return value is the time the sender's NIC finishes injecting (the
    sender's CPU is occupied until then).
    """

    def unicast(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Callback,
        args: tuple,
        label: str = "",
    ) -> float:
        """Send ``nbytes`` from ``src`` to ``dst``; schedule
        ``deliver(*args)`` on the destination node.  ``label`` names
        the message kind for tracing and quiescence classification.
        Returns injection-done time at the source."""
        ...

    def reset_contention(self) -> None:
        """Forget NIC/pairwise serialisation state (benchmark reruns)."""
        ...


@runtime_checkable
class PlatformMachine(Protocol):
    """A booted partition of ``num_nodes`` processing elements."""

    nodes: Sequence[NodeExecutor]
    #: The partition manager's CPU (not on the data network).
    frontend_node: NodeExecutor
    network: Transport

    #: True when runs are bit-reproducible given a seed.  Invariant
    #: checks that rely on exact global counter arithmetic (packet
    #: conservation) gate on this.
    deterministic: bool
    #: True when a fault plan can be installed on this backend.
    supports_faults: bool
    #: True when nodes run in separate OS processes (nothing shared;
    #: driver operations travel as commands, packets as framed
    #: :class:`WirePacket` data).
    distributed: bool

    @property
    def num_nodes(self) -> int: ...

    @property
    def now(self) -> float:
        """Current platform time in microseconds."""
        ...

    @property
    def pending(self) -> int:
        """Queued work items (events/messages/timers) not yet run."""
        ...

    def node(self, node_id: int) -> NodeExecutor: ...

    def run(
        self,
        *,
        until: Optional[float] = None,
        until_idle: bool = True,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Execute until idle, a deadline, or a predicate.  Returns
        the platform time reached."""
        ...

    def net_idle(self) -> bool:
        """True when no application message is in flight anywhere.

        Pure control chatter — steal-protocol probes and reliability
        acks — is excluded: idle nodes trading polls always have one
        briefly in flight, and it must not hold quiescence open.
        """
        ...

    def register_work_probe(self, probe: Callable[[], bool]) -> None:
        """Register a callable that returns True while its owner still
        holds runnable work (e.g. a dispatcher's ready queue).  The
        machine consults every probe in :meth:`quiescent`; distributed
        backends, whose detection runs remotely, may ignore probes
        registered on the driver."""
        ...

    def quiescent(self) -> bool:
        """True when no work remains anywhere: the network is idle and
        no registered work probe reports runnable items.  On a
        distributed backend this runs a fresh detection round (token
        ring) instead of reading shared counters."""
        ...

    def cpu_utilisation(self) -> List[float]:
        """Fraction of elapsed time each node spent busy."""
        ...

    def shutdown(self) -> None:
        """Release backend resources (threads, queues).  Idempotent."""
        ...
