"""Configuration objects shared by the simulator and the runtime.

The defaults describe a CM-5-like partition: 33 MHz SPARC processing
elements connected by a fat-tree, driven through a CMAM-style
active-message layer.  All times are **simulated microseconds**.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal, Optional


@dataclass(frozen=True)
class NetworkParams:
    """Interconnect cost model (CM-5 data network via CMAM).

    The base numbers are calibrated so that the runtime-primitive
    micro-benchmarks land on the paper's published values (remote
    creation issue 5.83 us vs. actual 20.83 us; locality check under
    1 us); see ``repro.runtime.costmodel`` for the calibration table.
    """

    #: Fall-through wire latency for a single-hop message (us).
    base_latency_us: float = 3.0
    #: Additional latency per fat-tree hop (us).
    per_hop_us: float = 0.5
    #: Sender-side NIC injection cost per byte (us/byte).
    inject_us_per_byte: float = 0.025
    #: Receiver-side NIC drain cost per byte (us/byte).
    drain_us_per_byte: float = 0.025
    #: Bytes the receiving NIC can buffer before back-pressure sets in.
    rx_buffer_bytes: int = 16 * 1024
    #: Penalty factor applied to bytes that overflow the receive buffer.
    #: Models the packet back-up / retry traffic the paper's minimal
    #: flow control is designed to avoid.
    backup_penalty_us_per_byte: float = 0.25
    #: Size in bytes of a minimal active-message packet (header included).
    packet_bytes: int = 20

    @classmethod
    def cm5(cls) -> "NetworkParams":
        """The default: CM-5 data network through CMAM."""
        return cls()

    @classmethod
    def now_atm(cls) -> "NetworkParams":
        """A mid-90s network of workstations over ATM (the platform
        the paper's conclusions point at): an order of magnitude more
        wire latency and roughly 15 MB/s per link, but the same
        runtime on top.  Calibrated from the Active Messages over ATM
        measurements the paper cites [34]."""
        return cls(
            base_latency_us=26.0,
            per_hop_us=4.0,
            inject_us_per_byte=0.065,
            drain_us_per_byte=0.065,
            rx_buffer_bytes=64 * 1024,
            backup_penalty_us_per_byte=0.4,
            packet_bytes=48,
        )


@dataclass(frozen=True)
class SchedulerParams:
    """Intra-node scheduling knobs exposed to the HAL compiler."""

    #: Maximum depth of compiler-controlled stack-based inline
    #: invocations before falling back to the buffered generic send.
    max_inline_depth: int = 32
    #: Enable static dispatch with locality check (compiler interface).
    static_dispatch: bool = True
    #: Enable collective scheduling of broadcast messages.
    collective_broadcast: bool = True
    #: Stack-based (LIFO, newest-first) scheduling of ready items —
    #: the paper's compiler-controlled stack-based scheduling.  Work
    #: expands depth-first, keeping queues small and leaving the
    #: biggest-grain subtrees at the old end where thieves steal.
    #: False selects plain FIFO (queue-based) scheduling, the regime
    #: the ABCL/onAP1000 comparison row in Table 3 represents.
    stack_scheduling: bool = True


@dataclass(frozen=True)
class LoadBalanceParams:
    """Receiver-initiated random-polling work stealing (Kumar et al.)."""

    enabled: bool = False
    #: Idle time before an idle node polls a random peer (us).
    poll_interval_us: float = 50.0
    #: A node grants a steal only if it has more ready items than this.
    surplus_threshold: int = 1
    #: Maximum number of items handed over per successful poll.
    max_grant: int = 1
    #: Steal from the head of the ready queue.  Task expansion is
    #: breadth-first (the dispatcher is FIFO), so the head holds the
    #: oldest — i.e. shallowest, biggest-grain — stealable subtree.
    steal_from_tail: bool = False


@dataclass(frozen=True)
class MpParams:
    """Wire-path knobs for the process-per-node (mp) backend.

    Outbound packets are coalesced per destination into binary frames
    (see :mod:`repro.platform.wireformat`): a destination's batch is
    flushed when it reaches ``batch_bytes`` or ``batch_max_msgs``, and
    unconditionally at the end of every worker wakeup (so a message
    never waits on an idle node for company).  ``transport`` selects
    the interconnect: ``"pipe"`` is a full mesh of multiprocessing
    duplex pipes carrying whole frames; ``"socket"`` is a full mesh of
    UNIX-domain stream socketpairs driven with raw scatter writes and
    bulk reads — one ``recv`` can pull in many frames, so the syscall
    count per message drops further on chatty workloads; ``"shm"``
    skips the kernel entirely — per-directed-edge single-producer/
    single-consumer ring buffers in one ``multiprocessing.shared_memory``
    arena (:mod:`repro.platform.shmring`), ``ring_bytes`` of data ring
    per edge, with spin-then-``Condition`` blocking on empty/full.
    """

    #: Interconnect between worker processes.
    transport: Literal["pipe", "socket", "shm"] = "pipe"
    #: Flush a destination's batch at this many buffered frame bytes.
    batch_bytes: int = 32 * 1024
    #: ... or at this many buffered messages, whichever comes first.
    batch_max_msgs: int = 128
    #: Data capacity of each shm ring (``transport="shm"`` only).
    #: Frames larger than this still cross — in chunks — but a ring
    #: comfortably above ``batch_bytes`` keeps writers out of the
    #: backpressure path.  Tiny values are legal (tests use them to
    #: force wraparound and full-ring behaviour).
    ring_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.transport not in ("pipe", "socket", "shm"):
            raise ValueError(
                f"unknown mp transport {self.transport!r}; "
                "expected 'pipe', 'socket' or 'shm'"
            )
        if self.batch_bytes < 1:
            raise ValueError("batch_bytes must be >= 1")
        if self.batch_max_msgs < 1:
            raise ValueError("batch_max_msgs must be >= 1")
        if self.ring_bytes < 1:
            raise ValueError("ring_bytes must be >= 1")


@dataclass(frozen=True)
class NetParams:
    """Socket-mesh knobs for the asyncio network backend.

    Each node is a process reachable over a real socket: ``"tcp"``
    listens on ``(host, port_base + node_id)`` per node (``port_base
    = 0`` lets the OS pick an ephemeral port for each listener — the
    right default for tests, where fixed ports collide), ``"unix"``
    uses per-node UNIX-domain socket paths under a private temp
    directory (single-host only, no port management).  Workers
    bootstrap into a full mesh through the driver: every worker
    reports its bound address, the driver broadcasts the address map,
    and each worker dials its lower-numbered peers (redialling for up
    to ``connect_timeout_s`` while listeners come up).  Frames on the
    wire are the same :mod:`repro.platform.wireformat` batches the mp
    backend ships, and, as on mp, the reliable-AM sublayer attaches
    only under a fault plan: a live stream already delivers exactly
    once and in order.
    """

    #: Socket family: real TCP or single-host UNIX-domain sockets.
    transport: Literal["tcp", "unix"] = "tcp"
    #: Interface/host the per-node listeners bind ("tcp" only).
    host: str = "127.0.0.1"
    #: First listener port; node *i* binds ``port_base + i``.  0 means
    #: ephemeral — every node binds port 0 and the driver distributes
    #: the actual addresses.
    port_base: int = 0
    #: How long a worker keeps redialling a peer during mesh bring-up
    #: before giving up (seconds, wall clock).
    connect_timeout_s: float = 15.0

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "unix"):
            raise ValueError(
                f"unknown net transport {self.transport!r}; "
                "expected 'tcp' or 'unix'"
            )
        if not (0 <= self.port_base <= 65535):
            raise ValueError("port_base must be within [0, 65535]")
        if self.port_base and self.port_base + 256 > 65536:
            raise ValueError("port_base too high for a node range")
        if self.connect_timeout_s <= 0:
            raise ValueError("connect_timeout_s must be positive")


@dataclass(frozen=True)
class TracingParams:
    """Always-on causal tracing knobs (see :mod:`repro.tracing`).

    Span recording is cheap enough to leave enabled: spans land in a
    pre-allocated ring buffer and whole traces are *head-sampled* — a
    keep-or-elide decision drawn once per root message journey from a
    dedicated seeded RNG stream and carried in the trace ID's low bit,
    so downstream hops pay one bit test.  Error/retransmit paths are
    recorded regardless of the draw, and ``StatsRegistry`` histograms
    stay exact and unsampled at any rate.
    """

    #: Fraction of root traces whose spans are recorded.  1.0 records
    #: everything (the default — what white-box tests rely on); 0.0
    #: records only forced error-path spans.
    sample_rate: float = 1.0
    #: Ring-buffer slots; when full the oldest spans are overwritten
    #: (and counted), never the newest.
    span_capacity: int = 65_536

    def __post_init__(self) -> None:
        if not (0.0 <= self.sample_rate <= 1.0):
            raise ValueError("sample_rate must be within [0, 1]")
        if self.span_capacity < 1:
            raise ValueError("span_capacity must be >= 1")


@dataclass(frozen=True)
class ReliabilityParams:
    """Reliable-delivery sublayer (acks + timeout/retry + dedupe).

    The CM-5's CMAM layer delivered every packet exactly once, so the
    paper's protocols assume a reliable substrate.  When fault
    injection withdraws that guarantee (:mod:`repro.sim.faults`) this
    sublayer restores it end-to-end: every AM carries a sequence
    number, the receiver acks it and absorbs duplicates keyed by
    ``(sender, seq)``, and the sender retransmits on timeout with
    exponential backoff.  A second layer of protocol-level watchdogs
    (FIR reissue, migration-handshake resend, alias-promotion retry)
    guards the multi-message exchanges whose *replies* can be lost.

    ``enabled=None`` (the default) means *automatic*: the sublayer is
    attached exactly when a fault plan is installed, so the fault-free
    fast path pays only one cached ``is None`` test per send.
    """

    #: None = attach iff faults are injected; True/False force it.
    enabled: Optional[bool] = None
    #: Time to wait for an ack before the first retransmit (us).
    ack_timeout_us: float = 600.0
    #: Multiplier applied to the timeout after each retransmit.
    backoff_factor: float = 2.0
    #: Ceiling on the per-attempt timeout (us).
    max_backoff_us: float = 20_000.0
    #: Retransmits before the sender gives up with ReliabilityError.
    max_retries: int = 18
    #: Protocol watchdogs: how long a FIR may sit unanswered before it
    #: is reissued (us), and the analogous migration-handshake and
    #: alias-promotion timeouts.  These run above the ack layer and
    #: also back off exponentially.
    fir_timeout_us: float = 3_000.0
    handshake_timeout_us: float = 3_000.0
    promotion_timeout_us: float = 4_000.0
    #: Retry cap shared by the protocol watchdogs.
    watchdog_max_retries: int = 12

    def __post_init__(self) -> None:
        if self.ack_timeout_us <= 0:
            raise ValueError("ack_timeout_us must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_retries < 0 or self.watchdog_max_retries < 0:
            raise ValueError("retry caps must be >= 0")


@dataclass(frozen=True)
class RuntimeConfig:
    """Top-level configuration for a HAL runtime instance."""

    #: Number of processing elements in the partition.
    num_nodes: int = 8
    #: Execution backend: ``sim`` is the deterministic discrete-event
    #: simulator (fault injection, timing tables); ``threaded`` runs
    #: each node on an OS thread in real time (convergence semantics,
    #: no determinism); ``mp`` runs each node in its own OS process
    #: (pickled wire packets, token-ring quiescence, no GIL sharing);
    #: ``asyncio`` runs each node in its own process behind a real
    #: TCP/UNIX socket mesh (cluster semantics: nodes are addresses;
    #: the name is historical).
    #: See :mod:`repro.platform`.
    backend: Literal["sim", "threaded", "mp", "asyncio"] = "sim"
    #: Interconnect topology: CM-5 fat-tree or binary hypercube.
    topology: Literal["fattree", "hypercube"] = "fattree"
    #: Seed for all deterministic random substreams.
    seed: int = 1995
    #: Use aliases to hide remote-creation latency (paper Section 5).
    alias_creation: bool = True
    #: Cache remote locality-descriptor addresses (paper Section 4.1).
    descriptor_caching: bool = True
    #: Minimal flow control for bulk transfers (paper Section 6.5).
    flow_control: bool = True
    #: Bulk-transfer threshold in bytes: payloads at or above this size
    #: use the three-phase CMAM protocol.
    bulk_threshold_bytes: int = 256

    network: NetworkParams = field(default_factory=NetworkParams)
    scheduler: SchedulerParams = field(default_factory=SchedulerParams)
    load_balance: LoadBalanceParams = field(default_factory=LoadBalanceParams)
    reliability: ReliabilityParams = field(default_factory=ReliabilityParams)
    #: Wire-path knobs for the mp backend (ignored elsewhere).
    mp: MpParams = field(default_factory=MpParams)
    #: Socket-mesh knobs for the asyncio backend (ignored elsewhere).
    net: NetParams = field(default_factory=NetParams)
    #: Span-recording knobs (head sampling + ring capacity); only
    #: consulted when the machine is built with ``trace=True``.
    tracing: TracingParams = field(default_factory=TracingParams)

    #: Abort the simulation after this many events (safety valve).
    max_events: int = 200_000_000

    def with_(self, **changes) -> "RuntimeConfig":
        """Return a copy of the config with ``changes`` applied."""
        return replace(self, **changes)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.backend not in ("sim", "threaded", "mp", "asyncio"):
            raise ValueError(
                f"unknown backend {self.backend!r}; expected 'sim', "
                "'threaded', 'mp' or 'asyncio'"
            )
        if self.bulk_threshold_bytes < 1:
            raise ValueError("bulk_threshold_bytes must be >= 1")
