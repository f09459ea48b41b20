"""Multiprocessing backend: one OS process per processing element.

This is the first backend where the GIL no longer serialises node
execution: every node runs a full runtime kernel inside its own
worker process, active messages cross between nodes as **batched
binary frames** (:mod:`repro.platform.wireformat`) over per-pair
duplex links, and the driver process holds no kernel state at all —
driver operations (load, spawn, send, call, grpnew, broadcast) travel
to the owning worker as synchronously-acknowledged commands on a
per-node control pipe.

The wire path is built for throughput, not per-packet convenience:

- **outbound batching** — packets coalesce per destination in a
  :class:`~repro.platform.wireformat.FrameEncoder` and flush on a
  byte/count threshold (``config.mp.batch_bytes`` /
  ``batch_max_msgs``), on a fixed cadence inside a handler burst, and
  unconditionally before the worker blocks, so N messages cost one
  syscall instead of N and nothing ever waits on an idle worker;
- **compact encoding** — a ``struct``-packed header (src, dst, nbytes,
  interned handler-name id) plus a payload pickle of the args only,
  with a one-slot identity cache so a broadcast fan-out serialises its
  payload once per batch rather than once per destination;
- **transport choice** — ``config.mp.transport`` selects full-mesh
  duplex pipes (frames ride ``send_bytes``), full-mesh UNIX-domain
  stream socketpairs (raw scatter writes, bulk ``recv`` reads that can
  pull many frames per syscall; the decoder reassembles split frames),
  or shared-memory SPSC rings (``"shm"``: one ring per directed peer
  edge in a single ``multiprocessing.shared_memory`` arena, frames
  copied in without a kernel crossing, spin-then-``Condition``
  blocking on empty/full — :mod:`repro.platform.shmring`).

Batching never changes message *identity*: the Safra counters below
count messages, not frames — a frame of five counted packets moves the
sender's counter by five and the receiver's by five as each decoded
record is processed, so distributed quiescence detection is exactly as
sound as it was on the one-pickle-per-packet path.

Nothing is shared, so the shared-counter quiescence arithmetic of the
sim backend (and the threaded backend's live count) is unavailable by
construction.  Termination is instead detected with a Safra-style
token ring:

- every worker keeps a message counter ``c`` (counted sends minus
  counted receives; steal/ack chatter is excluded, exactly as in the
  other backends' ``net_idle``) and a colour, *black* after any
  counted receive;
- node 0 coordinates: on a driver request it injects a white token
  carrying a running count; each worker forwards the token only when
  *passive* (no handler running, no live non-``steal.poll`` heap
  entry, no unread pipe data), adds its counter, blackens the token if
  it is black itself, and turns white;
- when the token returns white to a white node 0 with a zero total,
  no counted message is in flight and no worker holds work: node 0
  circulates a *quiesce* flag (stopping the balancers' polls) and
  reports success to the driver.

Determinism is not supported — OS scheduling orders delivery — but
**fault injection is**: each worker builds its own seeded
:class:`~repro.sim.faults.FaultInjector` over a per-node derivation of
the fault seed and consults it on the wire path at frame-record
granularity (drop/dup/delay/reorder on the sending worker, stall
windows on the receiver).  The per-(seed, node) draw *stream* is
deterministic — replaying a seed reproduces the same fault pattern
relative to each node's local send sequence — even though the global
interleaving is not; Safra's counters stay conserved because a dropped
packet is never counted as in flight and a delayed or duplicated copy
is counted at its actual transmit time while a live heap entry keeps
the node non-passive.  With a plan installed the kernels auto-attach
the reliable AM sublayer and protocol watchdogs exactly as on sim, so
``check_invariants`` can audit packet conservation against the
injected-fault budget on merged (exact, per-process) counters.

A payload that does not pickle is a **hard error**
(:class:`~repro.errors.NetworkError` on the sending worker, surfaced
to the driver), where the in-process backends would happily share the
object by reference.
"""

from __future__ import annotations

import heapq
import itertools
import pickle
import selectors
import socket
import time
import traceback
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional

from repro.config import RuntimeConfig
from repro.errors import NetworkError, ReproError, SimulationError
from repro.platform.base import WirePacket
from repro.platform.shmring import attach_arena, create_arena
from repro.platform.threaded import _CHATTER_KINDS, WallClock
from repro.platform.wireformat import FrameDecoder, FrameEncoder, encode_payload
from repro.rng import RngStreams, _derive_seed
from repro.stats import Histogram, StatsRegistry
from repro.topology import Topology, make_topology
from repro.tracing import NullSpanRecorder

Callback = Callable[..., None]

#: Heap-entry label of the balancer's poll timers: the only deferred
#: work a passive node may hold (mirrors the chatter exclusion).
_POLL_LABEL = "steal.poll"

#: Handler-burst cadence: every this-many consecutive heap entries the
#: worker flushes outbound batches and peeks at the network.  Checking
#: after *every* handler (PR 5) cost one poll syscall per event; a
#: small power-of-two batch keeps both latency and syscalls low.
_BURST_MASK = 0x07

#: Resolution of a timed readiness wait: epoll takes whole
#: milliseconds.  A worker sleeps shorter timer waits instead.
_EPOLL_TICK_S = 0.001

#: Shm transport: poll iterations before parking on the Condition.
#: The common case (a peer's frame lands within microseconds) never
#: touches the futex-ful cross-process lock.
_SHM_SPIN = 100

#: Shm transport: Condition-wait bound.  The sleeping/writer_wait
#: handshake is a Dekker-style store→load protocol that can miss a
#: wakeup under store buffering; the bounded wait converts that into
#: a <=2 ms stall instead of a hang (DESIGN.md §5f).
_SHM_WAIT_S = 0.002


#: Detection pacing: after the first retry the driver spaces failed
#: Safra rounds by a delay doubling from the first value to the second.
_PACE_MIN_S, _PACE_MAX_S = 0.0001, 0.002

#: Driver commands that neither inject work nor change worker state.
_PURE_OPS = frozenset(("snap", "audit", "resolve", "detect", "stop"))


def _pickling_errors():
    return (TypeError, AttributeError, pickle.PicklingError)


def _read_set(entries) -> selectors.BaseSelector:
    """A selector with every ``(fileobj, data)`` of ``entries``
    registered for reads — once; ``connection.wait`` and
    ``Connection.poll`` build, fill and close one on every call."""
    sel = selectors.DefaultSelector()
    for fileobj, data in entries:
        sel.register(fileobj, selectors.EVENT_READ, data)
    return sel


# ======================================================================
# peer channels: one per (worker, peer) pair, transport-specific
# ======================================================================
class _PipeChannel:
    """Peer link over a multiprocessing duplex pipe.  Frames travel as
    whole ``send_bytes`` messages, so the pipe's own message framing
    does the reassembly and the decoder always sees complete frames."""

    __slots__ = ("conn", "encoder", "decoder", "dirty", "_more")

    def __init__(self, conn) -> None:
        self.conn = conn
        self.encoder = FrameEncoder()
        self.decoder = FrameDecoder()
        #: True while this channel may hold unflushed outbound bytes.
        self.dirty = False
        #: ``select(0)`` on this pipe alone: "is another frame queued?"
        self._more = _read_set([(conn, None)])

    def send_frame(self, frame: bytes) -> None:
        self.conn.send_bytes(frame)

    def read_available(self) -> None:
        """Feed everything currently readable to the decoder; the host
        dispatches only then, so one burst's replies share frames."""
        recv = self.conn.recv_bytes
        feed = self.decoder.feed
        more = self._more.select
        feed(recv())
        while more(0):
            feed(recv())

    def close(self) -> None:
        self._more.close()
        self.conn.close()


class _SocketChannel:
    """Peer link over a stream socket: a UNIX-domain socketpair here, a
    dialled TCP or UNIX connection on the socket cluster
    (:mod:`repro.platform.asyncio_net`).

    Unlike the pipe channel there is no message boundary: one ``recv``
    may return half a frame or a dozen frames, and the decoder's
    reassembly buffer absorbs the difference.  Reads are bulk
    (64 KiB), so a burst of small frames costs one syscall, not one
    per frame — the low-syscall half of the transport experiment."""

    __slots__ = ("sock", "encoder", "decoder", "dirty")

    _CHUNK = 1 << 16

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.encoder = FrameEncoder()
        self.decoder = FrameDecoder()
        self.dirty = False

    def send_frame(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def read_available(self) -> None:
        recv = self.sock.recv
        feed = self.decoder.feed
        while True:
            try:
                data = recv(self._CHUNK, socket.MSG_DONTWAIT)
            except BlockingIOError:
                return
            if not data:
                raise EOFError("peer socket closed")
            feed(data)
            if len(data) < self._CHUNK:
                return

    def close(self) -> None:
        self.sock.close()


def _make_channel(end: Any) -> Any:
    """Wrap a transport endpoint in its channel type."""
    if isinstance(end, socket.socket):
        return _SocketChannel(end)
    return _PipeChannel(end)


class _ShmChannel:
    """Peer link over a pair of shared-memory SPSC byte rings (one per
    direction; :mod:`repro.platform.shmring`).

    Unlike the pipe/socket channels there is no OS waitable: readiness
    is a head/tail compare, blocking is spin-then-``Condition``.  A
    full outbound ring raises the ring's ``writer_wait`` flag and
    parks on *this* worker's condition (the consumer notifies after
    freeing space); while waiting, ``drain_hook`` absorbs this
    worker's own inbound rings into their decoders — buffer-only, no
    dispatch, so it is safe mid-handler — which breaks the two-rings-
    both-full write cycle.  Frames larger than the ring cross in
    chunks; the decoder reassembles, exactly as on the socket path."""

    __slots__ = (
        "out_ring", "in_ring", "encoder", "decoder", "dirty",
        "_arena", "_peer", "_my_cond", "_peer_cond", "drain_hook",
    )

    def __init__(self, arena, conds, me: int, peer: int) -> None:
        self.out_ring = arena.ring(me, peer)
        self.in_ring = arena.ring(peer, me)
        self.encoder = FrameEncoder()
        self.decoder = FrameDecoder()
        self.dirty = False
        self._arena = arena
        self._peer = peer
        self._my_cond = conds[me]
        self._peer_cond = conds[peer]
        #: Host-installed: feed *all* inbound rings to their decoders.
        self.drain_hook = None

    def send_frame(self, frame: bytes) -> None:
        mv = memoryview(frame)
        off = 0
        total = len(mv)
        spins = 0
        out = self.out_ring
        while off < total:
            n = out.write_some(mv[off:] if off else mv)
            if n:
                off += n
                spins = 0
                self._wake_peer()
                continue
            # Full ring: keep our own inbound moving, spin, then park.
            hook = self.drain_hook
            if hook is not None:
                hook()
            spins += 1
            if spins < _SHM_SPIN:
                continue
            out.set_writer_wait()
            try:
                if out.writable:
                    continue  # consumer freed space during the spin
                with self._my_cond:
                    self._my_cond.wait(_SHM_WAIT_S)
            finally:
                out.clear_writer_wait()
            spins = 0

    def _wake_peer(self) -> None:
        if self._arena.sleeping(self._peer):
            cond = self._peer_cond
            with cond:
                cond.notify()

    def read_available(self) -> bool:
        """Move every published inbound byte into the decoder; True if
        anything arrived.  Frees ring space as a side effect, so a
        writer parked on the reverse direction gets notified here."""
        got = False
        in_ring = self.in_ring
        feed = self.decoder.feed
        while True:
            data = in_ring.read_some()
            if not data:
                break
            got = True
            feed(data)
            if in_ring.writer_waiting:
                cond = self._peer_cond
                with cond:
                    cond.notify()
        return got

    def close(self) -> None:
        """Nothing to close per channel; the arena is shared."""


# ======================================================================
# worker side: node executor, wire transport, runtime shims
# ======================================================================
class _WorkerTimer:
    """Cancellable handle on a worker heap entry (tombstoning, same
    scheme as the sim and threaded backends)."""

    __slots__ = ("_entry", "label")

    def __init__(self, entry: list, label: str = "") -> None:
        self._entry = entry
        self.label = label

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        self._entry[2] = None
        self._entry[3] = ()


class _WorkerNode:
    """One worker process's CPU: a single-threaded heap of
    ``[due_us, seq, fn, args, label]`` entries drained by the host
    loop.  Satisfies :class:`~repro.platform.base.NodeExecutor`."""

    __slots__ = (
        "node_id", "clock", "now", "busy_us", "_in_handler", "events_run",
        "_heap", "_seq",
    )

    def __init__(self, node_id: int, clock: WallClock) -> None:
        self.node_id = node_id
        self.clock = clock
        self.now: float = 0.0
        self.busy_us: float = 0.0
        self._in_handler = False
        self.events_run = 0
        self._heap: List[list] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    def _enqueue(self, at: float, fn: Callback, args: tuple, label: str) -> list:
        entry = [at, next(self._seq), fn, args, label]
        heapq.heappush(self._heap, entry)
        return entry

    def execute(self, at: float, fn: Callback, *, label: str = "") -> _WorkerTimer:
        return _WorkerTimer(self._enqueue(at, fn, (), label), label)

    def execute_now(self, fn: Callback, *, label: str = "") -> _WorkerTimer:
        return _WorkerTimer(self._enqueue(self.time(), fn, (), label), label)

    def post(self, at: float, fn: Callback, args: tuple = ()) -> None:
        self._enqueue(at, fn, args, "")

    def post_now(self, fn: Callback, args: tuple = ()) -> None:
        self._enqueue(self.time(), fn, args, "")

    def post_preempting(self, at: float, fn: Callback, args: tuple = ()) -> None:
        self._enqueue(at, fn, args, "")

    def defer(self, fn: Callback, args: tuple = ()) -> None:
        """Inline: the wall clock never diverges the way the
        simulator's lazy charging allows."""
        fn(*args)

    def bootstrap(self, fn: Callable[[], Any]) -> Any:
        if self._in_handler:
            raise SimulationError(
                f"bootstrap on node {self.node_id} during a handler; "
                "use execute_now instead"
            )
        self.now = self.clock.now
        self._in_handler = True
        try:
            return fn()
        finally:
            self._in_handler = False

    def run_entry(self, fn: Callback, args: tuple) -> None:
        """Execute one heap entry or inbound delivery as a handler."""
        self.now = self.clock.now
        self._in_handler = True
        try:
            fn(*args)
        finally:
            self._in_handler = False
            self.events_run += 1

    # ------------------------------------------------------------------
    def charge(self, us: float) -> None:
        if us < 0:
            raise SimulationError(f"negative charge {us}")
        self.now += us
        self.busy_us += us

    @property
    def in_handler(self) -> bool:
        return self._in_handler

    def time(self) -> float:
        return self.now if self._in_handler else self.clock.now

    def passive(self) -> bool:
        """No live heap entry except balancer poll timers."""
        return all(e[2] is None or e[4] == _POLL_LABEL for e in self._heap)

    def live_work(self) -> int:
        return sum(
            1 for e in self._heap if e[2] is not None and e[4] != _POLL_LABEL
        )


class _WireTransport:
    """The worker's view of the interconnect: packets join the
    destination's outbound frame batch (see ``_WorkerHost.send_wire``).
    Supports exactly the AM endpoint's delivery convention
    (``args == (src, handler, payload)``); the callback is never
    invoked on the sending side — the destination process re-binds the
    handler name against its own endpoint."""

    #: Signals the AM endpoint that no peer-endpoint lookup is possible.
    wire_only = True

    def __init__(
        self, host: "_WorkerHost", params, stats: StatsRegistry, faults=None
    ) -> None:
        self.host = host
        self.params = params
        self.stats = stats
        #: Worker-local :class:`~repro.sim.faults.FaultInjector` (or
        #: None).  The AM endpoint caches ``_faults_on`` at
        #: construction, so both are fixed before the kernel is built.
        self.faults = faults
        self._faults_on = faults is not None
        self._c_messages = stats.cell("net.messages")
        self._c_bytes = stats.cell("net.bytes")

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
        if len(args) != 3:
            raise NetworkError(
                "the mp wire transport carries AM endpoint packets only "
                f"(src, handler, payload); got {len(args)} args"
            )
        packet = WirePacket(src, dst, args[1], args[2], nbytes, label or args[1])
        self._c_messages.n += 1
        self._c_bytes.n += nbytes
        if self._faults_on:
            faults = self.faults
            rule = faults.rule_for(packet.kind)
            if rule is not None:
                host = self.host
                now = host.node.time()
                extras = faults.sample(rule, packet.kind, src, dst, now)
                # [] = dropped: the sender paid the wire (net.* above,
                # mirroring the sim's faulty path) but the packet never
                # reaches send_wire, so the Safra count never moves and
                # conservation holds by construction.  A delayed or
                # duplicated copy transmits later from the worker heap:
                # the live (non-poll) entry keeps this node non-passive,
                # so the token ring cannot certify quiescence around it,
                # and its count moves at actual transmit time.
                for extra in extras:
                    if extra <= 0.0:
                        host.send_wire(packet)
                    else:
                        host.node.post(now + extra, host.send_wire, (packet,))
                return host.clock.now
        self.host.send_wire(packet)
        return self.host.clock.now

    def reset_contention(self) -> None:
        """No NIC state to forget."""


class _WorkerMachine:
    """The worker-local slice of the platform: exactly the attribute
    surface :class:`~repro.runtime.kernel.Kernel` reads from
    ``runtime.machine``."""

    deterministic = False
    supports_faults = True
    supports_tracing = False
    distributed = True

    def __init__(
        self, host: "_WorkerHost", config: RuntimeConfig, fault_plan=None
    ) -> None:
        self.config = config
        self.stats = StatsRegistry()
        self.spans = NullSpanRecorder()
        self.rng = RngStreams(config.seed)
        self.topology: Topology = make_topology(config.topology, config.num_nodes)
        self.faults = None
        if fault_plan is not None:
            # One injector per worker, seeded per (fault seed, node):
            # each node's draw stream is independent and reproducible
            # against its own send sequence.  Built BEFORE the network
            # and kernel — the endpoint caches ``_faults_on`` and the
            # kernel attaches the reliable sublayer iff
            # ``machine.faults is not None``, both at construction.
            import dataclasses

            from repro.sim.faults import FaultInjector

            base = fault_plan.seed if fault_plan.seed is not None else config.seed
            node_plan = dataclasses.replace(
                fault_plan, seed=_derive_seed(base, f"mp-node-{host.node_id}")
            )
            self.faults = FaultInjector(node_plan, config.seed, self.stats)
        self.network = _WireTransport(
            host, config.network, self.stats, faults=self.faults
        )
        # Keyed by node id so Kernel's ``machine.nodes[node_id]`` works
        # even though only this worker's node exists in-process.
        self.nodes: Dict[int, _WorkerNode] = {host.node_id: host.node}


class _WorkerRuntime:
    """Worker-local stand-in for :class:`~repro.runtime.system.HalRuntime`:
    one kernel, the real :class:`~repro.runtime.frontend.FrontEnd`, and
    the machine shim above.  Protocol code only ever touches this
    surface, so the kernel runs unmodified."""

    def __init__(
        self, host: "_WorkerHost", config: RuntimeConfig, costs, fault_plan=None
    ) -> None:
        from repro.am.broadcast import TreeMulticaster
        from repro.runtime.frontend import FrontEnd
        from repro.runtime.kernel import Kernel

        self.host = host
        self.config = config
        self.costs = costs
        self.machine = _WorkerMachine(host, config, fault_plan)
        self.endpoint_directory: Dict[int, Any] = {}
        self.frontend = FrontEnd(self)
        self.kernels = [Kernel(self, host.node_id)]
        self.multicaster = TreeMulticaster(
            self.machine.topology, self.endpoint_directory
        )
        self.multicaster.install()

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def quiescent(self) -> bool:
        """The worker's view of global quiescence: the flag the token
        ring's quiesce broadcast sets (reset by any counted receive or
        work-injecting command).  The balancer polls this to stop."""
        return self.host.quiesced


# ======================================================================
# worker host loop + Safra ring
# ======================================================================
class _WorkerHost:
    """The event loop of one worker process: drains the node heap,
    services the control and peer pipes, and participates in the
    token-ring termination protocol."""

    def __init__(
        self,
        node_id: int,
        config: RuntimeConfig,
        costs,
        ctrl,
        peers: Dict[int, Any],
        shm: Optional[tuple] = None,
        fault_plan=None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.ctrl = ctrl
        self.peers = peers
        self.clock = WallClock()
        self.node = _WorkerNode(node_id, self.clock)
        self.quiesced = False
        self._stop = False
        # Safra state: counted sends - counted receives, and the
        # colour (black after any counted receive).  Workers start
        # black: the first round can never falsely succeed.
        self._count = 0
        self._black = True
        self._token: Optional[tuple] = None     # stashed inbound token
        self._detect_rid: Optional[int] = None  # node 0: active request
        self._initiated_rid: Optional[int] = None  # node 0: round launched
        self._arena = None
        if shm is not None:
            # Shm transport: attach the driver's arena (untracked) and
            # build ring channels; the control pipe is the only fd —
            # ring readiness is a head/tail compare.
            arena_name, conds = shm
            self._arena = attach_arena(
                arena_name, config.num_nodes, config.mp.ring_bytes
            )
            self._my_cond = conds[node_id]
            self.channels: Dict[int, Any] = {
                nid: _ShmChannel(self._arena, conds, node_id, nid)
                for nid in range(config.num_nodes)
                if nid != node_id
            }
            for ch in self.channels.values():
                ch.drain_hook = self._absorb_inbound
        else:
            self.channels = {
                nid: _make_channel(end) for nid, end in peers.items()
            }
        #: The readiness set: the control pipe (data None) and every
        #: peer fd (data = its channel); the shm host has no peer fds,
        #: so its set holds the control pipe alone.
        self._sel = _read_set(
            [(ctrl, None)]
            + [(end, self.channels[nid]) for nid, end in peers.items()]
        )
        self._chan_list = [self.channels[k] for k in sorted(self.channels)]
        #: Channels that may hold unflushed outbound bytes.
        self._dirty: List[Any] = []
        self._batch_bytes = config.mp.batch_bytes
        self._batch_msgs = config.mp.batch_max_msgs
        #: One-slot payload-bytes cache keyed by args-tuple identity:
        #: a broadcast's tree-forward sends the same tuple to every
        #: child, so the pickle runs once per fan-out, not per child.
        #: The strong reference keeps the identity test sound (a freed
        #: tuple's id could be recycled).
        self._pay_obj: Any = None
        self._pay_bytes: bytes = b""
        self.runtime = _WorkerRuntime(self, config, costs, fault_plan)
        self.kernel = self.runtime.kernels[0]
        #: Worker-local injector (None without a plan); consulted on
        #: the receive path for stall windows.
        self._faults = self.runtime.machine.faults
        stats = self.runtime.machine.stats
        self._c_frames = stats.cell("wire.frames")
        self._c_frame_bytes = stats.cell("wire.frame_bytes")
        self._c_wire_msgs = stats.cell("wire.messages")
        self._c_pay_reuse = stats.cell("wire.payload_reuse")
        #: The share of ``wire.frames`` that carried a token or quiesce
        #: record (each also carries whatever data was buffered ahead).
        self._c_token_frames = stats.cell("wire.token_frames")

    # ------------------------------------------------------------------
    # wire
    # ------------------------------------------------------------------
    def send_wire(self, packet: WirePacket) -> None:
        ch = self.channels.get(packet.dst)
        if ch is None:
            raise NetworkError(f"no channel to node {packet.dst}")
        counted = packet.kind not in _CHATTER_KINDS
        if counted:
            self._count += 1
        args = packet.args
        if args is self._pay_obj:
            payload = self._pay_bytes
            self._c_pay_reuse.n += 1
        else:
            try:
                payload = encode_payload(args)
            except _pickling_errors() as exc:
                # The packet never left: the failed send must not count
                # as in flight or quiescence detection would hang.
                if counted:
                    self._count -= 1
                raise NetworkError(
                    f"non-picklable payload in {packet.kind!r} packet "
                    f"{packet.src}->{packet.dst}: {exc}"
                ) from exc
            self._pay_obj = args
            self._pay_bytes = payload
        enc = ch.encoder
        enc.add_message(packet, payload)
        self._c_wire_msgs.n += 1
        if not ch.dirty:
            ch.dirty = True
            self._dirty.append(ch)
        if (
            enc.messages >= self._batch_msgs
            or enc.pending_bytes >= self._batch_bytes
        ):
            self._send_now(ch)

    def _send_now(self, ch) -> None:
        """Seal and transmit the channel's open frame, if any."""
        frame = ch.encoder.take_frame()
        if frame is not None:
            self._c_frames.n += 1
            self._c_frame_bytes.n += len(frame)
            ch.send_frame(frame)

    def _flush_pending(self) -> None:
        """Transmit every channel's open frame.  Runs on the handler
        burst cadence and always before the loop blocks, so a buffered
        message never waits on its destination's behalf."""
        dirty = self._dirty
        if not dirty:
            return
        for ch in dirty:
            ch.dirty = False
            self._send_now(ch)
        dirty.clear()

    def _recv_wire(self, packet: WirePacket) -> None:
        if packet.kind not in _CHATTER_KINDS:
            self._count -= 1
            self._black = True
            self.quiesced = False
        endpoint = self.kernel.endpoint
        faults = self._faults
        if faults is not None and faults.node_faulted(self.node_id):
            # Stall window on this node: the packet *has* arrived (its
            # Safra decrement above already happened — conservation is
            # a wire property, not a dispatch property), but delivery
            # waits out the window on the worker heap.  The live entry
            # keeps this node non-passive, so the token ring cannot
            # certify quiescence across a stalled delivery.
            now = self.clock.now
            shifted = faults.stall_shift(self.node_id, now)
            if shifted > now:
                self.node.post(
                    shifted,
                    endpoint._deliver,
                    (packet.src, packet.handler, packet.args),
                )
                return
        self.node.run_entry(
            endpoint._deliver, (packet.src, packet.handler, packet.args)
        )

    # ------------------------------------------------------------------
    # token ring (Safra)
    # ------------------------------------------------------------------
    def _ring_next(self):
        return self.channels[(self.node_id + 1) % self.config.num_nodes]

    def _send_token(self, rid: int, count: int, black: bool) -> None:
        """Ring-control records flush immediately: the token must not
        sit in a batch waiting for data to keep it company.  They share
        the data stream, so any messages already buffered for the ring
        neighbour flush ahead of the token in FIFO order."""
        ch = self._ring_next()
        ch.encoder.add_token(rid, count, black)
        self._c_token_frames.n += 1
        self._send_now(ch)

    def _send_quiesce(self, rid: int) -> None:
        ch = self._ring_next()
        ch.encoder.add_quiesce(rid)
        self._c_token_frames.n += 1
        self._send_now(ch)

    def _passive(self) -> bool:
        if self.node.in_handler or not self.node.passive():
            return False
        if any(ch.decoder.buffered_bytes for ch in self.channels.values()):
            return False  # a partially-read frame is impending work
        # Unread input is impending work; wait for the loop to drain
        # it (Safra would still be correct without this check — the
        # sender's counter covers in-flight messages — but rounds
        # converge faster when the token never overtakes local input).
        return not self._net_ready()

    def _net_ready(self) -> bool:
        """Unread input exists: published ring bytes (shm) or a
        readable fd of the readiness set (control pipe, peer links)."""
        if self._arena is not None:
            for ch in self._chan_list:
                if ch.in_ring.readable:
                    return True
        return bool(self._sel.select(0))

    def _absorb_inbound(self) -> None:
        """Feed every inbound ring to its decoder — buffer only, no
        dispatch, so it is safe mid-handler.  Installed as the shm
        channels' ``drain_hook``: a writer parked on a full outbound
        ring keeps its own consumers' space moving, which breaks the
        both-rings-full write cycle between two busy peers."""
        for ch in self._chan_list:
            ch.read_available()

    def _maybe_advance_ring(self) -> None:
        # One step can unblock the next (dropping a stale token clears
        # the way to initiate the round that superseded it), and the
        # loop blocks in select right after this returns — so run
        # steps to a fixpoint rather than risking a missed wakeup.
        while self._ring_step():
            pass

    def _ring_step(self) -> bool:
        """Perform at most one ring action; True if state changed."""
        nn = self.config.num_nodes
        # Node 0: start a requested round, exactly once, when passive.
        if (
            self.node_id == 0
            and self._detect_rid is not None
            and self._detect_rid != self._initiated_rid
            and self._token is None
        ):
            if not self._passive():
                return False
            rid = self._detect_rid
            self._initiated_rid = rid
            if nn == 1:
                ok = self._count == 0
                self._finish_round(rid, ok)
                return True
            self._black = False
            self._send_token(rid, 0, False)
            return True
        if self._token is None or not self._passive():
            return False
        rid, count, black = self._token
        self._token = None
        if self.node_id == 0:
            if rid != self._detect_rid:
                return True  # stale token from an abandoned round
            ok = (not black) and (not self._black) and (count + self._count == 0)
            self._finish_round(rid, ok)
        else:
            self._send_token(rid, count + self._count, black or self._black)
            self._black = False
        return True

    def _finish_round(self, rid: int, ok: bool) -> None:
        self._detect_rid = None
        if ok:
            self.quiesced = True
            if self.config.num_nodes > 1:
                self._send_quiesce(rid)
        self.ctrl.send(("detected", rid, ok))

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    def _do_command(self, payload: tuple):
        from repro.runtime.program import HalProgram

        op = payload[0]
        kernel = self.kernel
        if op == "load":
            _, name, behaviors, tasks = payload
            program = HalProgram(name)
            for cls in behaviors:
                program.behavior(cls)
            program.tasks.update(tasks)
            self.runtime.frontend.load(program)
            if self.node_id != 0:
                # One load, P local links: only node 0 books the
                # program so the merged registry matches the sim's.
                self.machine_stats.incr("load.programs", -1)
            self.quiesced = False
            return None
        if op == "spawn":
            _, cls, args = payload
            self.quiesced = False
            return self.node.bootstrap(
                lambda: kernel.creation.create(cls, args, at=None)
            )
        if op == "spawn_remote":
            _, cls, args, at = payload
            self.quiesced = False
            return self.node.bootstrap(
                lambda: kernel.creation.create(cls, args, at=at)
            )
        if op == "send":
            _, ref, selector, args = payload
            self.quiesced = False
            self.node.bootstrap(
                lambda: kernel.delivery.send_message(ref, selector, args)
            )
            return None
        if op == "grpnew":
            _, cls, n, args, placement = payload
            self.quiesced = False
            return self.node.bootstrap(
                lambda: kernel.groups.grpnew(cls, n, args, placement=placement)
            )
        if op == "broadcast":
            _, group, selector, args = payload
            self.quiesced = False
            self.node.bootstrap(
                lambda: kernel.groups.broadcast(group, selector, args)
            )
            return None
        if op == "task":
            _, fn_name, args = payload
            self.quiesced = False
            self.node.bootstrap(
                lambda: kernel.creation.spawn_task(fn_name, args, at=None)
            )
            return None
        if op == "call":
            _, ref, selector, args, reply_id = payload
            self.quiesced = False

            def make_request():
                target = self._new_collector(reply_id)
                kernel.delivery.send_message(ref, selector, args,
                                             reply_to=target)

            self.node.bootstrap(make_request)
            return None
        if op == "collector":
            _, reply_id = payload
            return self.node.bootstrap(lambda: self._new_collector(reply_id))
        if op == "kick":
            self.quiesced = False
            kernel.balancer.kick()
            return None
        if op == "snap":
            return self._snapshot()
        if op == "audit":
            return self._audit()
        if op == "resolve":
            return self._resolve(payload[1])
        if op == "detect":
            # Only node 0 coordinates; a newer request supersedes any
            # round still waiting to start.
            self._detect_rid = payload[1]
            return None
        if op == "stop":
            self._stop = True
            return None
        raise ReproError(f"worker {self.node_id}: unknown command {op!r}")

    @property
    def machine_stats(self) -> StatsRegistry:
        return self.runtime.machine.stats

    def _new_collector(self, reply_id: int):
        from repro.actors.message import ReplyTarget

        kernel = self.kernel

        def fire(cont) -> None:
            value = cont.values()[0]
            kernel.continuations.discard(cont.cont_id)
            self.ctrl.send(("reply", reply_id, value))

        cont = kernel.continuations.new(1, fire, created_at=kernel.node.now)
        return ReplyTarget(kernel.node_id, cont.cont_id, 0)

    def _audit(self) -> Dict[str, Any]:
        """This worker's slice of the invariant audit: retained-work
        problems and the name-table view (both computed against the
        real kernel, in-process), plus the node's fault ledger — the
        driver chases forwarding chains over the merged tables
        (:func:`repro.sim.invariants.check_invariants`)."""
        from repro.sim.invariants import kernel_audit

        report = kernel_audit(self.kernel)
        report["node"] = self.node_id
        faults = self._faults
        report["ledger"] = list(faults.ledger) if faults is not None else []
        report["fault_summary"] = (
            faults.summary() if faults is not None else {}
        )
        return report

    def _resolve(self, address) -> tuple:
        """One hop of the socket-cluster driver's FIR-style chase: this
        node's current belief about ``address``, read straight from the
        name table — ``("local", node)``, ``("forward", best_guess)`` or
        ``("unknown",)``.  Never injects work or clears quiescence."""
        desc = self.kernel.table.get(address)
        if desc is None:
            return ("unknown",)
        if desc.is_local:
            return ("local", self.node_id)
        remote = desc.remote_node
        if remote >= 0 and remote != self.node_id:
            return ("forward", remote)
        return ("unknown",)

    def _snapshot(self) -> Dict[str, Any]:
        locations = {}
        actors = 0
        for desc in self.kernel.table:
            if desc.is_local and desc.actor is not None:
                actors += 1
                if desc.key is not None:
                    locations[desc.key] = self.node_id
        return {
            "stats": _dump_registry(self.machine_stats),
            "locations": locations,
            "actors": actors,
            "console": [
                (line.time, line.node, line.text)
                for line in self.runtime.frontend.console
            ],
            "busy_us": self.node.busy_us,
            "events_run": self.node.events_run,
            "now": self.clock.now,
            "pending": self.node.live_work(),
            # Safra state (white-box; debugging and tests only).
            "safra": (self._count, self._black, self._passive()),
        }

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _dispatch_ctrl(self, msg: tuple) -> None:
        tag = msg[0]
        if tag == "cmd":
            _, seq, payload = msg
            try:
                value = self._do_command(payload)
            except Exception:
                self.ctrl.send(("err", self.node_id, traceback.format_exc()))
            else:
                self.ctrl.send(("ok", seq, value))
        else:
            self.ctrl.send(
                ("err", self.node_id, f"unknown control tag {tag!r}")
            )

    def _dispatch_record(self, rec: tuple) -> None:
        """Process one decoded wire record.  Errors are reported
        per-record so a poisoned message cannot sink the rest of its
        frame (their Safra decrements must still happen)."""
        tag = rec[0]
        try:
            if tag == "msg":
                self._recv_wire(rec[1])
            elif tag == "tok":
                self._token = rec[1:]
            elif tag == "qsc":
                self.quiesced = True
                nxt = (self.node_id + 1) % self.config.num_nodes
                if nxt != 0:
                    self._send_quiesce(rec[1])
            else:  # pragma: no cover - decoder yields only the above
                raise NetworkError(f"unknown record tag {tag!r}")
        except Exception:
            # Protocol errors inside a handler (e.g. a non-picklable
            # payload on a relayed send) are reported and the worker
            # keeps serving, so shutdown still completes cleanly.
            self.ctrl.send(("err", self.node_id, traceback.format_exc()))

    def _run_ready(self) -> None:
        node = self.node
        heap = node._heap
        ran = 0
        while heap:
            entry = heap[0]
            if entry[2] is None:
                heapq.heappop(heap)
                continue
            if entry[0] > self.clock.now:
                break
            heapq.heappop(heap)
            fn, args = entry[2], entry[3]
            entry[2] = None
            node.run_entry(fn, args)
            ran += 1
            if ran & _BURST_MASK == 0:
                # Burst boundary: push batches out so peers compute
                # while we do, and yield to the network if it's ready.
                self._flush_pending()
                if self._net_ready():
                    break

    def _next_timeout(self) -> Optional[float]:
        heap = self.node._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        if not heap:
            return None
        return max(0.0, (heap[0][0] - self.clock.now) / 1e6)

    def loop(self) -> None:
        """Run the transport's step until stopped.  A failure inside a
        step is reported and the worker keeps serving; a vanished
        driver ends the loop."""
        step = self._step_shm if self._arena is not None else self._step_wait
        while not self._stop:
            try:
                step()
            except (EOFError, OSError):
                return  # the driver went away; nothing left to serve
            except Exception:
                try:
                    self.ctrl.send(
                        ("err", self.node_id, traceback.format_exc())
                    )
                except OSError:
                    return

    def _serve_ctrl(self) -> bool:
        """Dispatch every queued control command; True if any ran.
        For the shm host, whose readiness set is the control pipe alone."""
        served = False
        while not self._stop and self._sel.select(0):
            self._dispatch_ctrl(self.ctrl.recv())
            served = True
        return served

    def _step_wait(self) -> None:
        """Pipe/socket event loop: block in the readiness set's
        ``select`` until the next timer is due."""
        self._run_ready()
        self._maybe_advance_ring()
        # Everything buffered goes out before we block: a message
        # parked in an encoder while its destination idles would stall
        # the partition (and, because its send was already counted,
        # park the token ring in failed rounds rather than deadlock —
        # but why wait).
        self._flush_pending()
        timeout = self._next_timeout()
        if timeout is not None and 0.0 < timeout < _EPOLL_TICK_S:
            # epoll counts whole milliseconds and rounds a shorter wait
            # up: an entry due in 5 µs would cost 1 ms, and how often
            # the node clock runs that little ahead of the wall clock
            # depends on host speed.  Sleep the remainder, then poll.
            time.sleep(timeout)
            timeout = 0.0
        for key, _ in self._sel.select(timeout):
            ch = key.data
            if ch is None:
                # Control pipe: one command per (level-triggered) report.
                self._dispatch_ctrl(self.ctrl.recv())
                if self._stop:
                    return
            else:
                ch.read_available()
                for rec in ch.decoder.drain():
                    self._dispatch_record(rec)

    def _step_shm(self) -> None:
        """Shm event loop: readiness is a head/tail compare, not an fd
        — poll the rings and the control pipe, park on this worker's
        Condition (sleeping flag raised) only when nothing progressed
        and no heap entry is due."""
        node = self.node
        before = node.events_run
        self._run_ready()
        self._maybe_advance_ring()
        self._flush_pending()
        progressed = self._serve_ctrl() or node.events_run != before
        if self._stop:
            return
        for ch in self._chan_list:
            if ch.read_available():
                progressed = True
            # A blocked send's drain_hook may have buffered records
            # behind our back: drain decoders unconditionally, not just
            # on fresh ring bytes.
            for rec in ch.decoder.drain():
                progressed = True
                self._dispatch_record(rec)
        if not progressed:
            timeout = self._next_timeout()
            if timeout != 0.0:  # else a heap entry is already due
                self._sleep_shm(timeout)

    def _sleep_shm(self, timeout: Optional[float]) -> None:
        """Park with the sleeping flag raised so peers (and the
        driver) notify this worker's Condition.  The readiness recheck
        *inside* the lock shrinks — the bounded wait closes — the
        Dekker window between a peer's tail publish and its read of
        our sleeping flag (DESIGN.md §5f)."""
        wait = _SHM_WAIT_S if timeout is None else min(timeout, _SHM_WAIT_S)
        if wait <= 0.0:
            return
        arena = self._arena
        cond = self._my_cond
        arena.set_sleeping(self.node_id, True)
        try:
            with cond:
                if not self._net_ready():
                    cond.wait(wait)
        finally:
            arena.set_sleeping(self.node_id, False)


def _worker_main(
    node_id: int,
    config: RuntimeConfig,
    costs,
    ctrl,
    peers,
    shm: Optional[tuple] = None,
    fault_plan=None,
) -> None:
    """Process entry point (module-level so a spawn start method can
    pickle it; the fork path just inherits everything)."""
    host = None
    try:
        host = _WorkerHost(node_id, config, costs, ctrl, peers, shm, fault_plan)
        host.loop()
    except BaseException:  # noqa: BLE001 - last-resort report to driver
        try:
            ctrl.send(("err", node_id, traceback.format_exc()))
        except OSError:
            pass
    finally:
        if host is not None and host._arena is not None:
            host._arena.close()


# ======================================================================
# registry marshalling
# ======================================================================
def _dump_registry(reg: StatsRegistry) -> Dict[str, Any]:
    """Raw picklable dump of a worker's registry (including zeros, so
    the driver-side rebuild is a pure accumulate)."""
    return {
        "counters": {k: c.n for k, c in reg._cells.items() if c.n},
        "timers": {
            k: (t.count, t.total_us, t.min_us, t.max_us)
            for k, t in reg.timers.items() if t.count
        },
        "gauges": dict(reg.gauges),
        "hists": {
            k: (list(h.buckets), h.count, h.total, h.min, h.max)
            for k, h in reg.hists.items() if h.count
        },
    }


def _merge_registry(into: StatsRegistry, dump: Dict[str, Any]) -> None:
    for k, n in dump["counters"].items():
        into.incr(k, n)
    for k, (count, total_us, min_us, max_us) in dump["timers"].items():
        t = into.timer(k)
        t.count += count
        t.total_us += total_us
        t.min_us = min(t.min_us, min_us)
        t.max_us = max(t.max_us, max_us)
    for k, v in dump["gauges"].items():
        into.max_gauge(k, v)
    for k, (buckets, _count, total, mn, mx) in dump["hists"].items():
        h = into.hist(k)
        h._fold()  # settle any driver-side staged samples first
        for i, n in enumerate(buckets):
            if n and i < Histogram.NUM_BUCKETS:
                h.buckets[i] += n
        # count is derived from the buckets on read; total/min/max
        # accumulate on the private fields behind the folding
        # properties.
        h._total += total
        h._min = min(h._min, mn)
        h._max = max(h._max, mx)


# ======================================================================
# driver side
# ======================================================================
class _StubNode:
    """Driver-side :class:`~repro.platform.base.NodeExecutor` stand-in.

    The real executor lives in the worker process; this stub satisfies
    the structural protocol (so conformance checks and white-box tests
    can introspect the machine) and refuses actual execution — driver
    work must travel as commands."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.now = 0.0
        self.busy_us = 0.0
        self.events_run = 0

    def _refuse(self) -> "ReproError":
        return ReproError(
            f"node {self.node_id} runs in a worker process; the mp "
            "driver cannot execute on it directly — use runtime commands"
        )

    @property
    def in_handler(self) -> bool:
        return False

    def charge(self, us: float) -> None:
        raise self._refuse()

    def time(self) -> float:
        return self.now

    def execute(self, at: float, fn: Callback, *, label: str = ""):
        raise self._refuse()

    def execute_now(self, fn: Callback, *, label: str = ""):
        raise self._refuse()

    def post(self, at: float, fn: Callback, args: tuple = ()) -> None:
        raise self._refuse()

    def post_now(self, fn: Callback, args: tuple = ()) -> None:
        raise self._refuse()

    def post_preempting(self, at: float, fn: Callback, args: tuple = ()) -> None:
        raise self._refuse()

    def defer(self, fn: Callback, args: tuple = ()) -> None:
        raise self._refuse()

    def bootstrap(self, fn: Callable[[], Any]) -> Any:
        raise self._refuse()


class _StubTransport:
    """Driver-side Transport stand-in (structural conformance only)."""

    def __init__(self, params) -> None:
        self.params = params
        self.faults = None
        self._faults_on = False

    def unicast(self, src, dst, nbytes, deliver, args=(), *, label=""):
        raise ReproError(
            "the mp driver holds no data network; packets travel "
            "between worker processes"
        )

    def reset_contention(self) -> None:
        """Nothing to forget on the driver."""


class MpMachine:
    """A partition of ``config.num_nodes`` worker processes.

    Satisfies :class:`~repro.platform.base.PlatformMachine` with
    ``distributed = True``: the driver side holds stub nodes, a merged
    stats registry (rebuilt from worker snapshots), and the command /
    detection plumbing.  Workers are spawned by :meth:`start_workers`
    (the runtime calls it once it knows the cost model)."""

    deterministic = False
    supports_faults = True
    supports_tracing = False
    distributed = True
    #: Per-process counters are single-threaded (exact) and merged
    #: after quiescence, so conservation arithmetic is trustworthy
    #: even though the machine itself is not deterministic.
    counters_exact = True

    #: Driver wait quantum while a caller's ``stop_when`` must be
    #: re-evaluated; without one the driver blocks until an event.
    _POLL_S = 0.0005

    def __init__(
        self,
        config: RuntimeConfig,
        *,
        trace: bool = False,
        faults=None,
    ) -> None:
        self.config = config
        #: The fault plan shipped to every worker (each derives its own
        #: per-node injector seed); None when no faults are injected.
        #: The driver itself holds no injector — ``self.faults`` stays
        #: None and the merged ledger comes back through ``audit()``.
        self.fault_plan = (
            faults
            if faults is not None and not getattr(faults, "empty", True)
            else None
        )
        self.clock = WallClock()
        self._stats = StatsRegistry()
        self.spans = NullSpanRecorder()
        self.rng = RngStreams(config.seed)
        self.topology: Topology = make_topology(config.topology, config.num_nodes)
        self.faults = None
        self.nodes: List[_StubNode] = [
            _StubNode(i) for i in range(config.num_nodes)
        ]
        self.frontend_node = _StubNode(-1)
        self.network = _StubTransport(config.network)
        #: Behaviour names shipped to the workers (the runtime's
        #: on-demand loading consults this instead of a kernel).
        self.loaded_behaviors: set = set()
        self._console: List[tuple] = []
        self._procs: List[Any] = []
        self._ctrl: List[Any] = []
        #: Readiness set: control pipes (data None) and worker
        #: sentinels (data = node); built after the forks.
        self._sel: Any = None
        self._seq = itertools.count(1)
        self._acks: Dict[int, Any] = {}
        self._rounds = itertools.count(1)
        self._reply_boxes: Dict[int, List[Any]] = {}
        self._reply_ids = itertools.count(1)
        self._detect_rid: Optional[int] = None
        self._detect_ok: Optional[bool] = None
        self._quiesced = False
        self._pending_hint = 0
        self._locations: Dict[Any, int] = {}
        self._actors = 0
        self._worker_error: Optional[str] = None
        #: Set once a worker process is found dead; every later
        #: control wait raises it.
        self._dead: Optional[str] = None
        #: The merged view (stats, locations, console, stub nodes)
        #: predates a command or run; the next read refreshes it.
        self._stale = False
        self._shut = False
        self._arena = None
        self._conds: Optional[List[Any]] = None

    # ------------------------------------------------------------------
    # boot / teardown
    # ------------------------------------------------------------------
    def start_workers(self, costs) -> None:
        """Spawn one worker process per node, wired with a control
        pipe each and a full mesh of peer links — duplex pipes or
        UNIX-domain socketpairs per ``config.mp.transport``."""
        if self._procs:
            return
        import multiprocessing as _mp

        methods = _mp.get_all_start_methods()
        ctx = get_context("fork" if "fork" in methods else None)
        nn = self.config.num_nodes
        transport = self.config.mp.transport
        use_sockets = transport == "socket"
        shm_info = None
        peer_ends: List[Dict[int, Any]] = [dict() for _ in range(nn)]
        if transport == "shm":
            # One arena of per-edge rings plus one Condition per worker
            # (park/notify for empty rings, full rings and control
            # commands alike).  Conditions travel as Process args —
            # inheritable under fork and spawn — while the arena goes
            # by *name*: SharedMemory itself does not pickle, and the
            # worker must attach untracked anyway (shmring docstring).
            self._arena = create_arena(nn, self.config.mp.ring_bytes)
            self._conds = [ctx.Condition() for _ in range(nn)]
            shm_info = (self._arena.name, self._conds)
        else:
            for i in range(nn):
                for j in range(i + 1, nn):
                    if use_sockets:
                        a, b = socket.socketpair()
                    else:
                        a, b = ctx.Pipe(duplex=True)
                    peer_ends[i][j] = a
                    peer_ends[j][i] = b
        for i in range(nn):
            parent, child = ctx.Pipe(duplex=True)
            self._ctrl.append(parent)
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    i, self.config, costs, child, peer_ends[i],
                    shm_info, self.fault_plan,
                ),
                name=f"repro-mp-node-{i}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        # The driver holds no end of the data network: drop our copies
        # so a dead worker surfaces as EOF on its peers, not a hang.
        for ends in peer_ends:
            for end in ends.values():
                end.close()
        self._watch_workers()

    def _watch_workers(self) -> None:
        self._sel = _read_set(
            [(conn, None) for conn in self._ctrl]
            + [(proc.sentinel, n) for n, proc in enumerate(self._procs)]
        )

    def _notify_worker(self, node: int) -> None:
        """Shm mode: kick the worker's Condition after a control send —
        a parked worker would otherwise only notice at its next bounded
        wakeup (≤ ``_SHM_WAIT_S``)."""
        if self._conds is not None:
            cond = self._conds[node]
            with cond:
                cond.notify()

    def shutdown(self) -> None:
        """Stop and join every worker process.  Idempotent."""
        if self._shut:
            return
        try:
            self._sync()  # post-close reads are served from this view
        except ReproError:
            pass  # a dead or failed worker: keep what we have
        self._shut = True
        for node, conn in enumerate(self._ctrl):
            try:
                conn.send(("cmd", next(self._seq), ("stop",)))
            except (OSError, ValueError):
                pass
            self._notify_worker(node)
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._ctrl:
            conn.close()
        if self._sel is not None:
            self._sel.close()
        if self._arena is not None:
            # Workers have joined (or been killed): release the
            # driver's mapping and destroy the segment.
            self._arena.close()
            self._arena.unlink()
            self._arena = None

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _raise_worker_error(self) -> None:
        if self._worker_error is not None:
            err, self._worker_error = self._worker_error, None
            raise ReproError(f"mp worker failed:\n{err}")
        if self._dead is not None:
            raise ReproError(self._dead)

    def _note_event(self, msg: tuple) -> None:
        """Record one control message: a command ack, a reply, a
        detection result or a worker error."""
        tag = msg[0]
        if tag == "ok":
            self._acks[msg[1]] = msg[2]
        elif tag == "reply":
            box = self._reply_boxes.get(msg[1])
            if box is not None:
                box.append(msg[2])
        elif tag == "detected":
            if msg[1] == self._detect_rid:
                self._detect_ok = msg[2]
        elif tag == "err":
            self._worker_error = msg[2]

    def _note_exit(self, node: int) -> None:
        """Worker ``node``'s sentinel fired.  A worker that leaves with
        code 0 mid-run lost a peer (the asyncio peers of a killed
        worker read EOF and return) and can be reaped before the one
        that was killed, so wait up to 0.5 s for a non-zero exit — the
        cause — to name."""
        if self._dead is not None:
            return
        procs = self._procs
        deadline = time.monotonic() + 0.5
        while True:
            failed = [n for n, proc in enumerate(procs) if proc.exitcode]
            if failed or time.monotonic() >= deadline:
                break
            time.sleep(0.005)  # also: the sentinel can precede the reap
        node = failed[0] if failed else node
        self._dead = f"mp worker {node} exited with code {procs[node].exitcode}"

    def _drain_events(self, timeout: Optional[float] = 0.0) -> bool:
        """Wait up to ``timeout`` seconds (None: until something
        arrives) in the readiness set, then read one message from each
        readable control pipe; True if any arrived.  Callers loop, and
        a pipe stays readable while more is queued, so an ack is never
        overtaken by an error its worker reported after it.  Raises on
        a worker error or a dead worker."""
        got = False
        for key, _ in self._sel.select(timeout):
            if key.data is None:
                try:
                    self._note_event(key.fileobj.recv())
                    got = True
                    continue
                except (EOFError, OSError):
                    pass  # its worker is gone; the sentinel names it
            else:
                self._note_exit(key.data)
            self._sel.unregister(key.fileobj)
        self._raise_worker_error()
        return got

    def _post(self, node: int, payload: tuple) -> int:
        """Send one command to ``node``; returns its ack's seq."""
        if payload[0] not in _PURE_OPS:
            self._quiesced = False
            self._stale = True
        seq = next(self._seq)
        try:
            self._ctrl[node].send(("cmd", seq, payload))
        except _pickling_errors() as exc:
            raise ReproError(
                f"the mp backend requires picklable driver payloads "
                f"(module-level behaviours/tasks, plain-data args): {exc}"
            ) from exc
        except OSError:  # its end is closed: let the sentinel name it
            self._procs[node].join(2.0)
            self._drain_events()
            raise
        self._notify_worker(node)
        return seq

    def _await(self, seqs: List[int]) -> List[Any]:
        """Block until every command of ``seqs`` is acked, noting any
        interleaved unsolicited events."""
        acks = self._acks
        while not all(seq in acks for seq in seqs):
            self._drain_events(None)
        return [acks.pop(seq) for seq in seqs]

    def command(self, node: int, payload: tuple) -> Any:
        """Send one command to ``node`` and block for its ack."""
        self._raise_worker_error()
        return self._await([self._post(node, payload)])[0]

    def broadcast_command(self, payload: tuple) -> List[Any]:
        """Send the same command to every worker; wait for all acks."""
        self._raise_worker_error()
        return self._await(
            [self._post(node, payload) for node in range(len(self._ctrl))]
        )

    # ------------------------------------------------------------------
    # driver operations (used by HalRuntime's distributed branches)
    # ------------------------------------------------------------------
    def load_program(self, program) -> None:
        from repro.actors.behavior import behavior_of

        payload = (
            "load",
            program.name,
            tuple(program.behaviors),
            dict(program.tasks),
        )
        self.broadcast_command(payload)
        for cls in program.behaviors:
            self.loaded_behaviors.add(behavior_of(cls).name)

    def new_reply_box(self) -> tuple:
        reply_id = next(self._reply_ids)
        box: List[Any] = []
        self._reply_boxes[reply_id] = box
        return reply_id, box

    # ------------------------------------------------------------------
    # execution control + termination detection
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        until: Optional[float] = None,
        until_idle: bool = True,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Drive the partition until the token ring certifies global
        quiescence, a predicate fires, or the wall-clock deadline
        ``until`` (µs) passes.  Workers run continuously; this loop
        only coordinates detection and reads control events — blocked
        in the readiness set, not polling, between them."""
        if self._procs:
            self.broadcast_command(("kick",))
            self._detect(until, stop_when)
        return self.clock.now

    def _detect(
        self, until: Optional[float], stop_when: Optional[Callable[[], bool]]
    ) -> bool:
        """Run detection rounds until one succeeds (True), or ``until``
        / ``stop_when`` ends the wait (False).  The first failure is
        retried at once (after activity it only whitened the ring),
        later ones after a delay that doubles from ``_PACE_MIN_S`` to
        ``_PACE_MAX_S``, waited out *inside* the readiness set so a
        reply, an error or a dead worker still wakes the driver.  When
        a round starts is free to choose: each round is judged on its
        own colours and counts (DESIGN.md §5f)."""
        pace = 0.0
        retry_at: Optional[float] = None
        self._start_detection()
        try:
            while True:
                if stop_when is not None and stop_when():
                    return False
                now = self.clock.now
                if until is not None and now >= until:
                    return False
                if retry_at is not None and now >= retry_at:
                    retry_at = None
                    self._start_detection()
                waits = [] if stop_when is None else [self._POLL_S]
                waits += [
                    (at - now) / 1e6 for at in (until, retry_at) if at is not None
                ]
                if self._detect_ok is None:  # else: came in with the ack
                    self._drain_events(min(waits, default=None))
                ok, self._detect_ok = self._detect_ok, None
                if ok:
                    self._quiesced = True
                    # Late events (a reply raced the detection result
                    # on another pipe) are still owed to the caller.
                    while self._drain_events():
                        pass
                    return True
                if ok is not None:
                    retry_at = self.clock.now + pace * 1e6
                    pace = min(max(2 * pace, _PACE_MIN_S), _PACE_MAX_S)
        finally:
            self._detect_rid = None

    def _start_detection(self) -> None:
        rid = next(self._rounds)
        self._detect_rid = rid
        self._detect_ok = None
        self.command(0, ("detect", rid))

    def quiescent(self) -> bool:
        """True when the token ring certifies no work remains.

        A cached positive verdict is trusted (only driver-issued
        commands can inject new work, and each of those clears it);
        otherwise detection runs, bounded by a short deadline so a
        genuinely busy partition answers False promptly instead of
        blocking until its work drains (a failed round may only have
        whitened a ring left black by earlier traffic, so rounds
        repeat; the token parks at any busy worker)."""
        if self._quiesced or not self._procs or self._shut:
            return True
        return self._detect(self.clock.now + 250_000.0, None)

    def net_idle(self) -> bool:
        return self.quiescent()

    def register_work_probe(self, probe) -> None:
        """Driver-side probes are meaningless here — worker passivity
        is observed by the token ring inside each process."""

    # ------------------------------------------------------------------
    # observation (snapshot merge)
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Refresh the merged view before a read.  ``run()`` and the
        commands only mark it stale: a snapshot is a broadcast plus a
        full registry merge, too dear to pay per ``rt.call``."""
        if self._stale:
            self._refresh()

    def _refresh(self) -> None:
        """Pull a snapshot from every worker and rebuild the merged
        registry, location map and console.  The view stays stale
        while the partition may still be working."""
        if not self._procs or self._shut:
            return
        snaps = self.broadcast_command(("snap",))
        self._stale = not self._quiesced
        self._stats.reset()
        self._locations = {}
        self._actors = 0
        self._pending_hint = 0
        console: List[tuple] = []
        for nid, snap in enumerate(snaps):
            _merge_registry(self._stats, snap["stats"])
            self._locations.update(snap["locations"])
            self._actors += snap["actors"]
            self._pending_hint += snap["pending"]
            console.extend(snap["console"])
            stub = self.nodes[nid]
            stub.busy_us = snap["busy_us"]
            stub.events_run = snap["events_run"]
            stub.now = snap["now"]
        self._console = sorted(console)

    #: Bound on the reliable-layer settle wait in :meth:`audit`.
    _AUDIT_SETTLE_S = 5.0

    def audit(self) -> List[Dict[str, Any]]:
        """Collect every worker's invariant-audit slice (retained-work
        problems, name-table view, fault ledger) and refresh the merged
        stats, so the driver-side ``check_invariants`` sees exact
        post-quiescence counters.  See ``_WorkerHost._audit``.

        Steal chatter is excluded from Safra counting, so its reliable
        envelopes can be dropped *behind* the token and still be
        mid-retransmit when the ring certifies quiescence.  That
        residue self-heals (retransmit timers keep firing after
        certification; the balancers have stopped, so it strictly
        drains) — settle-wait for it, bounded, and let a *persistent*
        unacked envelope surface as the real violation it is."""
        deadline = time.monotonic() + self._AUDIT_SETTLE_S
        while True:
            reports = self.broadcast_command(("audit",))
            if not any(r["rel_pending"] for r in reports):
                break
            if time.monotonic() >= deadline:  # pragma: no cover
                break
            time.sleep(0.002)
        self._refresh()
        return reports

    def locate(self, address) -> Optional[int]:
        self._sync()
        return self._locations.get(address)

    def actor_locations(self) -> Dict[Any, int]:
        self._sync()
        return dict(self._locations)

    def total_actors(self) -> int:
        self._sync()
        return self._actors

    @property
    def stats(self) -> StatsRegistry:
        self._sync()
        return self._stats

    @property
    def console_lines(self) -> List[tuple]:
        self._sync()
        return self._console

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def node(self, node_id: int) -> _StubNode:
        return self.nodes[node_id]

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        if self._quiesced:
            return 0
        self._sync()
        return self._pending_hint

    @property
    def events_executed(self) -> int:
        self._sync()
        return sum(n.events_run for n in self.nodes)

    def cpu_utilisation(self) -> List[float]:
        self._sync()
        elapsed = self.clock.now or 1.0
        return [min(1.0, n.busy_us / elapsed) for n in self.nodes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MpMachine(P={self.num_nodes}, topology={self.config.topology}, "
            f"t={self.clock.now:.1f}us)"
        )
