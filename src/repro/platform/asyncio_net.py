"""Asyncio socket-mesh backend: a cluster of processes over TCP.

The mp backend's workers talk over inherited pipe/socketpair file
descriptors, which confines a partition to children of one driver
process.  This backend replaces the inherited-fd mesh with **real
listening sockets** — TCP (``config.net.transport = "tcp"``) or
UNIX-domain paths (``"unix"``, single host, no port management) — so a
node is a process reachable at an address, the shape a multicomputer
partition actually has.  Everything above the transport is inherited
from :mod:`repro.platform.mp` unchanged: one runtime kernel per worker,
batched :mod:`repro.platform.wireformat` frames, driver commands over a
per-node control pipe, and Safra token-ring quiescence riding the data
channels.

Mesh bring-up is address-based rather than fd-based:

1. every worker binds a listener (an ephemeral port when
   ``net.port_base == 0``) and reports ``("listening", node, addr)`` on
   its control pipe;
2. the driver collects all addresses and broadcasts the address map;
3. each worker dials its **lower-numbered** peers (exactly one
   connection per pair), redialling for up to ``net.connect_timeout_s``
   while listeners come up, and identifies itself with a 4-byte hello;
4. once a worker holds all ``P - 1`` channels it reports ``("meshed",
   node)`` and the driver lets the runtime proceed.

The worker's event loop is ``asyncio``: one reader task per peer
connection feeds that channel's :class:`FrameDecoder` and sets a wake
event; the host coroutine alternates heap bursts, ring steps and batch
flushes with an event wait bounded by the next timer deadline.  The
control pipe joins the same loop through ``add_reader``.

**Loss tolerance is a layer, not an assumption.**  On the inherited-fd
transports a lost byte is impossible, so the reliable-AM sublayer
attaches only under fault injection.  A cluster socket can deliver
late, reset mid-stream, or be fed garbage by the fault injector, so on
this backend the sublayer (acks, timeout/retransmit, windowed dedupe —
:mod:`repro.am.reliable`) is **always attached**: when
``config.reliability.enabled`` is ``None`` (automatic) the worker
forces it on, with the ack timeout raised to wall-clock-sane values
(loopback TCP RTT plus batching cadence dwarf the simulator's
microsecond defaults).  An explicit ``enabled=False`` is honoured and
means the caller vouches for the transport.

**Cluster-wide naming stays topology-independent.**  A mail address is
``(birthplace, descriptor)`` and never encodes a transport address; the
driver's :meth:`AsyncioMachine.locate` resolves one exactly the way a
kernel would — ask the birthplace's name-table shard, follow forwarding
guesses node to node (bounded), and **back-patch** its own location
cache with the answer so the next query goes straight to the current
host — the FIR chase of §4.3 run from outside the partition.  The
``("resolve", address)`` worker command underneath is a pure read of
the local name table: it never wakes the balancer or perturbs
quiescence.

Determinism is not supported (OS scheduling *and* socket timing order
delivery); fault injection works exactly as on mp — per-worker seeded
injectors at frame-record granularity on the send path, stall windows
on the receive path — with the always-on reliable sublayer repairing
the induced loss end-to-end.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import shutil
import struct
import tempfile
import time
import traceback
from multiprocessing import get_context
from typing import Any, Dict, List, Optional

from repro.config import RuntimeConfig
from repro.errors import NetworkError, ReproError
from repro.platform.mp import MpMachine, _WorkerHost
from repro.platform.wireformat import FrameDecoder, FrameEncoder

#: Mesh hello: the dialler's node id, sent before any frame.
_HELLO = struct.Struct("!I")

#: Bulk read size for the per-connection reader tasks.
_CHUNK = 1 << 16

#: Wall-clock floors applied when this backend force-enables the
#: reliable sublayer (``reliability.enabled is None``): the simulator's
#: 600 us ack timeout would retransmit several times before a loopback
#: TCP round trip completes.  Explicit user settings are not touched.
_NET_ACK_TIMEOUT_US = 5_000.0
_NET_MAX_BACKOFF_US = 100_000.0

#: Driver-side slack on top of ``net.connect_timeout_s`` for the whole
#: bring-up conversation (P listeners + P·(P-1)/2 dials + acks).
_BOOT_GRACE_S = 30.0


def _net_worker_config(config: RuntimeConfig) -> RuntimeConfig:
    """The worker's view of the config: reliability always on (with
    wall-clock-sane timeouts) unless the caller forced a setting."""
    rel = config.reliability
    if rel.enabled is not None:
        return config
    rel = dataclasses.replace(
        rel,
        enabled=True,
        ack_timeout_us=max(rel.ack_timeout_us, _NET_ACK_TIMEOUT_US),
        max_backoff_us=max(rel.max_backoff_us, _NET_MAX_BACKOFF_US),
    )
    return dataclasses.replace(config, reliability=rel)


class _AsyncChannel:
    """Peer link over an asyncio stream pair.

    Writes go straight to the transport (``StreamWriter.write`` never
    blocks; the event loop flushes whenever the host coroutine awaits).
    Reads happen in a dedicated pump task that feeds this channel's
    decoder and wakes the host — the host drains decoded records on its
    own cadence, so dispatch stays on the single host task exactly as
    on the other transports.
    """

    __slots__ = ("reader", "writer", "encoder", "decoder", "dirty")

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.encoder = FrameEncoder()
        self.decoder = FrameDecoder()
        self.dirty = False

    def send_frame(self, frame: bytes) -> None:
        self.writer.write(frame)

    def read_available(self) -> None:
        """No-op: the pump task feeds the decoder asynchronously."""

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass


class _AsyncWorkerHost(_WorkerHost):
    """Worker host whose mesh is sockets dialled at runtime.

    Constructed with an empty peer map — the kernel does not need
    channels to build — and meshes inside the asyncio loop before
    serving: listen, report, receive the address map, dial down, accept
    up.
    """

    def __init__(
        self,
        node_id: int,
        config: RuntimeConfig,
        costs,
        ctrl,
        unix_dir: Optional[str] = None,
        fault_plan=None,
    ) -> None:
        super().__init__(
            node_id, config, costs, ctrl, peers={}, shm=None,
            fault_plan=fault_plan,
        )
        self._unix_dir = unix_dir
        self._server: Optional[Any] = None
        self._pumps: List[Any] = []
        self._wake: Optional[asyncio.Event] = None
        self._eof = False

    # ------------------------------------------------------------------
    # readiness: decoders are pump-fed, so "unread input" is buffered
    # decoder bytes or a readable control pipe — no OS waitables here.
    # ------------------------------------------------------------------
    def _net_ready(self) -> bool:
        if self._sel.select(0):
            return True
        for ch in self._chan_list:
            if ch.decoder.buffered_bytes:
                return True
        return False

    # ------------------------------------------------------------------
    # commands: cluster name resolution on top of the inherited set
    # ------------------------------------------------------------------
    def _do_command(self, payload: tuple):
        if payload[0] == "resolve":
            return self._resolve(payload[1])
        return super()._do_command(payload)

    def _resolve(self, address) -> tuple:
        """One hop of the driver's FIR-style chase: this node's current
        belief about ``address``, read straight from the name table —
        ``("local", node)``, ``("forward", best_guess)`` or
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

    # ------------------------------------------------------------------
    # mesh bring-up
    # ------------------------------------------------------------------
    def _register(self, peer_id: int, reader, writer) -> None:
        if peer_id in self.channels:  # pragma: no cover - protocol bug
            writer.close()
            return
        ch = _AsyncChannel(reader, writer)
        self.channels[peer_id] = ch
        self._chan_list = [self.channels[k] for k in sorted(self.channels)]
        self._pumps.append(asyncio.ensure_future(self._pump(ch)))
        if self._wake is not None:
            self._wake.set()

    async def _pump(self, ch: _AsyncChannel) -> None:
        """Feed one connection's bytes to its decoder.  Feeding only —
        no dispatch — keeps every handler on the host task; the fed
        bytes show up in ``decoder.buffered_bytes``, so a worker with
        undrained input is never ``_passive()`` for the token ring."""
        reader = ch.reader
        feed = ch.decoder.feed
        wake = self._wake
        try:
            while True:
                data = await reader.read(_CHUNK)
                if not data:
                    break
                feed(data)
                if wake is not None:
                    wake.set()
        except asyncio.CancelledError:
            raise
        except (OSError, ConnectionError):
            pass
        self._eof = True
        if wake is not None:
            wake.set()

    async def _on_accept(self, reader, writer) -> None:
        try:
            raw = await reader.readexactly(_HELLO.size)
        except (asyncio.IncompleteReadError, OSError):
            writer.close()
            return
        (peer_id,) = _HELLO.unpack(raw)
        self._register(peer_id, reader, writer)

    async def _ctrl_recv(self, deadline: float, expect: str) -> tuple:
        while not self._sel.select(0):
            if time.monotonic() >= deadline:
                raise NetworkError(
                    f"node {self.node_id}: timed out waiting for "
                    f"{expect!r} during mesh bring-up"
                )
            await asyncio.sleep(0.005)
        return self.ctrl.recv()

    async def _dial(self, peer_id: int, addr: tuple, deadline: float) -> None:
        while True:
            try:
                if addr[0] == "unix":
                    reader, writer = await asyncio.open_unix_connection(addr[1])
                else:
                    reader, writer = await asyncio.open_connection(
                        addr[1], addr[2]
                    )
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise NetworkError(
                        f"node {self.node_id}: could not reach peer "
                        f"{peer_id} at {addr!r} within "
                        f"{self.config.net.connect_timeout_s}s"
                    ) from None
                await asyncio.sleep(0.02)
        writer.write(_HELLO.pack(self.node_id))
        await writer.drain()
        self._register(peer_id, reader, writer)

    async def _bootstrap_mesh(self) -> None:
        nn = self.config.num_nodes
        net = self.config.net
        deadline = time.monotonic() + net.connect_timeout_s + _BOOT_GRACE_S
        if net.transport == "unix":
            path = os.path.join(self._unix_dir, f"node-{self.node_id}.sock")
            self._server = await asyncio.start_unix_server(
                self._on_accept, path=path
            )
            addr = ("unix", path)
        else:
            port = net.port_base + self.node_id if net.port_base else 0
            self._server = await asyncio.start_server(
                self._on_accept, host=net.host, port=port
            )
            bound = self._server.sockets[0].getsockname()
            addr = ("tcp", bound[0], bound[1])
        self.ctrl.send(("listening", self.node_id, addr))
        msg = await self._ctrl_recv(deadline, "peers")
        if msg[0] != "peers":
            raise NetworkError(
                f"node {self.node_id}: expected address map, got {msg[0]!r}"
            )
        addrs: Dict[int, tuple] = msg[1]
        for peer_id in range(self.node_id):
            await self._dial(peer_id, addrs[peer_id], deadline)
        while len(self.channels) < nn - 1:
            if time.monotonic() >= deadline:
                raise NetworkError(
                    f"node {self.node_id}: mesh incomplete "
                    f"({len(self.channels)}/{nn - 1} peers) at timeout"
                )
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), 0.25)
            except asyncio.TimeoutError:
                pass
        self.ctrl.send(("meshed", self.node_id))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def loop(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._wake = asyncio.Event()
        loop = asyncio.get_running_loop()
        ctrl_fd = self.ctrl.fileno()
        ctrl_reader = True
        try:
            loop.add_reader(ctrl_fd, self._wake.set)
        except (NotImplementedError, PermissionError):  # pragma: no cover
            ctrl_reader = False
        try:
            await self._bootstrap_mesh()
            await self._serve(ctrl_reader)
        finally:
            if ctrl_reader:
                try:
                    loop.remove_reader(ctrl_fd)
                except (OSError, ValueError):  # pragma: no cover
                    pass
            await self._teardown()

    async def _serve(self, ctrl_reader: bool) -> None:
        """The worker's event loop: heap bursts, ring steps and batch
        flushes on the host task; reads arrive via the pump tasks while
        this coroutine awaits.  Mirrors ``_WorkerHost._step_shm``'s
        progressed/park structure with an :class:`asyncio.Event` in
        place of the Condition."""
        node = self.node
        wake = self._wake
        while not self._stop:
            try:
                wake.clear()
                before = node.events_run
                self._run_ready()
                self._maybe_advance_ring()
                self._flush_pending()
                progressed = self._serve_ctrl() or node.events_run != before
                if self._stop:
                    return
                for ch in self._chan_list:
                    for rec in ch.decoder.drain():
                        progressed = True
                        self._dispatch_record(rec)
                if self._eof:
                    return  # a peer went away; nothing left to serve
                if progressed:
                    # Yield once so reader tasks and the transport's
                    # write buffers make progress, then go again.
                    await asyncio.sleep(0)
                    continue
                timeout = self._next_timeout()
                if timeout == 0.0:
                    continue
                if not ctrl_reader:  # pragma: no cover - exotic loops
                    timeout = 0.01 if timeout is None else min(timeout, 0.01)
                try:
                    if timeout is None:
                        await wake.wait()
                    else:
                        await asyncio.wait_for(wake.wait(), timeout)
                except asyncio.TimeoutError:
                    pass
            except (EOFError, OSError):
                return  # the driver went away
            except Exception:
                try:
                    self.ctrl.send(
                        ("err", self.node_id, traceback.format_exc())
                    )
                except OSError:
                    return

    async def _teardown(self) -> None:
        try:
            self._flush_pending()
        except Exception:  # pragma: no cover - peers may be gone
            pass
        for task in self._pumps:
            task.cancel()
        for ch in self._chan_list:
            ch.close()
        if self._server is not None:
            self._server.close()
        # One tick so cancellations and transport closes actually run.
        await asyncio.sleep(0)


def _asyncio_worker_main(
    node_id: int,
    config: RuntimeConfig,
    costs,
    ctrl,
    unix_dir: Optional[str] = None,
    fault_plan=None,
) -> None:
    """Process entry point (module-level so a spawn start method can
    pickle it)."""
    try:
        host = _AsyncWorkerHost(
            node_id, _net_worker_config(config), costs, ctrl,
            unix_dir, fault_plan,
        )
        host.loop()
    except BaseException:  # noqa: BLE001 - last-resort report to driver
        try:
            ctrl.send(("err", node_id, traceback.format_exc()))
        except OSError:
            pass


# ======================================================================
# driver side
# ======================================================================
class AsyncioMachine(MpMachine):
    """A partition of worker processes meshed over real sockets.

    Inherits the whole mp driver surface (commands, detection rounds,
    snapshot merge, audit); overrides worker spawning (address-based
    bring-up instead of inherited fds) and :meth:`locate` (a cluster
    name chase instead of a full snapshot pull).
    """

    deterministic = False
    supports_faults = True
    supports_tracing = False
    distributed = True
    counters_exact = True

    def __init__(
        self,
        config: RuntimeConfig,
        *,
        trace: bool = False,
        faults=None,
    ) -> None:
        super().__init__(config, trace=trace, faults=faults)
        self._unix_dir: Optional[str] = None
        self._boot_msgs: List[tuple] = []

    # ------------------------------------------------------------------
    # boot / teardown
    # ------------------------------------------------------------------
    def start_workers(self, costs) -> None:
        """Spawn one worker per node with only a control pipe, then run
        the three-phase mesh bring-up: collect every worker's listener
        address, broadcast the map, wait for all-meshed."""
        if self._procs:
            return
        import multiprocessing as _mp

        methods = _mp.get_all_start_methods()
        ctx = get_context("fork" if "fork" in methods else None)
        nn = self.config.num_nodes
        net = self.config.net
        if net.transport == "unix":
            self._unix_dir = tempfile.mkdtemp(prefix="repro-net-")
        for i in range(nn):
            parent, child = ctx.Pipe(duplex=True)
            self._ctrl.append(parent)
            proc = ctx.Process(
                target=_asyncio_worker_main,
                args=(
                    i, self.config, costs, child, self._unix_dir,
                    self.fault_plan,
                ),
                name=f"repro-net-node-{i}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        self._watch_workers()
        deadline = time.monotonic() + net.connect_timeout_s + _BOOT_GRACE_S
        addrs = {msg[1]: msg[2] for msg in self._boot_wait("listening", deadline)}
        for conn in self._ctrl:
            conn.send(("peers", addrs))
        self._boot_wait("meshed", deadline)

    def _note_event(self, msg: tuple) -> None:
        if msg[0] in ("listening", "meshed"):
            self._boot_msgs.append(msg)
        else:
            super()._note_event(msg)

    def _boot_wait(self, expect: str, deadline: float) -> List[tuple]:
        """Wait until every worker has sent its ``expect`` bring-up
        message (the phases are ordered, so only those queue up).
        Goes through the driver's readiness set: a worker error or a
        dead worker surfaces as that, not as a bring-up timeout."""
        while len(self._boot_msgs) < self.config.num_nodes:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReproError(
                    f"asyncio backend: timed out waiting for {expect!r} "
                    "during mesh bring-up"
                )
            self._drain_events(remaining)
        msgs, self._boot_msgs = self._boot_msgs, []
        return msgs

    def shutdown(self) -> None:
        super().shutdown()
        if self._unix_dir is not None:
            shutil.rmtree(self._unix_dir, ignore_errors=True)
            self._unix_dir = None

    # ------------------------------------------------------------------
    # cluster naming
    # ------------------------------------------------------------------
    def locate(self, address) -> Optional[int]:
        """Resolve a mail address cluster-wide, the way a kernel would.

        Start at the cached last-known host if one exists, else at the
        **birthplace shard** the address itself encodes
        (:meth:`MailAddress.home_node`); ask each node's name table in
        turn, following ``("forward", n)`` guesses — stale guesses form
        chains, never cycles longer than the migration history, so the
        chase is bounded — and back-patch the driver cache on success
        exactly as a FIR reply back-patches a kernel's descriptor.
        Falls back to a full snapshot merge only when the chase dead-
        ends (e.g. the address was never bound)."""
        if not self._procs or self._shut:
            return self._locations.get(address)
        nn = self.config.num_nodes
        home = address.home_node()
        hint = self._locations.get(address)
        node = hint if hint is not None else home
        tried_home = node == home
        for _ in range(2 * nn + 2):
            if not (0 <= node < nn):
                break
            resp = self.command(node, ("resolve", address))
            tag = resp[0]
            if tag == "local":
                self._locations[address] = node  # back-patch
                return node
            if tag == "forward":
                nxt = resp[1]
                if nxt == node:  # pragma: no cover - self-loop guard
                    break
                node = nxt
                if node == home:
                    tried_home = True
                continue
            # "unknown" here: a stale cache entry may point at a node
            # that already forgot the actor — restart once from the
            # birthplace shard, which learns every creation it issued.
            if not tried_home:
                node, tried_home = home, True
                continue
            break
        self._refresh()
        return self._locations.get(address)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncioMachine(P={self.num_nodes}, "
            f"transport={self.config.net.transport}, "
            f"t={self.clock.now:.1f}us)"
        )
