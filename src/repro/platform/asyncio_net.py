"""Socket-cluster backend: the mp worker loop over dialled TCP/UNIX links.

The mp backend's workers talk over inherited pipe/socketpair file
descriptors, which confines a partition to children of one driver
process.  This backend replaces the inherited-fd mesh with **real
listening sockets** — TCP (``config.net.transport = "tcp"``) or
UNIX-domain paths (``"unix"``, single host, no port management) — so a
node is a process reachable at an address, the shape a multicomputer
partition actually has.

Only bring-up is specific to this module.  Once meshed, a worker *is*
the stock mp worker (:class:`~repro.platform.mp._WorkerHost`): each peer
socket becomes a ``_SocketChannel`` in the one readiness set beside the
control pipe, and the one ``loop()`` serves it — batched
:mod:`repro.platform.wireformat` frames, driver commands, Safra
token-ring quiescence, fault injection.  The backend name ``asyncio``
is historical (workers once ran an asyncio event loop); workload names
and user configs still use it.

Mesh bring-up is address-based rather than fd-based, over plain
blocking sockets:

1. every worker binds a listener (an ephemeral port when
   ``net.port_base == 0``) and reports ``("listening", node, addr)`` on
   its control pipe;
2. the driver collects all addresses and broadcasts the address map;
3. each worker dials its **lower-numbered** peers (exactly one
   connection per pair), redialling for up to ``net.connect_timeout_s``
   while listeners come up, and identifies itself with a 4-byte hello;
   it accepts its higher-numbered peers, and every TCP link gets
   ``TCP_NODELAY`` so Nagle's algorithm never holds back a small frame;
4. once a worker holds all ``P - 1`` links it closes its listener and
   reports ``("meshed", node)``, and the driver lets the runtime
   proceed.

**The loss model is mp's.**  A stream that is never re-established
delivers every byte once and in order — the guarantee the paper's
protocols take from CMAM — so the reliable-AM sublayer attaches exactly
as on mp: when a fault plan is installed, or when
``config.reliability.enabled`` forces it.  A lost peer is a lost
stream, not lost messages: its links read EOF, and the driver names
the dead worker.

**Cluster-wide naming stays topology-independent.**  A mail address is
``(birthplace, descriptor)`` and never encodes a transport address; the
driver's :meth:`AsyncioMachine.locate` resolves one exactly the way a
kernel would — ask the birthplace's name-table shard, follow forwarding
guesses node to node (bounded), and **back-patch** its own location
cache with the answer so the next query goes straight to the current
host — the FIR chase of §4.3 run from outside the partition.  The
worker's ``("resolve", address)`` command underneath is a pure read of
the local name table: it never wakes the balancer or perturbs
quiescence.

Determinism is not supported (OS scheduling *and* socket timing order
delivery); fault injection works exactly as on mp.
"""

from __future__ import annotations

import os
import shutil
import socket
import struct
import tempfile
import time
import traceback
from multiprocessing import get_context
from typing import Dict, List, Optional, Tuple

from repro.config import NetParams, RuntimeConfig
from repro.errors import NetworkError, ReproError
from repro.platform.mp import MpMachine, _read_set, _WorkerHost

#: Mesh hello: the dialler's node id, sent before any frame.
_HELLO = struct.Struct("!I")

#: Driver-side slack on top of ``net.connect_timeout_s`` for the whole
#: bring-up conversation (P listeners + P·(P-1)/2 dials + acks).
_BOOT_GRACE_S = 30.0


def _inet_family(host: str) -> int:
    """AF_INET6 for an IPv6 literal, else AF_INET.  Deciding from the
    text, not with ``getaddrinfo``, keeps every worker from loading the
    ``idna`` codec (and ``unicodedata``) on the bring-up path."""
    return socket.AF_INET6 if ":" in host else socket.AF_INET


def _dial(
    node_id: int, peer_id: int, addr: tuple, net: NetParams, deadline: float
) -> socket.socket:
    """Connect to a lower-numbered peer's listener, redialling while it
    comes up, and send the hello."""
    if addr[0] == "unix":
        family, target = socket.AF_UNIX, addr[1]
    else:
        family, target = _inet_family(addr[1]), addr[1:]
    while True:
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.connect(target)
            break
        except OSError:
            sock.close()
            if time.monotonic() >= deadline:
                raise NetworkError(
                    f"node {node_id}: could not reach peer {peer_id} at "
                    f"{addr!r} within {net.connect_timeout_s}s"
                ) from None
            time.sleep(0.02)
    sock.sendall(_HELLO.pack(node_id))
    return sock


def _hello(conn: socket.socket) -> Optional[int]:
    """The accepted dialler's node id, or None if it sent no hello."""
    raw = b""
    try:
        while len(raw) < _HELLO.size:
            chunk = conn.recv(_HELLO.size - len(raw))
            if not chunk:
                return None
            raw += chunk
    except OSError:
        return None
    return _HELLO.unpack(raw)[0]


def _listen(
    node_id: int, net: NetParams, unix_dir: Optional[str]
) -> Tuple[socket.socket, tuple]:
    """Bind this node's listener; returns it and the address to report."""
    if net.transport == "unix":
        path = os.path.join(unix_dir, f"node-{node_id}.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen()
        return listener, ("unix", path)
    port = net.port_base + node_id if net.port_base else 0
    listener = socket.create_server(
        (net.host, port), family=_inet_family(net.host)
    )
    return listener, ("tcp",) + listener.getsockname()[:2]


def _mesh(
    node_id: int, config: RuntimeConfig, ctrl, unix_dir: Optional[str]
) -> Dict[int, socket.socket]:
    """Join the mesh (module docstring, steps 1–4); returns one
    connected blocking socket per peer id."""
    nn = config.num_nodes
    net = config.net
    deadline = time.monotonic() + net.connect_timeout_s + _BOOT_GRACE_S
    listener, addr = _listen(node_id, net, unix_dir)
    with listener:
        ctrl.send(("listening", node_id, addr))
        with _read_set([(ctrl, None)]) as sel:
            if not sel.select(max(0.0, deadline - time.monotonic())):
                raise NetworkError(
                    f"node {node_id}: timed out waiting for 'peers' during "
                    "mesh bring-up"
                )
        msg = ctrl.recv()
        if msg[0] != "peers":
            raise NetworkError(
                f"node {node_id}: expected address map, got {msg[0]!r}"
            )
        addrs: Dict[int, tuple] = msg[1]
        peers = {
            peer_id: _dial(node_id, peer_id, addrs[peer_id], net, deadline)
            for peer_id in range(node_id)
        }
        while len(peers) < nn - 1:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NetworkError(
                    f"node {node_id}: mesh incomplete "
                    f"({len(peers)}/{nn - 1} peers) at timeout"
                )
            listener.settimeout(remaining)
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(remaining)
            peer_id = _hello(conn)
            if peer_id is None:
                conn.close()
                continue
            conn.settimeout(None)
            peers[peer_id] = conn
    if net.transport == "tcp":
        for sock in peers.values():
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    ctrl.send(("meshed", node_id))
    return peers


def _asyncio_worker_main(
    node_id: int,
    config: RuntimeConfig,
    costs,
    ctrl,
    unix_dir: Optional[str] = None,
    fault_plan=None,
) -> None:
    """Process entry point (module-level so a spawn start method can
    pickle it): mesh, then serve as a stock mp worker."""
    try:
        peers = _mesh(node_id, config, ctrl, unix_dir)
        _WorkerHost(
            node_id, config, costs, ctrl, peers, fault_plan=fault_plan
        ).loop()
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
