"""Per-node active-message endpoint (the CMAM interface).

An :class:`Endpoint` is the kernel's communication module's view of the
machine: ``send`` injects a message whose named handler runs on the
destination CPU at delivery.  The endpoint charges the CPU costs the
paper attributes to the messaging layer (send overhead on the sender,
handler-entry overhead on the receiver); wire and NIC serialisation
costs live in the platform transport (on the simulator,
:class:`repro.sim.network.Network`).

The endpoint is written against the platform seam
(:class:`~repro.platform.base.NodeExecutor` /
:class:`~repro.platform.base.Transport`), so the same send/deliver
code runs on the discrete-event and the real-time threaded backends.

Endpoints of one machine share a *directory* (``dict[int, Endpoint]``)
so a sender can hand delivery to the destination endpoint's handler
table — the moral equivalent of all nodes running the same program
image with the same handler indices.

The send/deliver pair is the single hottest path in the repository
(every actor message, FIR, steal and bulk phase crosses it), so it is
written allocation-free when tracing is off: counter cells and the
resolved handler table are bound once at construction, and payloads
ride the engine's ``args`` pass-through instead of a closure chain.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.am.handler import Handler, HandlerRegistry
from repro.am.messages import message_nbytes
from repro.errors import HandlerError, NetworkError
from repro.platform.base import NodeExecutor, Transport
from repro.stats import StatsRegistry


class Endpoint:
    """One node's attachment point to the messaging layer."""

    def __init__(
        self,
        node: NodeExecutor,
        network: Transport,
        directory: Dict[int, "Endpoint"],
        stats: StatsRegistry,
        *,
        send_overhead_us: float,
        receive_overhead_us: float,
    ) -> None:
        if send_overhead_us < 0 or receive_overhead_us < 0:
            raise NetworkError("endpoint overheads must be non-negative")
        self.node = node
        self.network = network
        self.directory = directory
        self.stats = stats
        self.send_overhead_us = send_overhead_us
        self.receive_overhead_us = receive_overhead_us
        self.handlers = HandlerRegistry()
        #: Messages delivered to this endpoint (white-box for tests).
        self.delivered: int = 0
        if node.node_id in directory:
            raise HandlerError(f"node {node.node_id} already has an endpoint")
        directory[node.node_id] = self
        # Hot-path bindings: counter cells (no string hash per message),
        # the registry's live name->fn table (no lookup() call per
        # delivery), and the packet header size.
        self._c_sends = stats.cell("am.sends")
        self._c_delivered = stats.cell("am.delivered")
        self._handler_table = self.handlers.resolved_table()
        self._packet_bytes = network.params.packet_bytes
        #: Reliable-delivery sublayer (attached by the kernel on faulty
        #: machines; see :mod:`repro.am.reliable`).  ``None`` keeps the
        #: bare fast path: one is-None test per send.
        self._rel = None
        # A wire-only transport (distributed backend) routes packets by
        # destination id and never invokes the delivery callback on the
        # sending side, so the peer-endpoint lookup must not be a hard
        # requirement there: remote nodes live in other processes and
        # have no entry in this directory.
        self._wire_only = bool(getattr(network, "wire_only", False))
        # On a faulty network every packet must be labelled with its
        # message kind or the injector's per-kind rules cannot see it —
        # this matters when reliability is explicitly disabled (the
        # envelope layer normally labels for us).  Cached boolean keeps
        # the fault-free send path unchanged.
        self._faulty_net = network._faults_on

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.node.node_id

    def register(
        self,
        name: str,
        fn: Handler,
        *,
        replace: bool = False,
        idempotent: bool = False,
    ) -> None:
        self.handlers.register(name, fn, replace=replace, idempotent=idempotent)

    # ------------------------------------------------------------------
    def send(
        self,
        dst: int,
        handler: str,
        args: tuple = (),
        *,
        nbytes: Optional[int] = None,
        charge_sender: bool = True,
        trace_ctx: Optional[tuple] = None,
        expendable: bool = False,
    ) -> None:
        """Send an active message to node ``dst``.

        The sender's CPU is charged ``send_overhead_us``; the message
        is then injected into the network.  ``nbytes`` overrides the
        payload-size estimate (used by the bulk protocol, which sizes
        the data phase explicitly).  ``trace_ctx`` (a
        :class:`repro.tracectx.TraceCtx`) rides as a trailing argument
        appended *after* the wire size is computed, so causal tracing
        never perturbs simulated network time.  ``expendable`` marks a
        fire-and-forget hint (e.g. a ``cache_addr`` back-patch) whose
        loss is harmless: when the reliable sublayer is active such
        sends skip the ack/retry machinery.
        """
        rel = self._rel
        if rel is not None:
            rel.send(
                dst, handler, args, nbytes=nbytes,
                charge_sender=charge_sender, trace_ctx=trace_ctx,
                expendable=expendable,
            )
            return
        if self._faulty_net:
            # Faulty machine without the reliable sublayer (reliability
            # explicitly disabled): still label the wire packet so
            # per-kind fault rules apply to it.
            self.send_raw(
                dst, handler, args, nbytes=nbytes,
                charge_sender=charge_sender, trace_ctx=trace_ctx,
                wire_kind=handler,
            )
            return
        node = self.node
        if dst == node.node_id:
            raise NetworkError(
                "Endpoint.send is remote-only; local work runs directly"
            )
        peer = self.directory.get(dst)
        if peer is None:
            if not self._wire_only:
                raise NetworkError(f"no endpoint attached at node {dst}")
            # Wire-only transport: the callback is ignored (delivery is
            # re-bound on the destination process); stand in for the
            # absent peer with ourselves so the transmit path is shared.
            peer = self
        if charge_sender:
            # Inlined node.charge(self.send_overhead_us); the overhead
            # was validated non-negative at construction.
            node.now += self.send_overhead_us
            node.busy_us += self.send_overhead_us
        size = nbytes if nbytes is not None else message_nbytes(
            args, self._packet_bytes
        )
        self._c_sends.n += 1
        if trace_ctx is not None:
            # Out-of-band metadata: appended after sizing (and TraceCtx
            # is defensively sized 0 in payload_nbytes anyway).
            args = args + (trace_ctx,)

        # A long-running handler may issue this send with its virtual
        # clock far ahead of the global event clock.  Mutating the
        # shared NIC state *now* would let this future send delay
        # other nodes' earlier (but not-yet-executed) messages.
        # ``defer`` re-posts the transmission at its true platform time
        # (the simulator's lazy-charge divergence); backends whose
        # clocks never diverge call straight through.
        node.defer(self._transmit, (dst, peer, handler, args, size))

    def _transmit(
        self, dst: int, peer: "Endpoint", handler: str, args: tuple, size: int
    ) -> None:
        # The label names the message kind: free on the fault-free sim
        # path (only the fault injector and the threaded transport's
        # chatter classification read it).
        self.network.unicast(
            self.node.node_id, dst, size,
            peer._deliver, (self.node.node_id, handler, args),
            label=handler,
        )

    # ------------------------------------------------------------------
    def send_raw(
        self,
        dst: int,
        handler: str,
        args: tuple = (),
        *,
        nbytes: Optional[int] = None,
        charge_sender: bool = True,
        trace_ctx: Optional[tuple] = None,
        wire_kind: Optional[str] = None,
    ) -> None:
        """Send bypassing the reliable sublayer.

        Used by :class:`~repro.am.reliable.ReliableTransport` for its
        envelopes, acks, retransmits and expendable sends.  The wire
        packet is labelled ``wire_kind`` (defaulting to ``handler``) so
        the fault injector targets the *logical* message kind even when
        it travels inside a ``__rel__`` envelope.
        """
        node = self.node
        if dst == node.node_id:
            raise NetworkError(
                "Endpoint.send_raw is remote-only; local work runs directly"
            )
        peer = self.directory.get(dst)
        if peer is None:
            if not self._wire_only:
                raise NetworkError(f"no endpoint attached at node {dst}")
            peer = self  # wire-only: routed by dst, callback unused
        if charge_sender:
            node.now += self.send_overhead_us
            node.busy_us += self.send_overhead_us
        size = nbytes if nbytes is not None else message_nbytes(
            args, self._packet_bytes
        )
        self._c_sends.n += 1
        if trace_ctx is not None:
            args = args + (trace_ctx,)
        kind = wire_kind if wire_kind is not None else handler
        node.defer(
            self._transmit_kinded, (dst, peer, handler, args, size, kind)
        )

    def _transmit_kinded(
        self, dst: int, peer: "Endpoint", handler: str, args: tuple,
        size: int, kind: str,
    ) -> None:
        self.network.unicast(
            self.node.node_id, dst, size,
            peer._deliver, (self.node.node_id, handler, args),
            label=kind,
        )

    def _deliver(self, src: int, handler: str, args: tuple) -> None:
        """Runs on this (destination) node's CPU, scheduled by the network."""
        node = self.node
        # Inlined node.charge(self.receive_overhead_us).
        node.now += self.receive_overhead_us
        node.busy_us += self.receive_overhead_us
        self.delivered += 1
        self._c_delivered.n += 1
        fn = self._handler_table.get(handler)
        if fn is None:
            # Raises the canonical HandlerError for unknown names.
            fn = self.handlers.lookup(handler)
        fn(src, *args)

    # ------------------------------------------------------------------
    def run_local(self, handler: str, args: tuple = ()) -> None:
        """Invoke a handler on this node without touching the network.

        Used by the broadcast tree when the root is also a recipient.
        """
        self.handlers.lookup(handler)(self.node_id, *args)
