"""The message send and delivery algorithm (§4, Fig. 3).

Sender side: consult the *local* name server only.  A hit with a
cached remote descriptor address sends directly (the receiving node
skips its own hash lookup); a miss allocates a best-guess descriptor
pointing at the node encoded in the mail address itself and routes the
message there.  Local receivers take either the compiler's inline
path or the generic buffered path.

Receiver side (node-manager role): a direct-addressed message
dereferences its descriptor; a keyed message hash-looks-up (and, on a
hit with a local actor, sends the descriptor's memory address back to
the sender's node to cache).  Messages for actors that migrated away
trigger the FIR protocol (:mod:`repro.runtime.migration`) rather than
being forwarded wholesale.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.actors.message import ActorMessage, ReplyTarget
from repro.am.messages import message_nbytes
from repro.errors import UnknownActorError
from repro.runtime.names import ActorRef, AddrKind, DescState, LocalityDescriptor, MailAddress
from repro.tracectx import TraceCtx

if TYPE_CHECKING:  # pragma: no cover
    from repro.actors.actor import Actor
    from repro.runtime.context import Context
    from repro.runtime.kernel import Kernel


class DeliveryService:
    """Implements Fig. 3 for one kernel."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        # Hot-path bindings: every send crosses this service, so the
        # node, name table, cost scalars and counter cells are resolved
        # once here instead of per message.
        self._node = kernel.node
        self._table = kernel.table
        costs = kernel.costs
        self._hash_us = costs.nametable_hash_us
        self._locality_us = costs.locality_check_us
        self._lazy_alloc_us = costs.descriptor_alloc_us + costs.nametable_insert_us
        self._marshal_us = costs.marshal_us
        config = kernel.config
        self._packet_bytes = kernel.network_params.packet_bytes
        self._bulk_threshold = config.bulk_threshold_bytes
        self._descriptor_caching = config.descriptor_caching
        stats = kernel.stats
        self._c_lazy_descriptors = stats.cell("names.lazy_descriptors")
        self._c_local_generic = stats.cell("delivery.local_generic")
        self._c_sent_direct = stats.cell("delivery.sent_direct")
        self._c_sent_keyed = stats.cell("delivery.sent_keyed")
        # Causal tracing: one cached flag on the hot path, spans only
        # recorded on traced machines.
        self._spans = kernel.spans
        self._spans_on = bool(kernel.spans.enabled)
        # Span-name caches: one interned "send foo" / "hop foo" string
        # per selector, so sampled sends skip the per-span f-string.
        self._send_names: dict = {}
        self._hop_names: dict = {}

    # ==================================================================
    # sender side
    # ==================================================================
    def locality_check(self, ref: ActorRef):
        """The runtime's locality-check routine, exported to the
        compiler (§6.3): consult the local name table and examine the
        descriptor, using only locally available information.  Returns
        ``(descriptor, is_local)``; the descriptor is lazily allocated
        with the best guess encoded in the address itself."""
        node = self._node
        node.charge(self._hash_us)
        desc = self._table.get(ref.address)
        if desc is None:
            node.charge(self._lazy_alloc_us)
            desc = self._table.alloc(ref.address)
            desc.set_remote(ref.address.home_node())
            self._c_lazy_descriptors.n += 1
        node.charge(self._locality_us)
        return desc, desc.is_local

    def send_message(
        self,
        ref: ActorRef,
        selector: str,
        args: tuple,
        *,
        reply_to: Optional[ReplyTarget] = None,
        sender_actor: Optional["Actor"] = None,
        sender_ctx: Optional["Context"] = None,
        plan_kind: Optional[str] = None,
    ) -> None:
        """``plan_kind`` is an explicit compiler verdict for this send
        site (the generator driver passes the plan of the request's
        split point); when absent, the verdict is derived from the
        sending context."""
        k = self.kernel
        # Name translation happens in the sender's node even when the
        # recipient is local (§4).
        desc, is_local = self.locality_check(ref)

        msg = ActorMessage(selector, args, reply_to,
                           sender_node=k.node_id, sent_at=k.node.now)
        if self._spans_on:
            # Root a new trace, or parent to the execution currently on
            # this CPU (so request chains form one causal tree).
            ctx = k.trace_ctx
            if ctx is not None:
                tid, parent = ctx
            else:
                tid, parent = self._spans.new_trace_id(), 0
            msg.trace_id = tid
            # The head-sampling verdict rides the trace ID's low bit:
            # unsampled sends skip even the span-name construction and
            # propagate span_id 0.
            if tid & 1:
                # The address rides the span raw; exporters repr()
                # attrs lazily, so sampled sends skip the string build.
                name = self._send_names.get(selector)
                if name is None:
                    name = self._send_names[selector] = f"send {selector}"
                msg.span_id = self._spans.span(
                    tid, parent, name, "send", k.node_id,
                    k.node.now, None, ref.address,
                )
            else:
                self._spans.elided += 1

        if is_local:
            actor = desc.actor
            if plan_kind is None:
                plan_kind = self._plan_kind(sender_ctx, selector)
            if plan_kind != "generic":
                depth = sender_ctx.depth if sender_ctx is not None else 0
                if k.execution.try_inline(actor, msg, plan_kind=plan_kind,
                                          depth=depth):
                    return
            self._c_local_generic.n += 1
            k.execution.deliver_local(actor, msg)
            return

        if desc.state in (DescState.IN_TRANSIT, DescState.RESOLVING,
                          DescState.AWAITING_CREATION):
            desc.deferred.append(msg)
            k.stats.incr("delivery.deferred_at_sender")
            return
        if desc.remote_node == k.node_id:
            # Our best guess is ourselves, but the actor is not here:
            # for a locally-born ordinary address that means the actor
            # no longer exists (e.g. it was garbage collected).
            key = ref.address
            if key.kind is AddrKind.ORDINARY and key.node == k.node_id:
                raise UnknownActorError(
                    f"node {k.node_id}: send to reclaimed or never-born "
                    f"actor {key!r}"
                )
            # Alias/group creation still in flight toward this node.
            desc.state = DescState.AWAITING_CREATION
            desc.deferred.append(msg)
            k.stats.incr("delivery.awaiting_creation")
            return
        self.transmit(desc, msg)

    def _plan_kind(self, sender_ctx: Optional["Context"], selector: str) -> str:
        """The compiler's dispatch verdict for this send site."""
        if sender_ctx is None:
            return "generic"
        actor = sender_ctx.actor
        if actor is None:
            # Tasks are compiler-generated code; receiver types of task
            # sends are known to the code generator.
            return "static" if self.kernel.config.scheduler.static_dispatch else "generic"
        compiled = actor.behavior.compiled
        if compiled is None:
            return "generic"
        return compiled.plan_for(sender_ctx.method_name, selector)

    # ------------------------------------------------------------------
    def transmit(self, desc: LocalityDescriptor, msg: ActorMessage) -> None:
        """Send to the descriptor's best-guess remote location."""
        k = self.kernel
        self._node.charge(self._marshal_us)
        dst = desc.remote_node
        key = desc.key
        if desc.has_cached_addr and self._descriptor_caching:
            handler = "deliver_direct"
            payload = (desc.remote_addr, msg.selector, msg.args, msg.reply_to,
                       msg.sender_node)
            self._c_sent_direct.n += 1
        else:
            handler = "deliver_keyed"
            payload = (key, msg.selector, msg.args, msg.reply_to,
                       msg.sender_node)
            self._c_sent_keyed.n += 1
        nbytes = message_nbytes(payload, self._packet_bytes)
        # tuple.__new__ skips the generated NamedTuple constructor: this
        # site builds a TraceCtx for every traced remote send, and the
        # bare allocation is less than half the cost.
        tctx = (
            tuple.__new__(TraceCtx, (msg.trace_id, msg.span_id,
                                     self._node.now))
            if self._spans_on and msg.trace_id else None
        )
        if nbytes >= self._bulk_threshold:
            k.stats.incr("delivery.bulk")
            k.bulk.send_bulk(dst, handler, payload, nbytes, trace_ctx=tctx)
        else:
            k.endpoint.send(dst, handler, payload, nbytes=nbytes,
                            trace_ctx=tctx)

    # ==================================================================
    # receiver side (node-manager role)
    # ==================================================================
    def on_deliver_keyed(
        self,
        src: int,
        key: MailAddress,
        selector: str,
        args: tuple,
        reply_to: Optional[ReplyTarget],
        origin: int,
        trace_ctx: Optional[TraceCtx] = None,
    ) -> None:
        k = self.kernel
        self._node.charge(self._hash_us)
        msg = ActorMessage(selector, args, reply_to, sender_node=origin)
        # Adopt the arriving wire context (inlined on both receive
        # paths — this runs once per remote delivery): the trace ID and
        # true send time attach to *every* traced message, sampled or
        # not, so the delivery histogram stays exact at any rate; the
        # hop span itself follows the head-sampling bit.
        if trace_ctx is not None and self._spans_on:
            tid = trace_ctx.trace_id
            msg.trace_id = tid
            msg.sent_at = trace_ctx.sent_at
            if tid & 1:
                name = self._hop_names.get(selector)
                if name is None:
                    name = self._hop_names[selector] = f"hop {selector}"
                msg.span_id = self._spans.span(
                    tid, trace_ctx.parent_span, name,
                    "hop", k.node_id, trace_ctx.sent_at, self._node.now, src,
                )
            else:
                self._spans.elided += 1
        desc = self._table.get(key)
        if desc is None:
            desc = self._admit_unknown_key(key)
            if desc is None:
                return  # message already re-routed toward its home
        if desc.is_local:
            self.deliver_here(desc, msg)
            if (
                k.config.descriptor_caching
                and origin >= 0
                and origin != k.node_id
            ):
                # Return the descriptor's memory address for caching;
                # subsequent sends skip this node's hash lookup (§4.1).
                k.endpoint.send(
                    origin, "cache_addr", (key, k.node_id, desc.addr),
                    trace_ctx=(
                        TraceCtx(msg.trace_id, msg.span_id, self._node.now)
                        if msg.trace_id else None
                    ),
                    expendable=True,
                )
            return
        self._route_nonlocal(desc, msg)

    def on_deliver_direct(
        self,
        src: int,
        addr: int,
        selector: str,
        args: tuple,
        reply_to: Optional[ReplyTarget],
        origin: int,
        trace_ctx: Optional[TraceCtx] = None,
    ) -> None:
        k = self.kernel
        self._node.charge(k.costs.descriptor_deref_us)
        desc = self._table.by_addr(addr)
        msg = ActorMessage(selector, args, reply_to, sender_node=origin)
        # Wire-context adoption, inlined (see on_deliver_keyed).
        if trace_ctx is not None and self._spans_on:
            tid = trace_ctx.trace_id
            msg.trace_id = tid
            msg.sent_at = trace_ctx.sent_at
            if tid & 1:
                name = self._hop_names.get(selector)
                if name is None:
                    name = self._hop_names[selector] = f"hop {selector}"
                msg.span_id = self._spans.span(
                    tid, trace_ctx.parent_span, name,
                    "hop", k.node_id, trace_ctx.sent_at, self._node.now, src,
                )
            else:
                self._spans.elided += 1
        if desc.is_local:
            self.deliver_here(desc, msg)
            if (
                k.config.descriptor_caching
                and origin != src
                and 0 <= origin != k.node_id
            ):
                # The message was relayed here (FIR flush or forward):
                # teach the *original* sender our descriptor address so
                # its best guess converges to the truth.
                k.endpoint.send(
                    origin, "cache_addr", (desc.key, k.node_id, desc.addr),
                    trace_ctx=(
                        TraceCtx(msg.trace_id, msg.span_id, self._node.now)
                        if msg.trace_id else None
                    ),
                    expendable=True,
                )
            return
        self._route_nonlocal(desc, msg)

    def _admit_unknown_key(self, key: MailAddress) -> Optional[LocalityDescriptor]:
        """Handle a keyed message for an actor this node has never
        heard of.  Returns a descriptor to route with, or None if the
        message was forwarded toward its home node."""
        k = self.kernel
        home = key.home_node()
        if home == k.node_id:
            if key.kind is AddrKind.ORDINARY:
                raise UnknownActorError(
                    f"node {k.node_id}: message for unknown locally-born "
                    f"actor {key!r}"
                )
            # An alias/group-member message raced ahead of the creation
            # request; park deliveries until the creation lands.
            k.node.charge(k.costs.descriptor_alloc_us + k.costs.nametable_insert_us)
            desc = k.table.alloc(key)
            desc.state = DescState.AWAITING_CREATION
            k.stats.incr("delivery.awaiting_creation")
            return desc
        # Defensive fallback: route toward the home node.
        k.node.charge(k.costs.descriptor_alloc_us + k.costs.nametable_insert_us)
        desc = k.table.alloc(key)
        desc.set_remote(home)
        return desc

    def _route_nonlocal(self, desc: LocalityDescriptor, msg: ActorMessage) -> None:
        k = self.kernel
        if desc.state in (DescState.IN_TRANSIT, DescState.RESOLVING,
                          DescState.AWAITING_CREATION):
            desc.deferred.append(msg)
            k.stats.incr("delivery.deferred_at_manager")
            return
        if desc.remote_node == k.node_id:
            # A self-pointing forward: a locally-born ordinary actor
            # that no longer exists (reclaimed), or a creation that
            # has not landed yet.
            key = desc.key
            if key is not None and key.kind is AddrKind.ORDINARY and key.node == k.node_id:
                raise UnknownActorError(
                    f"node {k.node_id}: message for reclaimed or "
                    f"never-born actor {key!r}"
                )
            desc.state = DescState.AWAITING_CREATION
            desc.deferred.append(msg)
            k.stats.incr("delivery.awaiting_creation")
            return
        # REMOTE: the actor migrated away.  Do not forward the whole
        # message — locate it with an FIR and hold the message (§4.3).
        k.migration.queue_for_fir(desc, msg)

    # ------------------------------------------------------------------
    def deliver_here(self, desc: LocalityDescriptor, msg: ActorMessage) -> None:
        self.kernel.execution.deliver_local(desc.actor, msg)

    def route_via_descriptor(self, key: MailAddress, msg: ActorMessage) -> None:
        """Route a locally generated message by key through the normal
        machinery (used for stragglers, e.g. broadcast copies whose
        member is mid-migration)."""
        k = self.kernel
        desc = k.table.get(key)
        if desc is None:
            k.node.charge(k.costs.descriptor_alloc_us + k.costs.nametable_insert_us)
            desc = k.table.alloc(key)
            desc.set_remote(key.home_node())
        if desc.is_local:
            self.deliver_here(desc, msg)
        else:
            self._route_nonlocal(desc, msg)

    # ------------------------------------------------------------------
    def flush_deferred(self, desc: LocalityDescriptor) -> None:
        """Re-route every message deferred on ``desc`` according to its
        new state (LOCAL after arrival/creation; REMOTE after an ack or
        FIR reply resolved the location)."""
        if not desc.deferred:
            return
        k = self.kernel
        msgs, desc.deferred = desc.deferred, []
        k.stats.incr("delivery.flushed", len(msgs))
        for msg in msgs:
            if desc.is_local:
                self.deliver_here(desc, msg)
            elif desc.state is DescState.REMOTE:
                self.transmit(desc, msg)
            else:
                # Still unresolved (e.g. immediately re-migrated).
                desc.deferred.append(msg)

    # ------------------------------------------------------------------
    def on_cache_addr(self, src: int, key: MailAddress, node: int, addr: int,
                      trace_ctx: Optional[TraceCtx] = None) -> None:
        """Install location information learned from another node —
        always treated as a best guess, never overriding local truth."""
        k = self.kernel
        if not k.config.descriptor_caching:
            return
        if node == k.node_id:
            # Stale: were the actor here, its descriptor would be LOCAL.
            return
        desc = k.table.get(key)
        if desc is not None and desc.state is not DescState.REMOTE:
            # RESOLVING / LOCAL / IN_TRANSIT: local truth wins, nothing
            # is installed, so there is no back-patch to trace.
            return
        if trace_ctx is not None and self._spans_on:
            if trace_ctx.trace_id & 1:
                self._spans.span(
                    trace_ctx.trace_id, trace_ctx.parent_span,
                    f"backpatch {key}", "backpatch", k.node_id,
                    self._node.now, None, node,
                )
            else:
                self._spans.elided += 1
        if desc is None:
            k.node.charge(k.costs.descriptor_alloc_us + k.costs.nametable_insert_us)
            desc = k.table.alloc(key)
            desc.set_remote(node, addr)
        else:
            desc.set_remote(node, addr)
            k.stats.incr("names.cached_addrs")
