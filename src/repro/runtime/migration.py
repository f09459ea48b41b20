"""Actor migration and the FIR location protocol (§4.3).

Migration keeps the name service deliberately inconsistent: location
information for remote actors is a best guess.  When a node manager is
asked to deliver a message for an actor that has migrated away, it
does **not** forward the message; it sends a small *forwarding
information request* (FIR) along the forwarding chain.  When the FIR
reaches the actor, the location (node + descriptor memory address)
propagates back along the chain, every node manager on the chain
updates its name table, and held messages are then sent directly.

To further cut migration traffic, the new descriptor address is cached
at the actor's *birthplace* and at the *old* node as soon as the move
completes.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from repro.actors.actor import Actor
from repro.am.messages import message_nbytes, payload_nbytes
from repro.errors import DeliveryError, MigrationError
from repro.runtime.names import AddrKind, DescState, LocalityDescriptor, MailAddress
from repro.tracectx import TraceCtx

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.kernel import Kernel

#: Transient routing cycles (two stale tables pointing at each other)
#: are legal under relaxed consistency; the FIR retries until the
#: in-flight migration completes and repairs the tables.  The cap only
#: guards against genuine livelock bugs.
MAX_FIR_RETRIES = 1000


class MigrationService:
    """Migration + FIR for one kernel."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        # Causal tracing (null-object recorder when the machine is
        # untraced); FIR chain lengths feed a histogram so chase cost
        # vs chain depth is measurable (§4.3's scaling claim).
        self._spans = kernel.spans
        self._spans_on = bool(kernel.spans.enabled)
        self._h_chain = kernel.stats.hist("fir_chain_length")
        # Fault hardening (armed only on faulty machines): outstanding
        # migrate_arrive handshakes awaiting their ack, keyed by mail
        # address as ``[dest, payload, nbytes, attempts, timer]``; and
        # the receiver-side dedupe table mapping a migration's identity
        # ``(old_node, mig_id)`` to the descriptor address we acked
        # with, so a resent commit is re-acked, never re-applied.
        self._faults_on = kernel.runtime.machine.faults is not None
        self._mig_seq = 0
        self._outstanding: dict = {}
        self._arrived: dict = {}
        #: Last FIR span context per chased key (faulty machines only)
        #: so a watchdog reissue can force its span into the same
        #: trace; forced spans bypass head sampling (error paths are
        #: always recorded).
        self._fir_ctx: dict = {}

    # ==================================================================
    # outbound migration
    # ==================================================================
    def start(self, actor: Actor, dest: int) -> None:
        """Move ``actor`` to node ``dest``.  The actor must be between
        messages (the dispatcher guarantees this for ``ctx.migrate``
        and for steal-driven moves)."""
        k = self.kernel
        if dest == k.node_id:
            return
        if actor.migrating:
            raise MigrationError(f"{actor!r} is already migrating")
        if actor.busy:
            raise MigrationError(f"{actor!r} cannot migrate mid-execution")
        desc = k.table.get(actor.key)
        if desc is None or desc.actor is not actor:
            raise MigrationError(f"{actor!r} is not registered on node {k.node_id}")
        actor.migrating = True
        k.node.charge(k.costs.migrate_pack_us)
        behavior, state, mail = actor.pack_for_migration()
        desc.begin_transit(dest)
        k.stats.incr("migration.started")
        tctx = None
        if self._spans_on:
            c = k.trace_ctx
            tid, parent = c if c is not None else (self._spans.new_trace_id(), 0)
            sid = self._spans.span(
                tid, parent, f"migrate {actor.key}", "migrate.out",
                k.node_id, k.node.now, None, dest,
            )
            tctx = TraceCtx(tid, sid, k.node.now)
        self._mig_seq += 1
        mig_id = self._mig_seq
        payload = (actor.key, behavior.name, state, tuple(mail), mig_id)
        nbytes = message_nbytes(payload, k.network_params.packet_bytes) + payload_nbytes(
            getattr(state, "__dict__", None)
        )
        if nbytes >= k.config.bulk_threshold_bytes:
            k.bulk.send_bulk(dest, "migrate_arrive", payload, nbytes,
                             trace_ctx=tctx)
        else:
            k.endpoint.send(dest, "migrate_arrive", payload, nbytes=nbytes,
                            trace_ctx=tctx)
        if self._faults_on:
            # Handshake watchdog: if the ack never lands (commit or ack
            # lost in flight), resend the commit with backoff.  The
            # receiver dedupes by (old_node, mig_id).  The trace ctx
            # rides along so resends force spans into the same trace.
            entry = [dest, payload, nbytes, 0, None, tctx]
            self._outstanding[actor.key] = entry
            self._arm_handshake(actor.key, entry)

    def on_migrate_arrive(
        self, src: int, key: MailAddress, behavior_name: str, state, mail: tuple,
        mig_id: int = -1, trace_ctx: Optional[TraceCtx] = None,
    ) -> None:
        k = self.kernel
        # Duplicate commit (a resent handshake whose original landed, or
        # a duplicated packet below the envelope layer): the move is
        # already applied — re-ack with the address we answered before
        # and do NOT resurrect a second copy of the actor.
        prev_addr = self._arrived.get((src, mig_id)) if mig_id >= 0 else None
        if prev_addr is None:
            desc0 = k.table.get(key)
            if desc0 is not None and desc0.is_local and desc0.actor is not None:
                prev_addr = desc0.addr
        if prev_addr is not None:
            k.stats.incr("migration.dup_arrivals")
            k.endpoint.send(src, "migrate_ack", (key, prev_addr))
            return
        k.node.charge(k.costs.migrate_unpack_us)
        in_span = None
        if trace_ctx is not None and self._spans_on:
            in_span = self._spans.span(
                trace_ctx.trace_id, trace_ctx.parent_span,
                f"migrate arrive {key}", "migrate.in", k.node_id,
                trace_ctx.sent_at, k.node.now, src,
            )
        behavior = k.behavior_for(behavior_name)
        actor = Actor(behavior, state, k.node_id, key)
        desc = k.table.get(key)
        if desc is None:
            k.node.charge(k.costs.descriptor_alloc_us + k.costs.nametable_insert_us)
            desc = k.table.alloc(key)
        desc.set_local(actor)
        if mig_id >= 0 and self._faults_on:
            self._arrived[(src, mig_id)] = desc.addr
        actor.migrating = False
        for msg in mail:
            actor.mailbox.enqueue(msg)
        if actor.mailbox.ready_count:
            k.dispatcher.enqueue_actor(actor)
        k.stats.incr("migration.arrived")
        # Any messages that raced here before the actor did:
        k.delivery.flush_deferred(desc)
        # FIR chains that were parked waiting on this arrival:
        self._answer_waiting_firs(desc, k.node_id, desc.addr)
        # Ack the old node with our descriptor address ...
        out_ctx = (
            TraceCtx(trace_ctx.trace_id, in_span, k.node.now)
            if in_span is not None else None
        )
        k.endpoint.send(src, "migrate_ack", (key, desc.addr),
                        trace_ctx=out_ctx)
        # ... and cache it at the birthplace too (§4.3).  The
        # back-patch is a pure hint — losing it only costs a later FIR
        # chase — so it rides outside the ack/retry machinery.
        birth = key.home_node()
        if birth not in (k.node_id, src):
            k.endpoint.send(birth, "cache_addr", (key, k.node_id, desc.addr),
                            trace_ctx=out_ctx, expendable=True)

    def on_migrate_ack(self, src: int, key: MailAddress, new_addr: int,
                       trace_ctx: Optional[TraceCtx] = None) -> None:
        k = self.kernel
        entry = self._outstanding.pop(key, None)
        if entry is not None and entry[4] is not None:
            entry[4].cancel()
        desc = k.table.get(key)
        if desc is None or desc.state is not DescState.IN_TRANSIT:
            # Duplicate ack: a resent commit was re-acked after the
            # first ack already moved this descriptor to REMOTE.
            if desc is not None and desc.state is DescState.REMOTE:
                k.stats.incr("migration.dup_acks")
                return
            raise MigrationError(
                f"node {k.node_id}: unexpected migrate_ack for {key!r}"
            )
        if trace_ctx is not None and self._spans_on:
            self._spans.span(
                trace_ctx.trace_id, trace_ctx.parent_span,
                f"migrate ack {key}", "migrate.ack", k.node_id,
                trace_ctx.sent_at, k.node.now, src,
            )
        desc.set_remote(src, new_addr)
        k.stats.incr("migration.acked")
        k.delivery.flush_deferred(desc)
        self._answer_waiting_firs(desc, src, new_addr)

    # ------------------------------------------------------------------
    # handshake watchdog (faulty machines only)
    # ------------------------------------------------------------------
    def _arm_handshake(self, key: MailAddress, entry: list) -> None:
        k = self.kernel
        p = k.config.reliability
        timeout = min(
            p.handshake_timeout_us * (p.backoff_factor ** entry[3]),
            p.max_backoff_us,
        )
        entry[4] = k.node.execute(
            k.node.now + timeout,
            lambda: self._handshake_timeout(key),
            label="migration.watchdog",
        )

    def _handshake_timeout(self, key: MailAddress) -> None:
        entry = self._outstanding.get(key)
        if entry is None:
            return  # acked while the timer event was in flight
        k = self.kernel
        desc = k.table.get(key)
        if desc is None or desc.state is not DescState.IN_TRANSIT:
            self._outstanding.pop(key, None)
            return
        entry[3] += 1
        if entry[3] > k.config.reliability.watchdog_max_retries:
            raise MigrationError(
                f"node {k.node_id}: migration of {key!r} to node "
                f"{entry[0]} was never acknowledged"
            )
        k.stats.incr("migration.resent")
        tctx = entry[5]
        if self._spans_on:
            # A resend is an error-path event: force the span past the
            # head-sampling decision so fault recovery is always
            # visible in the trace, whatever the sample rate.
            tid = tctx.trace_id if tctx is not None else 0
            parent = tctx.parent_span if tctx is not None else 0
            tid, sid = self._spans.force_span(
                tid, parent, f"migrate resend {key}", "migrate.resend",
                k.node_id, k.node.now, None, entry[0], entry[3],
            )
            tctx = TraceCtx(tid, sid, k.node.now)
            entry[5] = tctx
        k.endpoint.send(entry[0], "migrate_arrive", entry[1], nbytes=entry[2],
                        trace_ctx=tctx)
        self._arm_handshake(key, entry)

    # ==================================================================
    # FIR protocol
    # ==================================================================
    def queue_for_fir(self, desc: LocalityDescriptor, msg) -> None:
        """Hold ``msg`` and (if not already chasing) send an FIR toward
        the actor's believed location."""
        k = self.kernel
        desc.deferred.append(msg)
        if desc.state is DescState.RESOLVING:
            k.stats.incr("fir.coalesced")
            if self._spans_on and msg.trace_id:
                # This journey piggybacks on an already-outstanding FIR.
                self._spans.span(
                    msg.trace_id, msg.span_id, f"fir coalesced {desc.key}",
                    "fir.coalesced", k.node_id, k.node.now,
                )
            return  # an FIR for this actor is already outstanding
        target = desc.remote_node
        desc.begin_resolving()
        k.stats.incr("fir.initiated")
        k.node.charge(k.costs.fir_relay_us)
        tctx = None
        if self._spans_on and msg.trace_id:
            sid = self._spans.span(
                msg.trace_id, msg.span_id, f"fir {desc.key}", "fir.start",
                k.node_id, k.node.now, None, target,
            )
            tctx = TraceCtx(msg.trace_id, sid, k.node.now)
            if self._faults_on:
                self._fir_ctx[desc.key] = (msg.trace_id, sid)
        k.endpoint.send(target, "fir", (desc.key, (k.node_id,)),
                        trace_ctx=tctx)
        if self._faults_on:
            # FIR watchdog: if the chase never reports back (request or
            # reply lost anywhere along the chain), reissue from here.
            desc.retry_attempts = 0
            self._arm_fir_watchdog(desc)

    def _arm_fir_watchdog(self, desc: LocalityDescriptor) -> None:
        k = self.kernel
        p = k.config.reliability
        timeout = min(
            p.fir_timeout_us * (p.backoff_factor ** desc.retry_attempts),
            p.max_backoff_us,
        )
        desc.retry_timer = k.node.execute(
            k.node.now + timeout,
            lambda: self._fir_watchdog(desc),
            label="fir.watchdog",
        )

    def _fir_watchdog(self, desc: LocalityDescriptor) -> None:
        desc.retry_timer = None
        if desc.state is not DescState.RESOLVING:
            return  # chase resolved; nothing to do (self-cleaning)
        k = self.kernel
        desc.retry_attempts += 1
        if desc.retry_attempts > k.config.reliability.watchdog_max_retries:
            raise DeliveryError(
                f"node {k.node_id}: FIR for {desc.key!r} was never "
                "answered (chain unreachable)"
            )
        k.stats.incr("fir.reissued")
        k.node.charge(k.costs.fir_relay_us)
        tctx = None
        if self._spans_on:
            # Forced span: a lost FIR/reply is an error path, recorded
            # regardless of the head-sampling decision (trace 0 roots a
            # fresh, forced trace when the chase itself was untraced).
            prev = self._fir_ctx.get(desc.key)
            tid, parent = prev if prev is not None else (0, 0)
            tid, sid = self._spans.force_span(
                tid, parent, f"fir reissue {desc.key}", "fir.reissue",
                k.node_id, k.node.now, None, desc.retry_attempts,
            )
            if sid:
                self._fir_ctx[desc.key] = (tid, sid)
                tctx = TraceCtx(tid, sid, k.node.now)
        k.endpoint.send(desc.remote_node, "fir", (desc.key, (k.node_id,)),
                        trace_ctx=tctx)
        self._arm_fir_watchdog(desc)

    def on_fir(self, src: int, key: MailAddress, chain: Tuple[int, ...],
               trace_ctx: Optional[TraceCtx] = None) -> None:
        if trace_ctx is not None and self._spans_on:
            k = self.kernel
            sid = self._spans.span(
                trace_ctx.trace_id, trace_ctx.parent_span, f"fir hop {key}",
                "fir.hop", k.node_id, trace_ctx.sent_at, k.node.now, src,
            )
            trace_ctx = TraceCtx(trace_ctx.trace_id, sid, k.node.now)
        self._fir_step(src, key, chain, trace_ctx)

    def _fir_step(self, src: int, key: MailAddress, chain: Tuple[int, ...],
                  trace_ctx: Optional[TraceCtx]) -> None:
        """One examination of an in-flight FIR on this node (re-entered
        on retries without re-recording the arrival hop)."""
        k = self.kernel
        k.node.charge(k.costs.fir_relay_us)
        desc = k.table.get(key)
        if desc is None:
            home = key.home_node()
            if home == k.node_id and key.kind is not AddrKind.ORDINARY:
                # Creation itself is still in flight; park the FIR.
                desc = k.table.alloc(key)
                desc.state = DescState.AWAITING_CREATION
                desc.waiting_firs.append((chain, trace_ctx))
                return
            if home == k.node_id:
                raise DeliveryError(
                    f"FIR for unknown locally-born actor {key!r}"
                )
            desc = k.table.alloc(key)
            desc.set_remote(home)
        if desc.is_local:
            # Found the actor: propagate the location back along the
            # chain with the locality descriptor's memory address.
            k.stats.incr("fir.resolved")
            if self._spans_on:
                self._h_chain.record(len(chain))
                if trace_ctx is not None:
                    sid = self._spans.span(
                        trace_ctx.trace_id, trace_ctx.parent_span,
                        f"fir resolve {key}", "fir.resolve", k.node_id,
                        k.node.now, None, len(chain),
                    )
                    trace_ctx = TraceCtx(trace_ctx.trace_id, sid, k.node.now)
            self._send_fir_reply(key, k.node_id, desc.addr, chain, trace_ctx)
            return
        if desc.state in (DescState.IN_TRANSIT, DescState.AWAITING_CREATION,
                          DescState.RESOLVING):
            # We will learn the location shortly; answer then.
            desc.waiting_firs.append((chain, trace_ctx))
            return
        nxt = desc.remote_node
        # A next hop already on the chain is NOT necessarily a cycle:
        # the actor may have returned to a node after the FIR passed
        # it, in which case that node's table is *correct* and will
        # never change — waiting here would livelock.  Forwarding
        # pointers advance along the actor's itinerary, so relaying
        # terminates once in-flight migrations complete; the chain cap
        # bounds the transient case (truly cyclic stale tables) by
        # falling back to retry-and-wait.
        if nxt == k.node_id or len(chain) > 2 * k.runtime.num_nodes + 8:
            # Await repair by an in-flight migration's ack/back-patch.
            desc.fir_retries += 1
            if desc.fir_retries > MAX_FIR_RETRIES:
                raise DeliveryError(
                    f"FIR livelock chasing {key!r} (chain {chain})"
                )
            k.stats.incr("fir.retries")
            k.node.execute(
                k.node.now + k.costs.fir_retry_delay_us,
                lambda: self._fir_step(src, key, chain, trace_ctx),
                label="fir.retry",
            )
            return
        k.stats.incr("fir.relayed")
        k.endpoint.send(
            nxt, "fir", (key, chain + (k.node_id,)),
            trace_ctx=(
                TraceCtx(trace_ctx.trace_id, trace_ctx.parent_span, k.node.now)
                if trace_ctx is not None else None
            ),
        )

    def _send_fir_reply(
        self, key: MailAddress, node: int, addr: int, chain: Tuple[int, ...],
        trace_ctx: Optional[TraceCtx] = None,
    ) -> None:
        """Send the resolution one hop back along the chain."""
        if not chain:
            return
        if trace_ctx is not None:
            trace_ctx = TraceCtx(trace_ctx.trace_id, trace_ctx.parent_span,
                                 self.kernel.node.now)
        self.kernel.endpoint.send(
            chain[-1], "fir_reply", (key, node, addr, chain[:-1]),
            trace_ctx=trace_ctx,
        )

    def on_fir_reply(
        self, src: int, key: MailAddress, node: int, addr: int,
        chain: Tuple[int, ...], trace_ctx: Optional[TraceCtx] = None,
    ) -> None:
        """A chain node learns the actor's location: update the table,
        release held messages, answer our own waiters, keep relaying."""
        k = self.kernel
        k.node.charge(k.costs.fir_relay_us)
        if trace_ctx is not None and self._spans_on:
            sid = self._spans.span(
                trace_ctx.trace_id, trace_ctx.parent_span,
                f"fir reply {key}", "fir.reply", k.node_id,
                trace_ctx.sent_at, k.node.now, src,
            )
            trace_ctx = TraceCtx(trace_ctx.trace_id, sid, k.node.now)
        desc = k.table.get(key)
        # A reply naming this node is stale: the actor has left since
        # the chase resolved here.  Keep our own pointer or chase and
        # only relay the reply upstream.
        if (desc is not None and node != k.node_id
                and desc.state in (DescState.REMOTE, DescState.RESOLVING)):
            desc.set_remote(node, addr)
            desc.fir_retries = 0
            k.stats.incr("fir.updated")
            if trace_ctx is not None and self._spans_on:
                # The chain node's name table is back-patched with the
                # actor's real location (§4.3).
                self._spans.span(
                    trace_ctx.trace_id, trace_ctx.parent_span,
                    f"backpatch {key}", "backpatch", k.node_id,
                    k.node.now, None, node,
                )
            k.delivery.flush_deferred(desc)
            self._answer_waiting_firs(desc, node, addr)
        self._send_fir_reply(key, node, addr, chain, trace_ctx)

    def _answer_waiting_firs(
        self, desc: LocalityDescriptor, node: int, addr: int
    ) -> None:
        if not desc.waiting_firs:
            return
        waiting, desc.waiting_firs = desc.waiting_firs, []
        for chain, tctx in waiting:
            self._send_fir_reply(desc.key, node, addr, chain, tctx)
