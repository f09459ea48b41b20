"""Actor creation: local, and remote with alias latency hiding (§5).

A remote creation must normally wait for the new actor's mail address
to come back.  Instead, the issuing kernel allocates an **alias** — a
mail address whose ``birthplace`` is the *issuing* node, with the
actual creation node encoded — and resumes the creator immediately;
the remote node manager creates the actor, registers it under the
alias, and sends its descriptor's memory address back for caching as
background processing.  The paper's measurement: the issue path runs
in 5.83 us while the actual creation takes 20.83 us.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Type, TYPE_CHECKING

from repro.actors.actor import Actor
from repro.actors.behavior import Behavior
from repro.actors.message import ReplyTarget
from repro.errors import NameServiceError, ReproError
from repro.runtime.dispatcher import Task
from repro.runtime.names import ActorRef, AddrKind, DescState, MailAddress
from repro.tracectx import TraceCtx

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.kernel import Kernel


class CreationService:
    """Creation primitives for one kernel."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._spans = kernel.spans
        self._spans_on = bool(kernel.spans.enabled)
        # Under fault injection a creation request may be resent, so a
        # duplicate arrival is re-confirmed instead of rejected, and
        # the issuer arms an alias-promotion watchdog (the cached
        # descriptor address coming back is the confirmation).
        self._faults_on = kernel.runtime.machine.faults is not None

    # ------------------------------------------------------------------
    def create(self, cls: Type, args: tuple, at: Optional[int] = None) -> ActorRef:
        """``new``: create an actor, locally or at node ``at``."""
        k = self.kernel
        behavior = k.behavior_for(cls)
        if at is None or at == k.node_id:
            return self.create_local(behavior, args)
        if not (0 <= at < k.runtime.num_nodes):
            raise ReproError(f"no such node {at}")
        return self.create_remote(behavior, args, at)

    # ------------------------------------------------------------------
    def create_local(self, behavior: Behavior, args: tuple) -> ActorRef:
        k = self.kernel
        costs = k.costs
        k.node.charge(
            costs.descriptor_alloc_us
            + costs.nametable_insert_us
            + costs.create_state_us
            + costs.create_fixed_us
        )
        desc = k.table.alloc()
        key = MailAddress(AddrKind.ORDINARY, k.node_id, desc.addr)
        k.table.bind(key, desc)
        state = behavior.make_state(args)
        actor = Actor(behavior, state, k.node_id, key)
        desc.set_local(actor)
        k.stats.incr("creation.local")
        return ActorRef(key)

    # ------------------------------------------------------------------
    def create_remote(self, behavior: Behavior, args: tuple, dest: int) -> ActorRef:
        """Issue a remote creation; return an alias immediately."""
        k = self.kernel
        costs = k.costs
        if not k.config.alias_creation:
            raise ReproError(
                "alias_creation is disabled: remote `new` would block. "
                "Use the split-phase form instead: "
                "`ref = yield ctx.request_create(Cls, args, at=node)`"
            )
        k.node.charge(
            costs.descriptor_alloc_us
            + costs.nametable_insert_us
            + costs.marshal_us
        )
        desc = k.table.alloc()
        key = MailAddress(AddrKind.ALIAS, k.node_id, desc.addr, aux=dest)
        k.table.bind(key, desc)
        desc.set_remote(dest)
        k.stats.incr("creation.remote_issued")
        tctx = None
        if self._spans_on:
            c = k.trace_ctx
            tid, parent = c if c is not None else (self._spans.new_trace_id(), 0)
            sid = self._spans.span(
                tid, parent, f"create {behavior.name}", "create.issue",
                k.node_id, k.node.now, None, dest,
            )
            tctx = TraceCtx(tid, sid, k.node.now)
        k.endpoint.send(dest, "create_remote", (key, behavior.name, args),
                        trace_ctx=tctx)
        # The creator resumes its continuation as soon as the request's
        # last packet is injected; the remaining bookkeeping (alias
        # continuation fix-up) happens after the send.
        k.node.charge(costs.remote_create_issue_fixed_us)
        if self._faults_on and k.config.descriptor_caching:
            self._arm_promotion(desc, key, behavior.name, args, dest)
        return ActorRef(key)

    # ------------------------------------------------------------------
    # alias-promotion watchdog (faulty machines only)
    # ------------------------------------------------------------------
    def _arm_promotion(self, desc, key: MailAddress, behavior_name: str,
                       args: tuple, dest: int) -> None:
        k = self.kernel
        p = k.config.reliability
        timeout = min(
            p.promotion_timeout_us * (p.backoff_factor ** desc.retry_attempts),
            p.max_backoff_us,
        )
        desc.retry_timer = k.node.execute(
            k.node.now + timeout,
            lambda: self._promotion_watchdog(desc, key, behavior_name, args, dest),
            label="creation.watchdog",
        )

    def _promotion_watchdog(self, desc, key: MailAddress, behavior_name: str,
                            args: tuple, dest: int) -> None:
        desc.retry_timer = None
        if desc.has_cached_addr or desc.is_local:
            return  # creation confirmed (self-cleaning)
        k = self.kernel
        desc.retry_attempts += 1
        if desc.retry_attempts > k.config.reliability.watchdog_max_retries:
            raise NameServiceError(
                f"node {k.node_id}: remote creation of {key!r} on node "
                f"{dest} was never confirmed"
            )
        k.stats.incr("creation.reissued")
        k.endpoint.send(dest, "create_remote", (key, behavior_name, args))
        self._arm_promotion(desc, key, behavior_name, args, dest)

    def on_create_remote(
        self, src: int, key: MailAddress, behavior_name: str, args: tuple,
        trace_ctx: Optional[TraceCtx] = None,
    ) -> None:
        """Node-manager side of a remote creation request."""
        k = self.kernel
        costs = k.costs
        k.node.charge(
            costs.descriptor_alloc_us
            + costs.nametable_insert_us
            + costs.create_state_us
            + costs.remote_create_serve_fixed_us
        )
        behavior = k.behavior_for(behavior_name)
        desc = k.table.get(key)
        if desc is None:
            desc = k.table.alloc(key)
        elif desc.actor is not None:
            if self._faults_on:
                # A resent creation request whose original landed: the
                # actor exists; just re-confirm so the issuer's alias
                # promotes.  Never create a second actor.
                k.stats.incr("creation.dup_requests")
                if k.config.descriptor_caching:
                    k.endpoint.send(
                        src, "cache_addr", (key, k.node_id, desc.addr),
                        expendable=True,
                    )
                return
            raise NameServiceError(f"duplicate creation for {key!r}")
        state = behavior.make_state(args)
        actor = Actor(behavior, state, k.node_id, key)
        desc.set_local(actor)
        k.stats.incr("creation.remote_served")
        serve_span = None
        if trace_ctx is not None and self._spans_on:
            serve_span = self._spans.span(
                trace_ctx.trace_id, trace_ctx.parent_span,
                f"create serve {behavior_name}", "create.serve", k.node_id,
                trace_ctx.sent_at, k.node.now, src,
            )
        # Messages (or FIRs) that used the alias before we registered it:
        k.delivery.flush_deferred(desc)
        k.migration._answer_waiting_firs(desc, k.node_id, desc.addr)
        # Background processing: return the descriptor address to cache.
        if k.config.descriptor_caching:
            # A pure hint (the issuer's promotion watchdog repairs its
            # loss), so it skips the ack/retry machinery.
            k.endpoint.send(
                src, "cache_addr", (key, k.node_id, desc.addr),
                trace_ctx=(
                    TraceCtx(trace_ctx.trace_id, serve_span, k.node.now)
                    if serve_span is not None else None
                ),
                expendable=True,
            )

    # ------------------------------------------------------------------
    # split-phase creation (request/reply form, the alias ablation)
    # ------------------------------------------------------------------
    def on_create_request(
        self, src: int, behavior_name: str, args: tuple, reply_to: ReplyTarget,
        trace_ctx: Optional[TraceCtx] = None,
    ) -> None:
        """Create an ordinary actor and reply with its mail address."""
        k = self.kernel
        behavior = k.behavior_for(behavior_name)
        ref = self.create_local(behavior, args)
        k.stats.incr("creation.split_phase")
        reply_parent = None
        if trace_ctx is not None and self._spans_on:
            sid = self._spans.span(
                trace_ctx.trace_id, trace_ctx.parent_span,
                f"create serve {behavior_name}", "create.serve", k.node_id,
                trace_ctx.sent_at, k.node.now, src,
            )
            reply_parent = (trace_ctx.trace_id, sid)
        k.reply_router.send_reply(reply_to, ref, trace_ctx=reply_parent)

    # ------------------------------------------------------------------
    # lightweight tasks (creation elision, §7.2)
    # ------------------------------------------------------------------
    def spawn_task(self, fn_name: str, args: tuple, at: Optional[int] = None) -> None:
        k = self.kernel
        if fn_name not in k.tasks:
            raise ReproError(f"task {fn_name!r} is not loaded")
        ctx = k.trace_ctx if self._spans_on else None
        if at is None or at == k.node_id:
            k.node.charge(k.costs.enqueue_us)
            k.dispatcher.enqueue(Task(fn_name, args, ctx))
        else:
            k.endpoint.send(
                at, "task_spawn", (fn_name, args),
                trace_ctx=(
                    TraceCtx(ctx[0], ctx[1], k.node.now)
                    if ctx is not None else None
                ),
            )
        k.stats.incr("creation.tasks")

    def on_task_spawn(self, src: int, fn_name: str, args: tuple,
                      trace_ctx: Optional[TraceCtx] = None) -> None:
        k = self.kernel
        k.node.charge(k.costs.enqueue_us)
        task_ctx = None
        if trace_ctx is not None and self._spans_on:
            sid = self._spans.span(
                trace_ctx.trace_id, trace_ctx.parent_span,
                f"hop task {fn_name}", "hop", k.node_id,
                trace_ctx.sent_at, k.node.now, src,
            )
            task_ctx = (trace_ctx.trace_id, sid)
        k.dispatcher.enqueue(Task(fn_name, args, task_ctx))
