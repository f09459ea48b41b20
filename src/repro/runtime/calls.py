"""Call/return communication support (§6.2).

The HAL compiler transforms a ``request`` send into an asynchronous
send and separates out its continuation through dependence analysis;
sends with no dependence among them share one continuation.  In this
reproduction the dependence analysis is realised by the generator
protocol (:mod:`repro.hal.dependence` analyses bodies statically; the
runtime slices them dynamically): a method written as a generator
yields one :class:`Request` — or a list of independent requests — and
is resumed with the reply value(s) once the join completes.

This module owns the :class:`Request` descriptor, the per-node
continuation table, and the generator driver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.actors.continuations import JoinContinuation
from repro.actors.message import ActorMessage, ReplyTarget
from repro.am.messages import message_nbytes
from repro.errors import ContinuationError
from repro.runtime.names import ActorRef
from repro.tracectx import TraceCtx

if TYPE_CHECKING:  # pragma: no cover
    from repro.actors.actor import Actor
    from repro.runtime.kernel import Kernel


@dataclass(frozen=True)
class Request:
    """A pending call/return send, produced by ``ctx.request`` and
    consumed by ``yield``."""

    ref: ActorRef
    selector: str
    args: tuple


@dataclass(frozen=True)
class CreateRequest:
    """A split-phase remote creation (the pre-alias protocol): the node
    manager creates the actor and replies with its ordinary mail
    address.  Produced by ``ctx.request_create`` and ``yield``-ed like
    a :class:`Request`."""

    behavior_name: str
    args: tuple
    at: int


class ContinuationTable:
    """Node-local registry of outstanding join continuations."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._table: Dict[int, JoinContinuation] = {}
        self._ids = itertools.count(1)
        self.created = 0

    def new(
        self,
        nslots: int,
        function,
        creator: Optional["Actor"] = None,
        *,
        known: Optional[dict[int, Any]] = None,
        created_at: float = 0.0,
    ) -> JoinContinuation:
        cont = JoinContinuation(
            next(self._ids), nslots, function, creator,
            known=known, created_at=created_at,
        )
        self._table[cont.cont_id] = cont
        self.created += 1
        return cont

    def get(self, cont_id: int) -> JoinContinuation:
        try:
            return self._table[cont_id]
        except KeyError:
            raise ContinuationError(
                f"node {self.node_id}: unknown continuation {cont_id}"
            ) from None

    def discard(self, cont_id: int) -> None:
        self._table.pop(cont_id, None)

    @property
    def outstanding(self) -> int:
        return len(self._table)


def normalize_requests(yielded: Any) -> tuple[List[Request], bool]:
    """Turn a yielded value into a request list.

    Returns ``(requests, single)`` where ``single`` says whether the
    generator expects one bare value rather than a list.
    """
    if isinstance(yielded, (Request, CreateRequest)):
        return [yielded], True
    if isinstance(yielded, Sequence) and not isinstance(yielded, (str, bytes)):
        reqs = list(yielded)
        if not reqs or not all(isinstance(r, (Request, CreateRequest)) for r in reqs):
            raise ContinuationError(
                "a method may only yield ctx.request(...) values "
                f"(got {yielded!r})"
            )
        return reqs, False
    raise ContinuationError(
        f"a method may only yield requests, got {yielded!r}; "
        "use `result = yield ctx.request(ref, sel, args...)`"
    )


class GeneratorDriver:
    """Drives generator-form methods through their continuation chain."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._spans = kernel.spans
        self._spans_on = bool(kernel.spans.enabled)

    # ------------------------------------------------------------------
    def start(self, actor: Optional["Actor"], msg: Optional[ActorMessage], gen) -> None:
        """Begin driving a freshly created generator."""
        self._advance(actor, msg, gen, first=True, value=None)

    def _advance(self, actor, msg, gen, *, first: bool, value: Any) -> None:
        kernel = self.kernel
        try:
            yielded = next(gen) if first else gen.send(value)
        except StopIteration as stop:
            result = stop.value
            if msg is not None and msg.reply_to is not None and result is not None:
                kernel.reply_router.send_reply(msg.reply_to, result)
            return
        reqs, single = normalize_requests(yielded)
        costs = kernel.costs
        kernel.node.charge(costs.continuation_alloc_us)
        kernel.stats.incr("calls.continuations")

        # The compiler's dispatch verdict for this method's request
        # sites: a lowered or generator method executing message
        # ``msg.selector`` had its sites planned under that method
        # name, so local receivers with a static/lookup plan take the
        # stack-based inline path instead of the generic buffered send.
        compiled = None
        if actor is not None and msg is not None:
            compiled = actor.behavior.compiled
        task_static = (
            actor is None
            and kernel.config.scheduler.static_dispatch
        )

        def resume(cont: JoinContinuation) -> None:
            values = cont.values()
            kernel.continuations.discard(cont.cont_id)
            self._advance(
                actor, msg, gen,
                first=False,
                value=values[0] if single else values,
            )

        cont = kernel.continuations.new(
            len(reqs), resume, creator=actor, created_at=kernel.node.now
        )
        # Issue the grouped sends; each reserves its slot in the shared
        # continuation (the paper's "sends with no dependence among
        # them are grouped together to share the same continuation").
        for slot, req in enumerate(reqs):
            target = ReplyTarget(kernel.node_id, cont.cont_id, slot)
            if isinstance(req, CreateRequest):
                if req.at == kernel.node_id:
                    kernel.creation.on_create_request(
                        kernel.node_id, req.behavior_name, req.args, target
                    )
                else:
                    tctx = None
                    if self._spans_on and kernel.trace_ctx is not None:
                        tid, parent = kernel.trace_ctx
                        sid = self._spans.span(
                            tid, parent, f"create {req.behavior_name}",
                            "create.issue", kernel.node_id,
                            kernel.node.now, None, req.at,
                        )
                        tctx = TraceCtx(tid, sid, kernel.node.now)
                    kernel.endpoint.send(
                        req.at, "create_request",
                        (req.behavior_name, req.args, target),
                        trace_ctx=tctx,
                    )
            else:
                if compiled is not None:
                    plan_kind = compiled.plan_for(msg.selector, req.selector)
                elif task_static:
                    # Task bodies are compiler output; their receiver
                    # types are known to the code generator.
                    plan_kind = "static"
                else:
                    plan_kind = "generic"
                kernel.delivery.send_message(
                    req.ref, req.selector, req.args,
                    reply_to=target, sender_actor=actor,
                    plan_kind=plan_kind,
                )


class ReplyRouter:
    """Routes reply values to their continuation slots (local or
    remote), implementing the runtime's special-cased reply messages."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._spans = kernel.spans
        self._spans_on = bool(kernel.spans.enabled)
        self._packet_bytes = kernel.network_params.packet_bytes
        self._bulk_threshold = kernel.config.bulk_threshold_bytes

    def send_reply(self, target: ReplyTarget, value: Any,
                   trace_ctx: Optional[tuple] = None) -> None:
        kernel = self.kernel
        # Parent the reply to the execution we were called from (or an
        # explicit override, e.g. a node-manager serving a creation).
        parent = trace_ctx if trace_ctx is not None else kernel.trace_ctx
        wire_ctx = None
        if self._spans_on and parent is not None:
            tid, psid = parent
            sid = self._spans.span(
                tid, psid, f"reply slot{target.slot}", "reply.send",
                kernel.node_id, kernel.node.now, None, target.node,
            )
            wire_ctx = TraceCtx(tid, sid, kernel.node.now)
        if target.node == kernel.node_id:
            kernel.node.charge(kernel.costs.continuation_fill_us)
            self.fill(target.cont_id, target.slot, value, trace_ctx=wire_ctx)
            return
        kernel.stats.incr("calls.remote_replies")
        payload = (target.cont_id, target.slot, value)
        nbytes = message_nbytes(payload, self._packet_bytes)
        if nbytes >= self._bulk_threshold:
            kernel.bulk.send_bulk(target.node, "reply", payload, nbytes,
                                  trace_ctx=wire_ctx)
        else:
            kernel.endpoint.send(target.node, "reply", payload, nbytes=nbytes,
                                 trace_ctx=wire_ctx)

    def fill(self, cont_id: int, slot: int, value: Any,
             trace_ctx: Optional[TraceCtx] = None) -> None:
        """Fill a slot of a local continuation; schedule the fire when
        the join completes."""
        kernel = self.kernel
        cont = kernel.continuations.get(cont_id)
        if trace_ctx is not None:
            # The continuation body traces under the (last) reply that
            # completed the join.
            cont.trace_ctx = (trace_ctx.trace_id, trace_ctx.parent_span)
        if cont.fill(slot, value):
            from repro.runtime.dispatcher import FireContinuation
            kernel.dispatcher.enqueue(FireContinuation(cont))

    # AM handler: 'reply'
    def on_reply(self, src: int, cont_id: int, slot: int, value: Any,
                 trace_ctx: Optional[TraceCtx] = None) -> None:
        kernel = self.kernel
        kernel.node.charge(kernel.costs.continuation_fill_us)
        if trace_ctx is not None and self._spans_on:
            sid = self._spans.span(
                trace_ctx.trace_id, trace_ctx.parent_span,
                f"reply deliver cont{cont_id}", "reply.deliver",
                kernel.node_id, trace_ctx.sent_at, kernel.node.now, src,
            )
            trace_ctx = TraceCtx(trace_ctx.trace_id, sid, kernel.node.now)
        self.fill(cont_id, slot, value, trace_ctx=trace_ctx)
