"""Causal span tracing for debugging, white-box tests and export.

Tracing is off by default and free when off: untraced machines carry a
:class:`NullSpanRecorder` whose recording calls are no-ops, and hot
paths guard with a single cached ``enabled`` flag so no argument tuple
is packed per message.

Every actor message is assigned a trace ID and a span ID that
propagate through sends, buffered delivery, FIR forwarding chains,
migrations, remote creations and join-continuation replies, so a
complete message journey can be reconstructed as a span tree
(:class:`SpanRecorder`).  Tests assert on protocol-level behaviour
through it, e.g. that a forwarded message triggered exactly one FIR
chase.  The :class:`~repro.tracectx.TraceCtx` tuple is the wire form of
that context: it rides protocol payloads as a trailing argument but is
*excluded* from the wire-size model, so enabling tracing never perturbs
simulated time (see :func:`repro.am.messages.payload_nbytes`).

Always-on design
----------------
The span path is built so tracing can stay enabled in production:

* **Ring-buffer storage.**  The recorder pre-allocates a flat slot
  list of ``capacity`` entries and writes raw tuples into it with one
  index bump — no per-span dataclass, no list growth.  When the ring
  wraps, the *oldest* spans are overwritten (the recent past is what
  you debug with) and ``overwrites`` counts what was lost.  ``Span``
  objects are materialised lazily, at query/export time only.

* **Deterministic head sampling.**  The keep-or-elide decision is
  made exactly once, when a trace is rooted: ``new_trace_id`` draws
  from a seeded RNG stream and encodes the verdict in the trace ID's
  low bit (``tid & 1`` ⇒ sampled).  Because every propagation channel
  — ``TraceCtx`` on the wire, ``msg.trace_id``, ``kernel.trace_ctx``,
  ``Task.trace_ctx`` — already carries the trace ID, the decision
  travels for free and downstream hops never re-roll it.  Unsampled
  traces still propagate their (even) ID so causality is preserved
  if an error path later forces spans into them.

* **Always-sampled error paths.**  ``force_span`` records regardless
  of the head decision: retransmits, FIR reissues, migration resends
  and reliability failures must never be elided by sampling.

* **Exact histograms.**  Sampling applies to *span recording only*.
  ``StatsRegistry`` histograms (delivery latency, exec time, mailbox
  depth) are recorded unconditionally for every traced message, so
  they are bit-identical at any sample rate.

The module is execution-backend-neutral: the discrete-event simulator
and the real-time threaded backend feed the same recorder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "NullSpanRecorder",
    "DEFAULT_SPAN_CAPACITY",
]

#: Ring size when the recorder is built without an explicit capacity.
#: 64k raw slot tuples ≈ a few MB — bounded however long the run is.
DEFAULT_SPAN_CAPACITY = 65_536


@dataclass(frozen=True)
class Span:
    """One stage of a traced message journey.

    ``parent_id == 0`` marks a root span.  Instantaneous occurrences
    (e.g. a send issue or a name-table back-patch) have
    ``start_us == end_us``.  The trace ID's low bit carries the head-
    sampling verdict (see module docstring); IDs remain opaque to
    every consumer.
    """

    trace_id: int
    span_id: int
    parent_id: int
    name: str
    kind: str
    node: int
    start_us: float
    end_us: float
    attrs: Tuple[Any, ...] = ()

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def __str__(self) -> str:
        return (
            f"[{self.start_us:10.2f}us n{self.node}] {self.kind:<12} "
            f"{self.name} (trace {self.trace_id}, span {self.span_id}"
            f"<-{self.parent_id})"
        )


class SpanRecorder:
    """Collects causal spans for one machine.

    The recorder hands out trace IDs (one per root message journey,
    low bit = head-sampling verdict) and span IDs (one per stage), and
    stores completed spans as raw tuples in a pre-allocated ring.
    It is inert when disabled; the untraced machine carries a
    :class:`NullSpanRecorder` so hot paths pay a single cached flag
    check.

    ``sampler`` is the RNG the head-sampling draw comes from — pass a
    dedicated substream (``rng.stream("tracing.head")``) so the
    decision sequence is a pure function of the machine seed and never
    perturbs other consumers.  At ``sample_rate >= 1`` no draw is made
    at all and every trace is sampled (the default, and what tests
    rely on).
    """

    def __init__(
        self,
        enabled: bool = False,
        capacity: Optional[int] = None,
        *,
        sample_rate: float = 1.0,
        sampler: Optional[random.Random] = None,
    ) -> None:
        if not (0.0 <= sample_rate <= 1.0):
            raise ValueError("sample_rate must be within [0, 1]")
        self.enabled = enabled
        self.capacity = capacity if capacity is not None else DEFAULT_SPAN_CAPACITY
        if self.capacity < 1:
            raise ValueError("span capacity must be >= 1")
        self.sample_rate = sample_rate
        self._sampler = sampler if sampler is not None else random.Random(0)
        #: Pre-allocated ring of raw span tuples; ``_n`` is the
        #: monotonic write count (ring position = ``_n % capacity``).
        self._slots: List[Optional[tuple]] = [None] * self.capacity
        self._n = 0
        self._next_trace = 1
        self._next_span = 1
        # -- accounting (surfaced via accounting(): a sampled or
        # wrapped trace must never be mistaken for a complete one) --
        #: Would-be spans elided because their trace lost the head
        #: draw.  Call sites bump this when they skip span recording
        #: for an unsampled trace; ``span()`` also counts refusals.
        self.elided: int = 0
        #: Spans recorded past the head decision (error paths).
        self.forced: int = 0
        self.traces_started: int = 0
        self.traces_sampled: int = 0

    # ------------------------------------------------------------------
    # identity allocation
    # ------------------------------------------------------------------
    def new_trace_id(self) -> int:
        """Root a new trace: allocate its ID and make the head-sampling
        decision, encoded in the ID's low bit (``tid & 1`` ⇒ record
        spans for this trace)."""
        n = self._next_trace
        self._next_trace = n + 1
        self.traces_started += 1
        rate = self.sample_rate
        if rate >= 1.0 or (rate > 0.0 and self._sampler.random() < rate):
            self.traces_sampled += 1
            return (n << 1) | 1
        return n << 1

    def new_span_id(self) -> int:
        sid = self._next_span
        self._next_span = sid + 1
        return sid

    # ------------------------------------------------------------------
    # recording (the hot path: one index bump + one slot store)
    # ------------------------------------------------------------------
    def record(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int,
        name: str,
        kind: str,
        node: int,
        start_us: float,
        end_us: float,
        *attrs: Any,
    ) -> None:
        """Store a span whose ID was allocated up-front (execution
        spans allocate before running the body so children can attach).
        The caller has already checked ``enabled`` and the sample bit.
        """
        if not self.enabled:
            return
        n = self._n
        self._slots[n % self.capacity] = (
            trace_id, span_id, parent_id, name, kind, node,
            start_us, end_us, attrs,
        )
        self._n = n + 1

    def span(
        self,
        trace_id: int,
        parent_id: int,
        name: str,
        kind: str,
        node: int,
        start_us: float,
        end_us: Optional[float] = None,
        *attrs: Any,
    ) -> int:
        """Allocate a span ID and record the span in one step; returns
        the new span ID (so children can attach to it), or 0 when
        nothing was recorded — a span ID is only ever consumed by a
        span that actually lands in the ring."""
        if not self.enabled:
            return 0
        if not trace_id & 1:
            self.elided += 1
            return 0
        sid = self._next_span
        self._next_span = sid + 1
        n = self._n
        self._slots[n % self.capacity] = (
            trace_id, sid, parent_id, name, kind, node,
            start_us, end_us if end_us is not None else start_us, attrs,
        )
        self._n = n + 1
        return sid

    def force_span(
        self,
        trace_id: int,
        parent_id: int,
        name: str,
        kind: str,
        node: int,
        start_us: float,
        end_us: Optional[float] = None,
        *attrs: Any,
    ) -> Tuple[int, int]:
        """Record a span regardless of the head-sampling decision.

        Error and recovery paths — ``rel.*`` retransmits, FIR
        reissues, migration resends, reliability failures — call this
        so they are captured even in traces that lost the head draw
        (or at sample rate 0).  ``trace_id == 0`` (no causal context
        at the site) roots a fresh trace, forced sampled, so the
        resulting spans are queryable as a tree.  Returns
        ``(trace_id, span_id)``; span_id 0 means the recorder is
        disabled.
        """
        if not self.enabled:
            return trace_id, 0
        if trace_id == 0:
            n = self._next_trace
            self._next_trace = n + 1
            self.traces_started += 1
            self.traces_sampled += 1
            trace_id = (n << 1) | 1
        self.forced += 1
        sid = self._next_span
        self._next_span = sid + 1
        n = self._n
        self._slots[n % self.capacity] = (
            trace_id, sid, parent_id, name, kind, node,
            start_us, end_us if end_us is not None else start_us, attrs,
        )
        self._n = n + 1
        return trace_id, sid

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def recorded(self) -> int:
        """Total spans written to the ring (including overwritten)."""
        return self._n

    @property
    def overwrites(self) -> int:
        """Spans lost to ring wraparound (oldest evicted first)."""
        n = self._n
        return n - self.capacity if n > self.capacity else 0

    def accounting(self) -> Dict[str, Any]:
        """Sampling/ring accounting so a sampled or wrapped trace is
        never mistaken for a complete one."""
        return {
            "spans_recorded": self._n,
            "spans_held": len(self),
            "spans_elided": self.elided,
            "spans_forced": self.forced,
            "ring_overwrites": self.overwrites,
            "ring_capacity": self.capacity,
            "sample_rate": self.sample_rate,
            "traces_started": self.traces_started,
            "traces_sampled": self.traces_sampled,
        }

    # ------------------------------------------------------------------
    # materialisation + queries (cold path)
    # ------------------------------------------------------------------
    def _raw(self) -> List[tuple]:
        """Held slots, oldest → newest."""
        n, cap = self._n, self.capacity
        if n <= cap:
            return self._slots[:n]  # type: ignore[return-value]
        p = n % cap
        return self._slots[p:] + self._slots[:p]  # type: ignore[operator]

    @property
    def spans(self) -> List[Span]:
        """The held spans, materialised oldest → newest.  Deferred:
        ``Span`` objects exist only while you query/export, never on
        the recording hot path."""
        return [Span(*t) for t in self._raw()]

    def of_kind(self, kind: str) -> List[Span]:
        return [Span(*t) for t in self._raw() if t[4] == kind]

    def count(self, kind: str) -> int:
        return sum(1 for t in self._raw() if t[4] == kind)

    def of_trace(self, trace_id: int) -> List[Span]:
        return sorted(
            (Span(*t) for t in self._raw() if t[0] == trace_id),
            key=lambda s: (s.start_us, s.span_id),
        )

    def trace_ids(self) -> List[int]:
        seen: Dict[int, None] = {}
        for t in self._raw():
            seen.setdefault(t[0], None)
        return list(seen)

    def tree(self, trace_id: int) -> List[dict]:
        """The trace's span forest: a list of root nodes, each a dict
        ``{"span": Span, "children": [...]}`` ordered by start time.
        Spans whose parent was elided or overwritten surface as
        roots."""
        spans = self.of_trace(trace_id)
        nodes = {s.span_id: {"span": s, "children": []} for s in spans}
        roots: List[dict] = []
        for s in spans:
            parent = nodes.get(s.parent_id)
            if parent is None:
                roots.append(nodes[s.span_id])
            else:
                parent["children"].append(nodes[s.span_id])
        return roots

    def kinds_in_tree(self, trace_id: int) -> List[str]:
        """Depth-first kind sequence of the trace's span tree (a
        compact shape signature for tests)."""
        out: List[str] = []

        def walk(node: dict) -> None:
            out.append(node["span"].kind)
            for child in node["children"]:
                walk(child)

        for root in self.tree(trace_id):
            walk(root)
        return out

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self) -> int:
        n = self._n
        return n if n < self.capacity else self.capacity

    def clear(self) -> None:
        """Forget held spans and accounting; ID counters keep running
        so cleared-away traces are never aliased by later ones."""
        self._slots = [None] * self.capacity
        self._n = 0
        self.elided = 0
        self.forced = 0
        self.traces_started = 0
        self.traces_sampled = 0

    def dump(self, limit: int = 200) -> str:
        """Render up to ``limit`` spans for debugging output."""
        spans = self.spans
        lines = [str(s) for s in spans[:limit]]
        if len(spans) > limit:
            lines.append(f"... ({len(spans) - limit} more)")
        if self.overwrites:
            lines.append(
                f"... ({self.overwrites} older spans overwritten in "
                f"ring of {self.capacity})"
            )
        if self.elided:
            lines.append(
                f"... ({self.elided} spans elided by head sampling at "
                f"rate {self.sample_rate})"
            )
        return "\n".join(lines)


class NullSpanRecorder(SpanRecorder):
    """The span sink of an untraced machine: recording is a no-op and
    ``enabled`` is pinned False.

    Flipping ``enabled`` on a null recorder would silently record
    nothing, so the setter raises instead — construct the
    machine/runtime with ``trace=True`` to get a live
    :class:`SpanRecorder`.  The ring is one slot so an untraced machine
    never pays the 64k pre-allocation.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        super().__init__(enabled=False, capacity=1)

    @property
    def enabled(self) -> bool:
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        if value:
            raise ValueError(
                "NullSpanRecorder cannot be enabled; build the machine "
                "with trace=True to record spans"
            )

    def record(self, *args: Any, **kwargs: Any) -> None:
        return None

    def span(self, *args: Any, **kwargs: Any) -> int:
        return 0

    def force_span(self, trace_id: int, *args: Any, **kwargs: Any) -> Tuple[int, int]:
        return trace_id, 0
