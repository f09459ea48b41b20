"""The message send and delivery algorithm (Fig. 3): locality checks,
descriptor caching, keyed vs direct delivery, deferred flushing."""

from __future__ import annotations

import pytest

from repro import HalRuntime, RuntimeConfig, behavior, method
from repro.errors import UnknownActorError
from repro.runtime.names import ActorRef, AddrKind, DescState, MailAddress
from repro.tracectx import TraceCtx
from tests.conftest import Counter, EchoServer, make_runtime


class TestLocalSend:
    def test_send_to_local_actor(self, rt4):
        ref = rt4.spawn(Counter, at=0)
        rt4.send(ref, "incr", 3, from_node=0)
        rt4.run()
        assert rt4.state_of(ref).value == 3

    def test_locality_check_under_a_microsecond(self, rt4):
        from repro.apps.microbench import measure_locality_check
        rt = make_runtime(2)
        assert measure_locality_check(rt) < 1.0


class TestRemoteSend:
    def test_first_send_goes_keyed_then_cached_direct(self):
        rt = make_runtime(4)
        ref = rt.spawn(Counter, at=2)
        rt.run()
        rt.send(ref, "incr", from_node=0)
        rt.run()
        assert rt.stats.counter("delivery.sent_keyed") >= 1
        direct_before = rt.stats.counter("delivery.sent_direct")
        rt.send(ref, "incr", from_node=0)
        rt.run()
        assert rt.stats.counter("delivery.sent_direct") == direct_before + 1
        assert rt.state_of(ref).value == 2

    def test_caching_disabled_keeps_keyed_sends(self):
        rt = make_runtime(4, descriptor_caching=False)
        ref = rt.spawn(Counter, at=2)
        rt.run()
        for _ in range(3):
            rt.send(ref, "incr", from_node=0)
            rt.run()
        assert rt.stats.counter("delivery.sent_direct") == 0
        assert rt.stats.counter("delivery.sent_keyed") >= 3
        assert rt.state_of(ref).value == 3

    def test_unknown_ordinary_actor_is_an_error(self):
        rt = make_runtime(2)
        bogus = ActorRef(MailAddress(AddrKind.ORDINARY, 1, 9999))
        rt.send(bogus, "incr", from_node=0)
        with pytest.raises(UnknownActorError):
            rt.run()

    def test_sends_from_wrong_guess_reach_home(self):
        """A hand-built ref whose sender has no information routes to
        the home node encoded in the address."""
        rt = make_runtime(8)
        ref = rt.spawn(Counter, at=5)
        rt.run()
        # send from several different nodes, none of which know it
        for src in (1, 2, 7):
            rt.send(ref, "incr", from_node=src)
        rt.run()
        assert rt.state_of(ref).value == 3

    def test_reply_routing_cross_node(self, rt4):
        ref = rt4.spawn(EchoServer, at=3)
        assert rt4.call(ref, "add", 20, 22, from_node=0) == 42


class TestBulkDelivery:
    def test_large_payload_uses_bulk_protocol(self):
        import numpy as np
        rt = make_runtime(2)
        ref = rt.spawn(EchoServer, at=1)
        rt.run()
        big = np.zeros(4096)
        assert rt.call(ref, "echo", big, from_node=0) is not None
        assert rt.stats.counter("delivery.bulk") >= 1
        assert rt.stats.counter("bulk.completions") >= 1

    def test_small_payload_avoids_bulk(self):
        rt = make_runtime(2)
        ref = rt.spawn(EchoServer, at=1)
        rt.run()
        rt.call(ref, "echo", 1, from_node=0)
        assert rt.stats.counter("delivery.bulk") == 0


class TestStaticDispatch:
    def test_compiler_plan_enables_inline_invocation(self):
        rt = make_runtime(2)

        @behavior
        class Caller:
            def __init__(self):
                self.friend = None

            @method
            def setup(self, ctx):
                self.friend = ctx.new(Counter)

            @method
            def go(self, ctx):
                ctx.send(self.friend, "incr", 2)

        rt.load_behaviors(Caller)
        c = rt.spawn(Caller, at=0)
        rt.send(c, "setup")
        rt.run()
        before = rt.stats.counter("exec.inline_static")
        rt.send(c, "go")
        rt.run()
        assert rt.stats.counter("exec.inline_static") == before + 1
        assert rt.state_of(rt.state_of(c).friend).value == 2

    def test_static_dispatch_disabled_by_config(self):
        rt = make_runtime(2)
        cfg = rt.config.with_(scheduler=rt.config.scheduler.__class__(
            static_dispatch=False))
        from repro import HalRuntime
        rt = HalRuntime(cfg)

        @behavior
        class Caller2:
            def __init__(self):
                self.friend = None

            @method
            def setup(self, ctx):
                self.friend = ctx.new(Counter)

            @method
            def go(self, ctx):
                ctx.send(self.friend, "incr")

        rt.load_behaviors(Counter, Caller2)
        c = rt.spawn(Caller2, at=0)
        rt.send(c, "setup")
        rt.send(c, "go")
        rt.run()
        assert rt.stats.counter("exec.inline_static") == 0
        assert rt.state_of(rt.state_of(c).friend).value == 1

    def test_inline_depth_bounded(self):
        """Deep synchronous send chains fall back to the buffered path
        instead of blowing the stack (compiler-controlled stack-based
        scheduling, §6.3)."""
        rt = make_runtime(1)

        @behavior
        class Chain:
            def __init__(self):
                self.next = None
                self.hits = 0

            @method
            def build(self, ctx, k):
                if k > 0:
                    self.next = ctx.new(Chain)
                    ctx.send(self.next, "build", k - 1)

            @method
            def fire(self, ctx):
                self.hits += 1
                if self.next is not None:
                    ctx.send(self.next, "fire")

        rt.load_behaviors(Chain)
        head = rt.spawn(Chain, at=0)
        rt.send(head, "build", 200)
        rt.run()
        rt.send(head, "fire")
        rt.run()
        fired = sum(
            a.state.hits for k in rt.kernels for a in k.table.local_actors()
            if a.behavior.name == "Chain"
        )
        assert fired == 201
        assert rt.stats.counter("exec.inline_static") > 0
        assert rt.stats.counter("exec.inline_depth_overflow") >= 1


class TestCacheAddrBackpatch:
    """A ``cache_addr`` is traced as a back-patch only when it installs
    a location: into a fresh descriptor or over a REMOTE guess."""

    def _kernel(self):
        rt = HalRuntime(RuntimeConfig(num_nodes=4), trace=True)
        rt.load_behaviors(Counter)
        return rt.kernels[0]

    def test_resolving_descriptor_records_no_span(self):
        k = self._kernel()
        key = MailAddress(AddrKind.ORDINARY, 2, 7)
        desc = k.table.alloc(key)
        desc.set_remote(2)
        desc.begin_resolving()
        sampled, unsampled = TraceCtx(1, 0, 0.0), TraceCtx(2, 0, 0.0)
        elided = k.spans.elided
        k.delivery.on_cache_addr(1, key, 3, 5, sampled)
        k.delivery.on_cache_addr(1, key, 3, 5, unsampled)
        assert k.spans.count("backpatch") == 0
        assert k.spans.elided == elided
        assert desc.state is DescState.RESOLVING

    def test_remote_descriptor_records_one_span(self):
        k = self._kernel()
        key = MailAddress(AddrKind.ORDINARY, 2, 7)
        k.table.alloc(key).set_remote(2)
        k.delivery.on_cache_addr(1, key, 3, 5, TraceCtx(1, 0, 0.0))
        assert [s.kind for s in k.spans.of_trace(1)] == ["backpatch"]
        assert k.table.get(key).remote_node == 3
