"""Migration + FIR: forwarding chains, relaxed consistency repair,
birthplace caching, in-transit deferral."""

from __future__ import annotations

import pytest

from repro import behavior, method
from repro.errors import MigrationError
from repro.runtime.names import DescState
from tests.conftest import Counter, Hopper, make_runtime


def hop(rt, ref, to, from_node=0):
    rt.send(ref, "hop", to, from_node=from_node)
    rt.run()


class TestBasicMigration:
    def test_actor_moves_and_keeps_state(self, rt8_traced):
        rt = rt8_traced
        ref = rt.spawn(Hopper, at=0)
        hop(rt, ref, 5)
        assert rt.locate(ref) == 5
        assert rt.state_of(ref).trail == [0]
        assert rt.stats.counter("migration.arrived") == 1

    def test_migrate_to_self_is_noop(self, rt4):
        ref = rt4.spawn(Hopper, at=1)
        rt4.send(ref, "hop", 1, from_node=0)
        rt4.run()
        assert rt4.locate(ref) == 1
        assert rt4.stats.counter("migration.started") == 0

    def test_old_node_keeps_forward_pointer(self, rt4):
        ref = rt4.spawn(Hopper, at=0)
        hop(rt4, ref, 3)
        desc = rt4.kernels[0].table.get(ref.address)
        assert desc.state is DescState.REMOTE
        assert desc.remote_node == 3
        assert desc.has_cached_addr  # migrate_ack cached the new addr

    def test_mailbox_travels_with_actor(self):
        rt = make_runtime(4)

        @behavior
        class SlowHopper:
            def __init__(self):
                self.got = []

            @method
            def hop_then_work(self, ctx, to):
                ctx.migrate(to)

            @method
            def work(self, ctx, x):
                self.got.append((ctx.node, x))

        rt.load_behaviors(SlowHopper)
        ref = rt.spawn(SlowHopper, at=0)
        # queue the migration trigger plus trailing work in one burst:
        rt.send(ref, "hop_then_work", 2)
        rt.send(ref, "work", 1)
        rt.send(ref, "work", 2)
        rt.run()
        state = rt.state_of(ref)
        assert [x for _, x in state.got] == [1, 2]
        assert all(node == 2 for node, _ in state.got)

    def test_cannot_migrate_busy_actor(self, rt4):
        ref = rt4.spawn(Hopper, at=0)
        actor = rt4.actor_of(ref)
        actor.busy = True
        with pytest.raises(MigrationError):
            rt4.kernels[0].node.bootstrap(
                lambda: rt4.kernels[0].migration.start(actor, 1)
            )


class TestFirProtocol:
    def test_stale_cache_triggers_fir(self, rt8_traced):
        rt = rt8_traced
        ref = rt.spawn(Hopper, at=0)
        # node 2 learns the location, then the actor moves twice
        assert rt.call(ref, "whereami", from_node=2) == 0
        hop(rt, ref, 4)
        hop(rt, ref, 6)
        fir_before = rt.stats.counter("fir.initiated")
        assert rt.call(ref, "whereami", from_node=2) == 6
        assert rt.stats.counter("fir.initiated") > fir_before

    def test_fir_repairs_every_chain_node(self, rt8_traced):
        rt = rt8_traced
        ref = rt.spawn(Hopper, at=0)
        hop(rt, ref, 3)
        hop(rt, ref, 5)
        # a message routed via the birthplace walks 0 -> 3 -> 5
        rt.send(ref, "whereami", from_node=7)
        rt.run()
        for node in (0, 3):
            desc = rt.kernels[node].table.get(ref.address)
            assert desc.state is DescState.REMOTE
            assert desc.remote_node == 5

    def test_fir_coalesced_for_burst(self, rt8_traced):
        """Multiple undeliverable messages for one actor share one FIR."""
        rt = rt8_traced
        ref = rt.spawn(Hopper, at=0)
        assert rt.call(ref, "whereami", from_node=2) == 0

        # Move away; node 2 still believes node 0.
        hop(rt, ref, 4)
        fir_before = rt.stats.counter("fir.initiated")
        deferred_before = rt.stats.counter("delivery.deferred_at_manager")
        for _ in range(5):
            rt.send(ref, "whereami", from_node=2)
        rt.run()
        # one chase for the burst; the rest of the messages waited on it
        assert rt.stats.counter("fir.initiated") - fir_before == 1
        assert rt.stats.counter("delivery.deferred_at_manager") - deferred_before >= 3

    def test_messages_never_lost_across_many_migrations(self):
        rt = make_runtime(8)
        ref = rt.spawn(Counter, at=0)
        rt.run()

        @behavior
        class Mover:
            def __init__(self):
                pass

            @method
            def move(self, ctx, to):
                ctx.migrate(to)

        # interleave increments from many nodes with migrations
        total = 0
        for round_, to in enumerate((3, 1, 6, 2, 7)):
            for src in range(8):
                rt.send(ref, "incr", 1, from_node=src)
                total += 1
            actor = rt.actor_of(ref)
            kernel = rt.kernels[rt.locate(ref)]
            rt.run()  # drain, then migrate between messages
            kernel = rt.kernels[rt.locate(ref)]
            kernel.node.bootstrap(
                lambda k=kernel: k.migration.start(rt.actor_of(ref), to)
            )
            rt.run()
        assert rt.state_of(ref).value == total

    def test_birthplace_learns_after_each_migration(self, rt8_traced):
        rt = rt8_traced
        ref = rt.spawn(Hopper, at=0)
        hop(rt, ref, 3, from_node=1)
        hop(rt, ref, 6, from_node=1)
        birth_desc = rt.kernels[0].table.get(ref.address)
        assert birth_desc.remote_node == 6
        assert birth_desc.has_cached_addr


class TestInTransitDeferral:
    def test_messages_arriving_mid_transit_are_deferred_not_lost(self):
        # Use a sluggish network so the transit window is wide.
        rt = make_runtime(4)
        ref = rt.spawn(Counter, at=0)
        rt.run()
        kernel = rt.kernels[0]
        actor = rt.actor_of(ref)
        kernel.node.bootstrap(lambda: kernel.migration.start(actor, 3))
        # While the migration message is in flight, pump messages at
        # the old node: they must be deferred and then forwarded.
        for _ in range(4):
            rt.send(ref, "incr", from_node=0)
        rt.run()
        assert rt.locate(ref) == 3
        assert rt.state_of(ref).value == 4
        assert rt.stats.counter("delivery.deferred_at_sender") >= 1


class TestSelfNamingLocation:
    """A ``fir_reply`` or ``cache_addr`` that names the receiving node
    is stale (were the actor there, its descriptor would be LOCAL), so
    it must never install "remote, on this node" (§4: best-guess
    location information never wedges delivery)."""

    @staticmethod
    def _descriptor(kernel, key, state):
        if state is None:
            return None
        desc = kernel.table.alloc(key)
        desc.set_remote(1, 5)
        if state is DescState.RESOLVING:
            desc.begin_resolving()
        elif state is DescState.IN_TRANSIT:
            desc.begin_transit(1)
        return desc

    @pytest.mark.parametrize("state", [
        None, DescState.REMOTE, DescState.RESOLVING, DescState.IN_TRANSIT,
    ], ids=["fresh", "remote", "resolving", "in_transit"])
    def test_self_naming_location_is_ignored(self, rt4, state):
        ref = rt4.spawn(Counter, at=0)
        rt4.run()
        k = rt4.kernels[2]
        key = ref.address
        desc = self._descriptor(k, key, state)
        k.node.bootstrap(lambda: k.migration.on_fir_reply(1, key, 2, 7, ()))
        k.node.bootstrap(lambda: k.delivery.on_cache_addr(1, key, 2, 7))
        if state is None:
            assert k.table.get(key) is None
        else:
            assert desc.state is state
            assert (desc.remote_node, desc.remote_addr) == (
                (1, -1) if state is DescState.IN_TRANSIT else (1, 5))
        assert rt4.stats.counter("fir.updated") == 0

    def test_stride_one_chase_survives(self):
        """The geometry that once died with ``Endpoint.send is
        remote-only``: every nomad moves on every poke, seed 16."""
        from perfbench.harness import Spans
        from perfbench.measure import boot, play_round
        from perfbench.workloads import ChaseSim

        wl = ChaseSim(16, stride=1)
        wl.pokes = 400
        spans = Spans(wl.name, enabled=False)
        rt, state = boot(wl, spans)
        try:
            failed = [play_round(wl, rt, state, r, spans)[1] for r in range(2)]
        finally:
            rt.close()
        assert failed == [0, 0]


class TestMigrationUnderLoadBalancing:
    def test_actor_stealing_migrates_work(self):
        from repro.config import LoadBalanceParams
        rt = make_runtime(4, load_balance=LoadBalanceParams(enabled=True))
        # Pile actors with queued work onto node 0.
        refs = [rt.spawn(Counter, at=0) for _ in range(12)]
        for r in refs:
            for _ in range(5):
                rt.send(r, "incr", from_node=0)
        rt.run()
        assert sum(rt.state_of(r).value for r in refs) == 60
        # some actors should have been migrated off node 0
        assert rt.stats.counter("migration.arrived") > 0
        homes = {rt.locate(r) for r in refs}
        assert homes != {0}
