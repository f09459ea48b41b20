"""The benchmark's own actors.

Module-level ``@behavior`` classes, so forked mp/asyncio workers
import them by reference.  They do no application work on purpose:
each workload measures the runtime's cost per delivery, request or
migration, not the cost of a method body.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro.hal.dsl import behavior, method


@behavior
class Relay:
    """One station of a forwarding ring: count the message, pass it on."""

    def __init__(self):
        self.hits = 0
        self.peer = None

    @method
    def set_peer(self, ctx, peer):
        self.peer = peer

    @method
    def relay(self, ctx, remaining, payload):
        self.hits += 1
        if remaining > 0:
            ctx.send(self.peer, "relay", remaining - 1, payload)

    @method
    def score(self, ctx):
        return self.hits


@behavior
class Echo:
    """Replies with its argument."""

    def __init__(self):
        pass

    @method
    def echo(self, ctx, x):
        return x

    @method
    def noop(self, ctx):
        pass


@behavior
class TimedClient:
    """Closed-loop request/reply client, one request outstanding.

    ``burst`` stamps ``perf_counter_ns`` around every round trip inside
    the actor, so the samples exclude the driver's command RPC.  The
    samples stay in the actor until ``take`` ships them to the driver.
    """

    def __init__(self):
        self.samples = []
        self.wrong = 0

    @method
    def burst(self, ctx, target, n, base):
        samples = self.samples
        for i in range(base, base + n):
            t0 = perf_counter_ns()
            got = yield ctx.request(target, "echo", i)
            samples.append(perf_counter_ns() - t0)
            if got != i:
                self.wrong += 1
        return n

    @method
    def take(self, ctx):
        out = (self.samples, self.wrong)
        self.samples = []
        self.wrong = 0
        return out


@behavior
class Nomad:
    """Answers ``poke`` and moves to the next node on every
    ``stride``-th poke (``stride`` 0 never moves)."""

    def __init__(self, stride):
        self.stride = stride
        self.pokes = 0

    @method
    def poke(self, ctx, x):
        self.pokes += 1
        if self.stride and self.pokes % self.stride == 0:
            ctx.migrate((ctx.node + 1) % ctx.num_nodes)
        return x

    @method
    def score(self, ctx):
        return self.pokes


@behavior
class Prober:
    """Pokes a list of nomads round-robin, one request outstanding."""

    def __init__(self):
        self.wrong = 0
        self.done = 0

    @method
    def probe(self, ctx, nomads, n, base):
        k = len(nomads)
        for i in range(base, base + n):
            got = yield ctx.request(nomads[i % k], "poke", i)
            if got != i:
                self.wrong += 1
            self.done += 1
        return n

    @method
    def take(self, ctx):
        out = (self.done, self.wrong)
        self.done = 0
        self.wrong = 0
        return out


def spawn_ring(rt, stations: int) -> list:
    """``stations`` relays in a ring, placed cyclically so neighbours
    sit on neighbouring nodes; returns once every peer is set."""
    ring = [rt.spawn(Relay, at=i % rt.num_nodes) for i in range(stations)]
    for i, a in enumerate(ring):
        rt.send(a, "set_peer", ring[(i + 1) % stations])
    rt.run()
    return ring


ALL = (Relay, Echo, TimedClient, Nomad, Prober)
