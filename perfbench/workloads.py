"""The seven workloads.

A workload builds its inputs from the seed in ``__init__`` (so every
boot of it sees the same inputs), and then exposes the phases the
measurement loop in :mod:`perfbench.measure` times one by one:
``config`` → ``load`` → ``populate`` → per round ``inject`` /
``rt.run()`` / ``verify``.  Round 0 is the untimed warm-up.

``verify`` returns how many of the round's ops failed; it never
raises for a wrong answer (an exception means the harness or the
runtime broke, and the loop books the whole round as failed).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from repro.apps.fibonacci import fib_calls, fib_program, fib_value
from repro.config import LoadBalanceParams, RuntimeConfig, TracingParams

from perfbench import actors
from perfbench.actors import Echo, Nomad, Prober, TimedClient

#: Head-sampling rate of the traced workload: one journey in 16 keeps
#: its spans, the rest pay only the elision branch.
TRACED_SAMPLE_RATE = 1.0 / 16


class Workload:
    """Base class; see the module docstring for the phase contract."""

    name = ""
    why = ""
    op = ""
    backend = "sim"
    nodes = 8
    #: Build the runtime with product tracing on.
    trace = False
    #: Boot a new runtime for every round (outside the timed window).
    fresh_runtime = False
    #: Counters pinned exactly, beside ``sim_us`` and
    #: ``events_executed``, on simulator workloads.
    golden_counters: Tuple[str, ...] = ()
    #: Span-recorder accounting fields pinned the same way (traced
    #: workloads only; the untraced replay twin has none).
    golden_spans: Tuple[str, ...] = ()
    #: The workload times its own request/reply round trips.
    own_rtt = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.rng = random.Random(seed)

    @property
    def is_sim(self) -> bool:
        return self.backend == "sim"

    def config(self) -> RuntimeConfig:
        return RuntimeConfig(num_nodes=self.nodes, seed=self.seed,
                             backend=self.backend)

    def probe_config(self) -> RuntimeConfig:
        """The runtime the request/reply probe runs on."""
        return self.config()

    def load(self, rt) -> None:
        rt.load_behaviors(*actors.ALL)

    def populate(self, rt) -> Any:
        raise NotImplementedError

    def ops(self) -> int:
        """Ops in one round."""
        raise NotImplementedError

    def inject(self, rt, state, r: int) -> None:
        raise NotImplementedError

    def verify(self, rt, state, r: int) -> int:
        raise NotImplementedError


# ----------------------------------------------------------------------
# forwarding rings
# ----------------------------------------------------------------------
class _RelayRing(Workload):
    """``stations`` Relay actors in a ring, neighbours on neighbouring
    nodes; each round the driver starts ``journeys`` journeys of
    ``hops`` hops with an empty payload."""

    op = "delivery"
    stations = 8
    journeys = 64
    hops = 400

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        if quick:
            self.journeys = max(4, self.journeys // 16)
            self.hops = max(4, self.hops // 8)
        #: Where each journey starts: drawn from the seed, so the load
        #: on the ring is uneven in a different way for every seed.
        self.starts = [self.rng.randrange(self.stations)
                       for _ in range(self.journeys)]

    def ops(self) -> int:
        return self.journeys * (self.hops + 1)

    def populate(self, rt) -> Dict[str, Any]:
        return {"ring": actors.spawn_ring(rt, self.stations),
                "sent": 0, "lost": 0}

    def inject(self, rt, state, r: int) -> None:
        ring, hops = state["ring"], self.hops
        for s in self.starts:
            rt.send(ring[s], "relay", hops, ())
        state["sent"] += self.ops()

    def verify(self, rt, state, r: int) -> int:
        delivered = sum(rt.call(a, "score") for a in state["ring"])
        # Scores are cumulative, so one lost message shows in every
        # later round too; book only what this round lost.
        lost = state["sent"] - delivered - state["lost"]
        state["lost"] += lost
        return abs(lost)


class RelayMp(_RelayRing):
    name = "relay.mp"
    why = ("every delivery crosses a process at the smallest message size: "
           "delivery, cmam, wireformat, pickle, pipe and dispatch do all the "
           "work; the wire-throughput workload")
    backend = "mp"
    nodes = 4


class RelayAsyncio(_RelayRing):
    name = "relay.asyncio"
    why = ("the same ring over TCP loopback adds the reliable envelope/ack "
           "and the asyncio reader pumps; a gain there shows here and must "
           "not show in relay.mp")
    backend = "asyncio"
    nodes = 4


class RelayTracedSim(_RelayRing):
    name = "relay_traced.sim"
    why = ("the only workload with product tracing on (1/16 head sampling), "
           "bare forwarding so the span hot path is not diluted by "
           "application work")
    backend = "sim"
    nodes = 8
    trace = True
    stations = 16
    journeys = 2400
    hops = 12
    golden_spans = ("spans_recorded", "spans_elided")

    def config(self) -> RuntimeConfig:
        return super().config().with_(
            tracing=TracingParams(sample_rate=TRACED_SAMPLE_RATE))

    def verify(self, rt, state, r: int) -> int:
        failed = super().verify(rt, state, r)
        if rt.spans.enabled:
            acct = rt.spans.accounting()
            if not (acct["spans_recorded"] > 0 and acct["spans_elided"] > 0):
                failed = self.ops()
        return failed


# ----------------------------------------------------------------------
# request/reply latency
# ----------------------------------------------------------------------
class EchoMp(Workload):
    name = "echo.mp"
    why = ("the wire path used the other way: sequential cross-process "
           "request/reply, nothing to batch, so flush cadence, wake-up and "
           "loop polling set the time")
    op = "round trip"
    backend = "mp"
    nodes = 4
    own_rtt = True
    requests = 4000

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        if quick:
            self.requests = 200
        self.base = self.rng.randrange(1 << 20)
        #: Sorted round-trip samples (ns) of every timed round.
        self.rtt_rounds: List[List[int]] = []

    def ops(self) -> int:
        return self.requests

    def populate(self, rt) -> Dict[str, Any]:
        return {"echo": rt.spawn(Echo, at=1),
                "client": rt.spawn(TimedClient, at=0)}

    def inject(self, rt, state, r: int) -> None:
        rt.send(state["client"], "burst", state["echo"], self.requests,
                self.base + r * self.requests)

    def verify(self, rt, state, r: int) -> int:
        samples, wrong = rt.call(state["client"], "take")
        if r > 0:
            self.rtt_rounds.append(sorted(samples))
        return wrong + abs(self.requests - len(samples))


# ----------------------------------------------------------------------
# fibonacci under random-polling load balancing (Table 4)
# ----------------------------------------------------------------------
class _Fib(Workload):
    op = "task"
    n = 24

    def config(self) -> RuntimeConfig:
        return super().config().with_(
            load_balance=LoadBalanceParams(enabled=True))

    def probe_config(self) -> RuntimeConfig:
        # Load balancing off: idle nodes trade steal polls every 50 µs,
        # which makes a round trip bimodal wherever nodes outnumber
        # cores (README, Findings); a bound needs a steadier number.
        return Workload.config(self)

    def load(self, rt) -> None:
        rt.load(fib_program())
        # The same program image as every other workload, so the cost
        # of HAL-compiling it shows in setup_s everywhere.
        super().load(rt)

    def ops(self) -> int:
        return fib_calls(self.n)

    def populate(self, rt) -> Dict[str, Any]:
        return {}

    def inject(self, rt, state, r: int) -> None:
        target, state["box"] = rt.make_collector(from_node=0)
        rt.spawn_task("fib", self.n, target, 0, at=0)

    def verify(self, rt, state, r: int) -> int:
        box = state["box"]
        return 0 if box and box[0] == fib_value(self.n) else self.ops()


class FibMp(_Fib):
    name = "fib.mp"
    why = ("almost all work is node-local (tens of steals per 150k tasks), so "
           "wire changes should not move it; what shows is the worker loop: "
           "readiness polling, heap scans, steal chatter, Safra")
    backend = "mp"
    nodes = 4

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.n = 14 if quick else 24


class FibSim(_Fib):
    name = "fib.sim"
    why = ("the paper's Table 4 workload on the simulator: event heap, task "
           "spawn, join continuations, load balancer; no platform.mp or "
           "wireformat code runs, so it is the bypass for every wire change")
    backend = "sim"
    nodes = 8
    fresh_runtime = True
    golden_counters = ("steal.polls", "steal.granted")

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.n = 14 if quick else 22


# ----------------------------------------------------------------------
# migration and the FIR chase
# ----------------------------------------------------------------------
class ChaseSim(Workload):
    name = "chase.sim"
    why = ("the paper's headline: best-guess descriptors going stale under "
           "migration, FIR chase, back-patching, migration handshake; "
           "names, nametable, migration and delivery do the work")
    op = "poke round trip"
    backend = "sim"
    nodes = 8
    nomads = 16
    #: Every nomad moves on every ``stride``-th poke.  Stride 1 at P=8
    #: kills the runtime (README, Findings), so it is kept out.
    stride = 4
    pokes = 1000
    golden_counters = ("fir.initiated", "migration.started")

    def __init__(self, seed: int, quick: bool = False, stride: int = 4) -> None:
        super().__init__(seed, quick)
        self.stride = stride
        if quick:
            self.pokes = 60
        order = list(range(self.nomads))
        #: One target order per prober, shuffled from the seed.
        self.orders: List[Sequence[int]] = []
        for _ in range(self.nodes):
            self.rng.shuffle(order)
            self.orders.append(tuple(order))

    def ops(self) -> int:
        return self.nodes * self.pokes

    def populate(self, rt) -> Dict[str, Any]:
        nomads = [rt.spawn(Nomad, self.stride, at=i % self.nodes)
                  for i in range(self.nomads)]
        probers = [rt.spawn(Prober, at=i) for i in range(self.nodes)]
        targets = [tuple(nomads[i] for i in order) for order in self.orders]
        return {"nomads": nomads, "probers": probers, "targets": targets,
                "poked": 0}

    def inject(self, rt, state, r: int) -> None:
        for i, (prober, targets) in enumerate(
                zip(state["probers"], state["targets"])):
            rt.send(prober, "probe", targets, self.pokes, r * self.pokes,
                    from_node=i)
        state["poked"] += self.ops()

    def verify(self, rt, state, r: int) -> int:
        failed = 0
        for prober in state["probers"]:
            done, wrong = rt.call(prober, "take")
            failed += wrong + abs(self.pokes - done)
        received = sum(rt.call(n, "score") for n in state["nomads"])
        return failed + abs(state["poked"] - received)


ALL = (RelayMp, RelayAsyncio, EchoMp, FibMp, FibSim, ChaseSim, RelayTracedSim)
BY_NAME = {cls.name: cls for cls in ALL}
