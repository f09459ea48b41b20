"""Per-layer probes: one layer at a time, driven in isolation against
the real code through its public entry points.

A timed probe is a function ``loop(n) -> seconds`` that performs ``n``
units of work and times only them.  :func:`per_unit_us` sizes ``n`` so
one loop lasts ``budget`` seconds, repeats it ``REPEATS`` times and
reports the median per unit.  Counts and ratios are exact and come
from ``rt.stats`` of the traced workload run (:func:`from_workload`).

Layer = module name under ``repro``; the part after the module is
what was measured.  :data:`MOVES` holds, for every metric, the
end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

import gc
import time
from statistics import median
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.apps.fibonacci import FibActor, fib_calls, fib_program, fib_value
from repro.config import (
    LoadBalanceParams, MpParams, NetParams, ReliabilityParams, RuntimeConfig,
    TracingParams,
)
from repro.platform.base import WirePacket
from repro.platform.shmring import create_arena
from repro.platform.wireformat import (
    FrameDecoder, FrameEncoder, decode_payload, encode_payload,
)
from repro.runtime.system import HalRuntime
from repro.sim.engine import Simulator

from perfbench import actors
from perfbench.actors import Echo, Nomad, Prober, Relay, TimedClient
from perfbench.harness import Spans, cpu_seconds, guard
from perfbench.measure import NO_SPANS, boot, play_round
from perfbench.workloads import TRACED_SAMPLE_RATE, ChaseSim

REPEATS = 5
#: Seconds one timed loop lasts (a tenth of it under ``--quick``).
BUDGET_S = 0.2

#: The relay's deliver tuple as ``DeliveryService.transmit`` builds it:
#: (cached descriptor address, selector, args, reply target, origin).
DELIVER_SMALL = (7, "relay", (123, ()), None, 2)
DELIVER_48W = (7, "relay", (123, tuple(range(3, 51))), None, 2)
#: Payload over ``bulk_threshold_bytes``: the three-phase protocol runs.
BULK_PAYLOAD = tuple(range(64))


def per_unit_us(loop: Callable[[int], float], budget: float,
                start: int = 200) -> float:
    """Median µs per unit over ``REPEATS`` loops of about ``budget``
    seconds each."""
    n = start
    took = loop(n)
    while took < budget / 4:
        n *= 4
        took = loop(n)
    n = max(1, int(n * budget / took))
    samples = []
    for _ in range(REPEATS):
        gc.collect()
        samples.append(loop(n) / n)
    return median(samples) * 1e6


@contextmanager
def runtime(**cfg: Any) -> Iterator[HalRuntime]:
    """A booted runtime with the benchmark's actors loaded, closed on
    exit whatever happens."""
    trace = cfg.pop("trace", False)
    with guard():
        rt = HalRuntime(RuntimeConfig(seed=1995, **cfg), trace=trace)
    try:
        rt.load_behaviors(*actors.ALL)
        rt.run()
        yield rt
    finally:
        rt.close()


# ----------------------------------------------------------------------
# sim.engine
# ----------------------------------------------------------------------
def engine_post_pop(budget: float) -> Dict[str, float]:
    def loop(n: int) -> float:
        sim = Simulator()
        left = [n]

        def tick() -> None:
            if left[0] > 0:
                left[0] -= 1
                sim.post(sim.now + 1.0, tick)

        t0 = time.perf_counter()
        # 1,000 self-reposting chains keep the heap 1,000 deep.
        for i in range(1000):
            sim.post(i * 0.001, tick)
        sim.run()
        return time.perf_counter() - t0

    return {"sim.engine.post_pop_us": per_unit_us(loop, budget, 20000)}


# ----------------------------------------------------------------------
# am.cmam / am.reliable
# ----------------------------------------------------------------------
def _am_loop(rt: HalRuntime) -> Callable[[int], float]:
    ep0 = rt.endpoint_directory[0]
    rt.endpoint_directory[1].register("pb_noop", lambda src: None)
    node0 = rt.machine.node(0)

    def burst(n: int) -> None:
        for _ in range(n):
            ep0.send(1, "pb_noop")

    def loop(n: int) -> float:
        t0 = time.perf_counter()
        node0.bootstrap(lambda: burst(n))
        rt.run()
        return time.perf_counter() - t0

    return loop


def am_send_dispatch(budget: float) -> Dict[str, float]:
    with runtime(num_nodes=2) as rt:
        plain = per_unit_us(_am_loop(rt), budget)
    with runtime(num_nodes=2,
                 reliability=ReliabilityParams(enabled=True)) as rt:
        reliable = per_unit_us(_am_loop(rt), budget)
    return {"am.cmam.send_dispatch_us": plain,
            "am.reliable.envelope_ack_us": reliable - plain}


# ----------------------------------------------------------------------
# runtime.*
# ----------------------------------------------------------------------
def delivery_send(budget: float) -> Dict[str, float]:
    out = {}
    for name, nodes, at in (("local", 1, 0), ("remote", 2, 1)):
        with runtime(num_nodes=nodes) as rt:
            target = rt.spawn(Echo, at=at)
            rt.run()

            def loop(n: int) -> float:
                t0 = time.perf_counter()
                for _ in range(n):
                    rt.send(target, "noop")
                rt.run()
                return time.perf_counter() - t0

            out[f"runtime.delivery.{name}_send_us"] = per_unit_us(loop, budget)
    return out


def execution_inline(budget: float) -> Dict[str, float]:
    """Actor-form fib on one node: every request the compiler planned
    static is eligible for inline stack dispatch."""
    n = 16
    walls, ratios, calls = [], [], 0
    deadline = time.perf_counter() + REPEATS * budget
    while len(walls) < REPEATS or time.perf_counter() < deadline:
        with runtime(num_nodes=1) as rt:
            rt.load(fib_program())
            root = rt.spawn(FibActor, at=0)
            gc.collect()
            t0 = time.perf_counter()
            value = rt.call(root, "compute", n)
            wall = time.perf_counter() - t0
            if value != fib_value(n):
                raise AssertionError(f"inline probe: fib({n}) = {value}")
            static = rt.stats.counter("exec.inline_static")
            inline = static + rt.stats.counter("exec.inline_lookup")
            local = inline + rt.stats.counter("delivery.local_generic")
        walls.append(wall / static)
        ratios.append(inline / local)
        calls = static
    if calls < fib_calls(n) // 2:
        raise AssertionError(f"inline probe: only {calls} static inlines")
    return {"runtime.execution.inline_call_us": median(walls) * 1e6,
            "runtime.execution.inline_hit_ratio": median(ratios)}


def calls_request_reply(budget: float) -> Dict[str, float]:
    with runtime(num_nodes=1) as rt:
        echo = rt.spawn(Echo, at=0)
        client = rt.spawn(TimedClient, at=0)
        rt.run()

        def loop(n: int) -> float:
            t0 = time.perf_counter()
            rt.send(client, "burst", echo, n, 0)
            rt.run()
            wall = time.perf_counter() - t0
            samples, wrong = rt.call(client, "take")
            if wrong or len(samples) != n:
                raise AssertionError("request/reply probe lost a reply")
            return wall

        return {"runtime.calls.request_reply_us": per_unit_us(loop, budget)}


def creation(budget: float) -> Dict[str, float]:
    def local(n: int) -> float:
        with runtime(num_nodes=2) as rt:
            t0 = time.perf_counter()
            for _ in range(n):
                rt.spawn(Echo, at=0)
            return time.perf_counter() - t0

    def alias(n: int) -> float:
        with runtime(num_nodes=2) as rt:
            t0 = time.perf_counter()
            for _ in range(n):
                rt.spawn_remote(Echo, at=1, issuing_node=0)
            rt.run()
            return time.perf_counter() - t0

    return {"runtime.creation.local_create_us": per_unit_us(local, budget),
            "runtime.creation.alias_create_us": per_unit_us(alias, budget)}


def migration(budget: float) -> Dict[str, float]:
    """One nomad that moves after every poke, poked by one prober with
    one request outstanding, so every poke chases a fresh move."""
    with runtime(num_nodes=4) as rt:
        nomad = rt.spawn(Nomad, 1, at=1)
        prober = rt.spawn(Prober, at=0)
        rt.run()

        def loop(n: int) -> float:
            moved = rt.stats.counter("migration.started")
            t0 = time.perf_counter()
            rt.send(prober, "probe", (nomad,), n, 0)
            rt.run()
            wall = time.perf_counter() - t0
            moved = rt.stats.counter("migration.started") - moved
            if moved != n:
                raise AssertionError(f"migration probe: {moved} moves for {n}")
            return wall

        return {"runtime.migration.migrate_us": per_unit_us(loop, budget)}


def migration_static_ratio(budget: float) -> Dict[str, float]:
    """chase.sim's throughput over the same run with nomads that never
    move: the host-time price of location transparency under movement."""
    rates = {}
    for stride in (4, 0):
        wl = ChaseSim(1995, stride=stride)
        wl.pokes = 250
        rt, state = boot(wl, NO_SPANS)
        try:
            walls = []
            for r in range(4):
                wall, failed, _ = play_round(wl, rt, state, r, NO_SPANS)
                if failed:
                    raise AssertionError("static-ratio probe lost a poke")
                walls.append(wall)
            rates[stride] = wl.ops() / median(walls[1:])
        finally:
            rt.close()
    return {"runtime.migration.static_ratio": rates[4] / rates[0]}


def hal_compile(budget: float) -> Dict[str, float]:
    walls = []
    for _ in range(REPEATS):
        with guard():
            rt = HalRuntime(RuntimeConfig(num_nodes=1, seed=1995))
        try:
            t0 = time.perf_counter()
            rt.load(fib_program())
            rt.load_behaviors(*actors.ALL)
            walls.append(time.perf_counter() - t0)
        finally:
            rt.close()
    return {"hal.compile_ms": median(walls) * 1e3}


# ----------------------------------------------------------------------
# platform.wireformat / platform.shmring
# ----------------------------------------------------------------------
def wireformat(budget: float) -> Dict[str, float]:
    packet = WirePacket(0, 1, "deliver_direct", DELIVER_SMALL, 36,
                        "deliver_direct")
    batch = 64

    # One connection's encoder and decoder, as long-lived as a
    # worker's: the handler name is interned once.  The unit of both
    # loops is one frame of ``batch`` messages.
    def frame_of(enc: FrameEncoder) -> bytes:
        for _ in range(batch):
            enc.add_message(packet)
        return enc.take_frame()

    def encode(n: int) -> float:
        enc = FrameEncoder()
        t0 = time.perf_counter()
        for _ in range(n):
            frame_of(enc)
        return time.perf_counter() - t0

    def decode(n: int) -> float:
        enc, dec = FrameEncoder(), FrameDecoder()
        dec.feed(frame_of(enc))  # carries the handler name's DEF
        dec.drain()
        steady = frame_of(enc)
        t0 = time.perf_counter()
        for _ in range(n):
            dec.feed(steady)
            if len(dec.drain()) != batch:
                raise AssertionError("wireformat probe lost a record")
        return time.perf_counter() - t0

    out = {
        "platform.wireformat.encode_us_per_msg":
            per_unit_us(encode, budget, 100) / batch,
        "platform.wireformat.decode_us_per_msg":
            per_unit_us(decode, budget, 100) / batch,
    }
    for tag, payload in (("small", DELIVER_SMALL), ("48w", DELIVER_48W)):
        def pickle_loop(n: int, payload=payload) -> float:
            t0 = time.perf_counter()
            for _ in range(n):
                decode_payload(encode_payload(payload))
            return time.perf_counter() - t0

        out[f"platform.wireformat.payload_pickle_us.{tag}"] = per_unit_us(
            pickle_loop, budget, 5000)
    return out


def shmring(budget: float) -> Dict[str, float]:
    def probe(arena) -> float:
        ring = arena.ring(0, 1)
        block = bytes(1024)

        def loop(n: int) -> float:
            t0 = time.perf_counter()
            for _ in range(n):
                if (ring.write_some(block) != 1024
                        or len(ring.read_some()) != 1024):
                    raise AssertionError("shmring probe lost bytes")
            return time.perf_counter() - t0

        return per_unit_us(loop, budget, 5000)

    arena = create_arena(2, 64 * 1024)
    try:
        return {"platform.shmring.copy_us_per_kb": probe(arena)}
    finally:
        arena.close()
        arena.unlink()


# ----------------------------------------------------------------------
# platform.mp / platform.asyncio_net / platform.threaded
# ----------------------------------------------------------------------
#: (layer, metric suffix, backend, config overrides) of every transport.
TRANSPORTS: Tuple[Tuple[str, str, str, Dict[str, Any]], ...] = (
    ("platform.mp", ".pipe", "mp", {"mp": MpParams(transport="pipe")}),
    ("platform.mp", ".socket", "mp", {"mp": MpParams(transport="socket")}),
    ("platform.mp", ".shm", "mp", {"mp": MpParams(transport="shm")}),
    ("platform.asyncio_net", ".tcp", "asyncio",
     {"net": NetParams(transport="tcp")}),
    ("platform.asyncio_net", ".unix", "asyncio",
     {"net": NetParams(transport="unix")}),
    ("platform.threaded", "", "threaded", {}),
)


def _relay_rounds(rt: HalRuntime, payload: tuple, journeys: int, hops: int,
                  rounds: int) -> float:
    """Median seconds per message over ``rounds`` relay rounds on a
    ring of 8, after one warm-up round."""
    ring = actors.spawn_ring(rt, 8)
    walls = []
    for r in range(rounds + 1):
        gc.collect()
        with guard():
            t0 = time.perf_counter()
            for j in range(journeys):
                rt.send(ring[j % 8], "relay", hops, payload)
            rt.run()
            walls.append(time.perf_counter() - t0)
    msgs = journeys * (hops + 1)
    delivered = sum(rt.call(a, "score") for a in ring)
    if delivered != (rounds + 1) * msgs:
        raise AssertionError(
            f"relay probe lost messages: {delivered} != {(rounds + 1) * msgs}")
    return median(walls[1:]) / msgs


def transports(budget: float) -> Dict[str, float]:
    """Boot, relay, driver-call and detection cost of every transport
    of every real-time backend, P=4."""
    out: Dict[str, float] = {}
    # 64 journeys x 200 hops is about a quarter of a second on the
    # pipe mesh: the ring of relay.mp, half as long.
    hops = max(20, int(200 * budget / BUDGET_S))
    for layer, tag, backend, over in TRANSPORTS:
        cfg = dict(num_nodes=4, backend=backend, **over)
        boots, closes, boot_cpu = [], [], []
        for _ in range(3):
            gc.collect()
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            with guard():
                rt = HalRuntime(RuntimeConfig(seed=1995, **cfg))
            try:
                rt.run()
                boots.append(time.perf_counter() - t0)
            finally:
                t1 = time.perf_counter()
                rt.close()
                closes.append(time.perf_counter() - t1)
            boot_cpu.append(cpu_seconds() - cpu0)
        if backend != "threaded":
            out[f"{layer}.boot_s{tag}"] = median(boots)
        if tag == ".pipe":
            out["platform.mp.shutdown_ms"] = median(closes) * 1e3

        # The plain ring runs on a mesh of its own, so its CPU (taken
        # after close has reaped the workers, less what a bare
        # boot-to-close cycle costs) belongs to relaying alone.
        cpu0 = cpu_seconds()
        with runtime(**cfg) as rt:
            per_msg = _relay_rounds(rt, (), 64, hops, 3)
        relay_cpu = cpu_seconds() - cpu0 - median(boot_cpu)
        out[f"{layer}.relay_us_per_msg{tag}"] = per_msg * 1e6
        if tag == ".pipe":
            out["_mp_relay_cpu_us_per_msg"] = (
                relay_cpu / (4 * 64 * (hops + 1)) * 1e6)
        if tag in (".pipe", ".tcp"):
            with runtime(**cfg) as rt:
                out.update(_driver_side(rt, layer, hops, mp=tag == ".pipe"))
    return out


def _driver_side(rt: HalRuntime, layer: str, hops: int, *, mp: bool
                 ) -> Dict[str, float]:
    """What the external driver pays: one command RPC, one call, one
    detection round on an idle machine; on mp also the bulk path."""
    out: Dict[str, float] = {}
    echo = rt.spawn(Echo, at=1)
    rt.run()
    if mp:
        t0 = time.perf_counter()
        for _ in range(300):
            rt.send(echo, "noop")
        out["platform.mp.command_rtt_us"] = (
            (time.perf_counter() - t0) / 300 * 1e6)
        rt.run()
    rtts = []
    for i in range(300):
        t0 = time.perf_counter()
        if rt.call(echo, "echo", i) != i:
            raise AssertionError("call probe: wrong reply")
        rtts.append(time.perf_counter() - t0)
    out[f"{layer}.call_rtt_p50_us"] = median(rtts) * 1e6
    detects = []
    for _ in range(20):
        t0 = time.perf_counter()
        rt.run()
        detects.append(time.perf_counter() - t0)
    out[f"{layer}.quiesce_detect_ms"] = median(detects) * 1e3
    if mp:
        bulk = _relay_rounds(rt, BULK_PAYLOAD, 16, hops // 4, 3)
        small = _relay_rounds(rt, (), 16, hops // 4, 3)
        out["am.bulk.msg_us.mp"] = (bulk - small) * 1e6
    return out


def threaded_fib(budget: float) -> Dict[str, float]:
    n = 20
    cfg = RuntimeConfig(num_nodes=4, seed=1995, backend="threaded",
                        load_balance=LoadBalanceParams(enabled=True))
    with guard():
        rt = HalRuntime(cfg)
    try:
        rt.load(fib_program())
        target, box = rt.make_collector(from_node=0)
        t0 = time.perf_counter()
        rt.spawn_task("fib", n, target, 0, at=0)
        rt.run()
        wall = time.perf_counter() - t0
        if not box or box[0] != fib_value(n):
            raise AssertionError(f"threaded fib({n}) produced a wrong result")
    finally:
        rt.close()
    return {"platform.threaded.fib_us_per_task": wall / fib_calls(n) * 1e6}


# ----------------------------------------------------------------------
# am.bulk on the simulator, tracing
# ----------------------------------------------------------------------
def bulk_sim(budget: float) -> Dict[str, float]:
    hops = max(10, int(50 * budget / BUDGET_S))
    with runtime(num_nodes=4) as rt:
        bulk = _relay_rounds(rt, BULK_PAYLOAD, 16, hops, REPEATS)
        small = _relay_rounds(rt, (), 16, hops, REPEATS)
    return {"am.bulk.msg_us.sim": (bulk - small) * 1e6}


def tracing_overhead(budget: float) -> Dict[str, float]:
    """relay_traced.sim's ring untraced, head-sampled and at rate 1.0,
    bracketed off-on-on-off so drift cancels; median of the ratios."""
    journeys = max(100, int(400 * budget / BUDGET_S))
    hops = 12
    rigs: List[HalRuntime] = []
    rings: List[list] = []
    try:
        for trace, rate in ((False, 1.0), (True, TRACED_SAMPLE_RATE),
                            (True, 1.0)):
            with guard():
                rt = HalRuntime(
                    RuntimeConfig(num_nodes=8, seed=1995,
                                  tracing=TracingParams(sample_rate=rate)),
                    trace=trace)
            rigs.append(rt)
            rt.load_behaviors(Relay)
            rings.append(actors.spawn_ring(rt, 16))

        def one(i: int) -> float:
            rt, ring = rigs[i], rings[i]
            gc.collect()
            t0 = time.perf_counter()
            for j in range(journeys):
                rt.send(ring[j % 16], "relay", hops, ())
            rt.run()
            return time.perf_counter() - t0

        off, sampled, full = 0, 1, 2
        for i in range(3):
            one(i)
        sampled_pct, full_pct = [], []
        for _ in range(REPEATS):
            a, s, f, b = one(off), one(sampled), one(full), one(off)
            base = (a + b) / 2
            sampled_pct.append((s / base - 1) * 100)
            full_pct.append((f / base - 1) * 100)
    finally:
        for rt in rigs:
            rt.close()
    return {"tracing.sampled_overhead_pct": median(sampled_pct),
            "tracing.unsampled_overhead_pct": median(full_pct)}


PROBES: Tuple[Callable[[float], Dict[str, float]], ...] = (
    engine_post_pop, am_send_dispatch, delivery_send, execution_inline,
    calls_request_reply, creation, migration, migration_static_ratio,
    hal_compile, wireformat, shmring, bulk_sim, tracing_overhead,
    transports, threaded_fib,
)


def run_probes(spans: Spans, quick: bool = False) -> Dict[str, float]:
    """Every probe, each under a span; then the unattributed gap."""
    budget = BUDGET_S / 10 if quick else BUDGET_S
    out: Dict[str, float] = {}
    for probe in PROBES:
        with spans.span(probe.__name__):
            out.update(probe(budget))
    attributed = (
        out["runtime.delivery.remote_send_us"]
        + out["am.cmam.send_dispatch_us"]
        + out["platform.wireformat.encode_us_per_msg"]
        + out["platform.wireformat.decode_us_per_msg"]
        + out["platform.wireformat.payload_pickle_us.small"]
    )
    out["platform.mp.unattributed_us_per_msg"] = (
        out.pop("_mp_relay_cpu_us_per_msg") - attributed)
    return out


# ----------------------------------------------------------------------
# counts and ratios of the traced workload run
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    """``num / den``; 0 when the workload never exercised the layer."""
    return num / den if den else 0.0


def from_workload(traced: Dict[str, Any]) -> Dict[str, float]:
    """Exact per-layer counts of one workload's traced run, and the
    self time of the harness phases around it."""
    c = traced["counters"].get
    kops = traced["ops"] / 1000.0
    acct = traced["accounting"]
    inline = c("exec.inline_static", 0) + c("exec.inline_lookup", 0)
    deferred = (c("delivery.deferred_at_sender", 0)
                + c("delivery.deferred_at_manager", 0))
    out = {
        "sim.engine.events_per_op": _ratio(traced["events"], traced["ops"]),
        "am.reliable.acks_per_msg": _ratio(c("rel.ack_sent", 0),
                                           c("rel.envelopes", 0)),
        "am.reliable.retries_per_kmsg": _ratio(
            1000.0 * c("rel.retries", 0), c("rel.envelopes", 0)),
        "runtime.delivery.cached_addr_ratio": _ratio(
            c("delivery.sent_direct", 0),
            c("delivery.sent_direct", 0) + c("delivery.sent_keyed", 0)),
        "runtime.execution.workload_inline_ratio": _ratio(
            inline, inline + c("delivery.local_generic", 0)),
        "runtime.migration.fir_per_kop": _ratio(c("fir.initiated", 0), kops),
        "runtime.migration.relayed_per_fir": _ratio(c("fir.relayed", 0),
                                                    c("fir.initiated", 0)),
        "runtime.migration.deferred_per_kop": _ratio(deferred, kops),
        "runtime.loadbalance.grant_ratio": _ratio(c("steal.granted", 0),
                                                  c("steal.polls", 0)),
        "runtime.loadbalance.polls_per_kop": _ratio(c("steal.polls", 0), kops),
        "platform.wireformat.msgs_per_frame": _ratio(c("wire.messages", 0),
                                                     c("wire.frames", 0)),
        "platform.wireformat.bytes_per_msg": _ratio(c("wire.frame_bytes", 0),
                                                    c("wire.messages", 0)),
        "tracing.spans_per_kop": _ratio(acct.get("spans_recorded", 0), kops),
        "tracing.elided_ratio": _ratio(
            acct.get("spans_elided", 0),
            acct.get("spans_elided", 0) + acct.get("spans_recorded", 0)),
    }
    self_ms = traced["self_ms"]
    for phase in ("boot", "load", "populate", "inject", "drain", "verify",
                  "close"):
        out[f"perfbench.phase.{phase}_ms"] = median(self_ms.get(phase, [0.0]))
    # Computed from the measured cost of one span: the difference
    # between a run with spans and one without is a hundred times
    # smaller than the spread between two runs, so it cannot be read
    # off a pair of them.
    out["perfbench.span_overhead_pct"] = _ratio(
        traced["spans"] * traced["span_cost_us"] / 1e6,
        traced["lifetime_s"]) * 100
    return out


#: For every per-layer metric (``BENCHMARK.json`` has the same names, with
#: unit and direction): the end-to-end metric and workload it should move.
MOVES: Dict[str, str] = {
    "sim.engine.post_pop_us": "ops_per_s on fib.sim, chase.sim, relay_traced.sim",
    "sim.engine.events_per_op":
        "ops_per_s on *.sim; a drop with sim_us unchanged is a pure simulator win",
    "am.cmam.send_dispatch_us": "ops_per_s on every workload",
    "am.reliable.envelope_ack_us": "ops_per_s on relay.asyncio only",
    "am.reliable.acks_per_msg": "ops_per_s on relay.asyncio",
    "am.reliable.retries_per_kmsg": "must be 0 without a fault plan",
    "am.bulk.msg_us.sim": "none of the seven; makes a bulk-path change visible",
    "am.bulk.msg_us.mp": "none of the seven; makes a bulk-path change visible",
    "runtime.delivery.local_send_us": "ops_per_s on fib.sim, fib.mp",
    "runtime.delivery.remote_send_us": "ops_per_s on relay.*, chase.sim",
    "runtime.delivery.cached_addr_ratio": "ops_per_s and machine_us_per_op on chase.sim",
    "runtime.execution.inline_call_us": "ops_per_s on fib.sim, fib.mp",
    "runtime.execution.inline_hit_ratio": "ops_per_s on fib.sim, fib.mp; floor 0.95",
    "runtime.execution.workload_inline_ratio": "ops_per_s on the workload it was counted on",
    "runtime.calls.request_reply_us":
        "rtt_p50_us on echo.mp (its non-wire share), ops_per_s on chase.sim",
    "runtime.creation.local_create_us": "setup_s on relay.*, chase.sim",
    "runtime.creation.alias_create_us": "setup_s on relay.*, chase.sim",
    "runtime.migration.migrate_us": "ops_per_s on chase.sim",
    "runtime.migration.fir_per_kop": "machine_us_per_op and ops_per_s on chase.sim",
    "runtime.migration.relayed_per_fir": "machine_us_per_op and ops_per_s on chase.sim",
    "runtime.migration.deferred_per_kop": "machine_us_per_op and ops_per_s on chase.sim",
    "runtime.migration.static_ratio": "ops_per_s on chase.sim",
    "runtime.loadbalance.grant_ratio":
        "machine_us_per_op on fib.sim; ops_per_s, cpu_us_per_op on fib.mp",
    "runtime.loadbalance.polls_per_kop":
        "machine_us_per_op on fib.sim; ops_per_s, cpu_us_per_op on fib.mp",
    "hal.compile_ms": "setup_s on all",
    "platform.wireformat.encode_us_per_msg":
        "ops_per_s on relay.mp, relay.asyncio; rtt_p50_us on echo.mp",
    "platform.wireformat.decode_us_per_msg":
        "ops_per_s on relay.mp, relay.asyncio; rtt_p50_us on echo.mp",
    "platform.wireformat.payload_pickle_us.small":
        "ops_per_s on relay.mp, relay.asyncio; rtt_p50_us on echo.mp",
    "platform.wireformat.payload_pickle_us.48w":
        "ops_per_s on relay.mp, relay.asyncio with real payloads",
    "platform.wireformat.msgs_per_frame": "ops_per_s on relay.mp; about 1 on echo.mp",
    "platform.wireformat.bytes_per_msg": "ops_per_s on relay.mp; rtt_p50_us on echo.mp",
    "platform.shmring.copy_us_per_kb": "platform.mp.relay_us_per_msg.shm",
    "platform.mp.boot_s.pipe": "setup_s on *.mp",
    "platform.mp.boot_s.socket": "none of the seven; transport evidence",
    "platform.mp.boot_s.shm": "none of the seven; transport evidence",
    "platform.asyncio_net.boot_s.tcp": "setup_s on relay.asyncio",
    "platform.asyncio_net.boot_s.unix": "none of the seven; transport evidence",
    "platform.mp.command_rtt_us": "setup_s; the inject phase of relay.mp",
    "platform.mp.call_rtt_p50_us": "none of the seven; the external caller's latency",
    "platform.asyncio_net.call_rtt_p50_us": "none of the seven; the external caller's latency",
    "platform.mp.quiesce_detect_ms": "tail of every relay.mp, fib.mp round, so ops_per_s there",
    "platform.asyncio_net.quiesce_detect_ms": "tail of every relay.asyncio round",
    "platform.mp.relay_us_per_msg.pipe": "must agree with 1e6/ops_per_s on relay.mp",
    "platform.mp.relay_us_per_msg.socket": "evidence for keeping or deleting the transport",
    "platform.mp.relay_us_per_msg.shm": "evidence for keeping or deleting the transport",
    "platform.asyncio_net.relay_us_per_msg.tcp": "must agree with 1e6/ops_per_s on relay.asyncio",
    "platform.asyncio_net.relay_us_per_msg.unix": "evidence for keeping or deleting the transport",
    "platform.threaded.relay_us_per_msg": "none of the seven; the GIL-bound reference",
    "platform.threaded.fib_us_per_task": "none of the seven; see README Findings",
    "platform.mp.shutdown_ms": "none; must stay bounded",
    "platform.mp.unattributed_us_per_msg":
        "cpu_us_per_op on relay.mp: the worker loop, syscalls and Safra",
    "tracing.sampled_overhead_pct": "ops_per_s on relay_traced.sim",
    "tracing.unsampled_overhead_pct": "ops_per_s on relay_traced.sim at rate 1.0",
    "tracing.spans_per_kop": "ops_per_s on relay_traced.sim",
    "tracing.elided_ratio": "ops_per_s on relay_traced.sim",
    "perfbench.phase.boot_ms": "setup_s",
    "perfbench.phase.load_ms": "setup_s",
    "perfbench.phase.populate_ms": "setup_s",
    "perfbench.phase.inject_ms": "ops_per_s: the driver's command RPCs",
    "perfbench.phase.drain_ms": "ops_per_s: rt.run() to quiescence",
    "perfbench.phase.verify_ms": "none; outside the timed window",
    "perfbench.phase.close_ms": "cpu_us_per_op (workers are reaped here)",
    "perfbench.span_overhead_pct": "must stay under 2",
}
