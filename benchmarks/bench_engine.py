#!/usr/bin/env python
"""Engine throughput benchmark: host events/sec, before vs after.

Two pure-engine microbenchmarks (ping-pong and fan-out) run on both the
overhauled engine (:mod:`repro.sim.engine`) and the vendored seed
engine (:mod:`_seed_engine`), so the reported speedup is measured in
one process on one machine.  Two application workloads (fibonacci and
systolic matmul) then time the full runtime stack on the current
engine, tracking the whole-system events/sec trajectory from PR to PR.

Results are written as JSON (default: ``BENCH_engine.json`` at the
repo root) and printed as a table.  Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full run
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # smoke sizes

The tier-1 suite never runs this module's timed loops; the pytest
companion lives behind the ``bench`` marker (see pyproject.toml).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Callable, Dict, List, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO_ROOT = os.path.dirname(_HERE)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
_SRC = os.path.join(_REPO_ROOT, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from _seed_engine import SeedSimNode, SeedSimulator  # noqa: E402

from repro.sim.engine import SimNode, Simulator  # noqa: E402

#: Bump when the JSON layout changes.
SCHEMA = "bench_engine/v1"

DEFAULT_OUT = os.path.join(_REPO_ROOT, "BENCH_engine.json")

#: Simulated inter-hop latency for the microbenchmarks (value is
#: irrelevant to throughput; it only spaces the virtual clock).
HOP_US = 0.5


# ----------------------------------------------------------------------
# pure-engine microbenchmarks (seed vs current)
# ----------------------------------------------------------------------
def seed_pingpong(rounds: int) -> int:
    """Two nodes volley one message; the seed engine's closure style."""
    sim = SeedSimulator()
    nodes = [SeedSimNode(0, sim), SeedSimNode(1, sim)]

    def hop(me: int, peer: int, n: int) -> None:
        nodes[me].charge(0.1)
        if n > 0:
            nodes[peer].execute_preempting(
                sim.now + HOP_US, lambda: hop(peer, me, n - 1), label="pingpong"
            )

    sim.schedule(0.0, lambda: hop(0, 1, rounds), label="pingpong")
    sim.run()
    return sim.events_executed


def new_pingpong(rounds: int) -> int:
    """The same volley on the overhauled engine's args pass-through."""
    sim = Simulator()
    nodes = [SimNode(0, sim), SimNode(1, sim)]

    def hop(me: int, peer: int, n: int) -> None:
        nodes[me].charge(0.1)
        if n > 0:
            nodes[peer].post_preempting(sim.now + HOP_US, hop, (peer, me, n - 1))

    nodes[0].post(0.0, hop, (0, 1, rounds))
    sim.run()
    return sim.events_executed


def seed_fanout(total: int, width: int = 64) -> int:
    """One generator scatters bursts over ``width`` nodes (seed style)."""
    sim = SeedSimulator()
    nodes = [SeedSimNode(i, sim) for i in range(width)]
    burst = width
    remaining = [total]

    def spray() -> None:
        n = min(burst, remaining[0])
        remaining[0] -= n
        t = sim.now + HOP_US
        for i in range(n):
            node = nodes[i % width]
            node.execute(t, lambda node=node: node.charge(0.1), label="fan")
        if remaining[0] > 0:
            sim.schedule(t, spray, label="spray")

    sim.schedule(0.0, spray, label="spray")
    sim.run()
    return sim.events_executed


def new_fanout(total: int, width: int = 64) -> int:
    """The same scatter on the overhauled engine."""
    sim = Simulator()
    nodes = [SimNode(i, sim) for i in range(width)]
    burst = width
    remaining = [total]

    def spray() -> None:
        n = min(burst, remaining[0])
        remaining[0] -= n
        t = sim.now + HOP_US
        for i in range(n):
            node = nodes[i % width]
            node.post(t, node.charge, (0.1,))
        if remaining[0] > 0:
            sim.post(t, spray)

    sim.post(0.0, spray)
    sim.run()
    return sim.events_executed


def _time_best(fn: Callable[[], int], repeats: int) -> Tuple[int, float]:
    """Run ``fn`` ``repeats`` times; return (events, best wall seconds)."""
    best = float("inf")
    events = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        events = fn()
        wall = time.perf_counter() - t0
        if wall < best:
            best = wall
    return events, best


def run_micro(name: str, seed_fn, new_fn, size: int, repeats: int) -> Dict:
    seed_events, seed_wall = _time_best(lambda: seed_fn(size), repeats)
    new_events, new_wall = _time_best(lambda: new_fn(size), repeats)
    if seed_events != new_events:
        raise AssertionError(
            f"{name}: engines disagree on event count "
            f"(seed={seed_events}, current={new_events})"
        )
    seed_eps = seed_events / seed_wall if seed_wall > 0 else 0.0
    new_eps = new_events / new_wall if new_wall > 0 else 0.0
    return {
        "events": new_events,
        "seed": {"wall_s": round(seed_wall, 6), "events_per_sec": round(seed_eps)},
        "current": {"wall_s": round(new_wall, 6), "events_per_sec": round(new_eps)},
        "speedup": round(new_eps / seed_eps, 3) if seed_eps else None,
    }


# ----------------------------------------------------------------------
# full-stack application workloads (current engine only)
# ----------------------------------------------------------------------
def run_fib_app(n: int, num_nodes: int, *, trace: bool = False,
                backend: str = "sim", transport: str = "pipe") -> Dict:
    """fib(n) with dynamic load balancing — the §7.2 workload shape.

    ``transport`` selects the mp backend's interconnect ("pipe" or
    "socket"); other backends ignore it.
    """
    from repro.apps.fibonacci import fib_program, fib_value
    from repro.config import LoadBalanceParams, MpParams, RuntimeConfig
    from repro.runtime.system import HalRuntime

    cfg = RuntimeConfig(num_nodes=num_nodes, seed=1995, backend=backend,
                        load_balance=LoadBalanceParams(enabled=True),
                        mp=MpParams(transport=transport))
    t0 = time.perf_counter()
    rt = HalRuntime(cfg, trace=trace)
    try:
        rt.load(fib_program())
        target, box = rt.make_collector(from_node=0)
        rt.spawn_task("fib", n, target, 0, at=0)
        rt.run()
        wall = time.perf_counter() - t0
        if not box or box[0] != fib_value(n):
            raise AssertionError(f"fib({n}) benchmark produced a wrong result")
        events = rt.machine.events_executed
        return {
            "n": n,
            "nodes": num_nodes,
            "backend": backend,
            "wall_s": round(wall, 6),
            "sim_events": events,
            "events_per_sec": round(events / wall) if wall > 0 else 0,
            "sim_time_us": round(rt.now, 3),
        }
    finally:
        rt.close()


def run_systolic_app(n: int, num_nodes: int) -> Dict:
    """Cannon matmul on a sqrt(P) x sqrt(P) grid — the §7.3 workload.

    Mirrors :func:`repro.apps.systolic.run_systolic` but keeps the
    runtime in hand for the event counter and skips the O(n^3) NumPy
    verification (correctness is tier-1's job, not the benchmark's).
    """
    import math

    from repro.apps.systolic import BlockActor, GridCoordinator, systolic_program
    from repro.config import RuntimeConfig
    from repro.runtime.system import HalRuntime

    q = int(math.isqrt(num_nodes))
    if q * q != num_nodes or n % q != 0:
        raise ValueError(f"bad systolic geometry: n={n}, nodes={num_nodes}")
    t0 = time.perf_counter()
    rt = HalRuntime(RuntimeConfig(num_nodes=num_nodes, seed=11))
    rt.load(systolic_program())
    group = rt.grpnew(BlockActor, num_nodes, n, q, 11, placement="cyclic")
    coord = rt.spawn(GridCoordinator, num_nodes, at=0)
    rt.run()
    sim_start = rt.now
    rt.broadcast(group, "start", coord)
    done = rt.call(coord, "run", 0)
    rt.run()
    wall = time.perf_counter() - t0
    if done != num_nodes:
        raise AssertionError(f"systolic finished {done}/{num_nodes} cells")
    events = rt.machine.events_executed
    return {
        "n": n,
        "nodes": num_nodes,
        "wall_s": round(wall, 6),
        "sim_events": events,
        "events_per_sec": round(events / wall) if wall > 0 else 0,
        "sim_time_us": round(rt.now - sim_start, 3),
    }


def run_dispatch_app(n: int) -> Dict:
    """The naive actor form of fib(n) on one node: every request the
    compiler planned static is eligible for inline stack dispatch.

    One node on purpose — the workload measures the *dispatch* path,
    and the actor form scatters children round-robin, so any p > 1
    makes most sends remote and the hit rate a placement artefact.
    ``local_hit_rate`` is the fraction of local deliveries that took
    the compiled inline path (static or lookup) instead of the generic
    mailbox path; it is regression-gated (see check_regression.py).
    """
    from repro.apps.fibonacci import FibActor, fib_program, fib_value
    from repro.config import RuntimeConfig
    from repro.runtime.system import HalRuntime

    t0 = time.perf_counter()
    rt = HalRuntime(RuntimeConfig(num_nodes=1, seed=1995))
    try:
        rt.load(fib_program())
        root = rt.spawn(FibActor, at=0)
        value = rt.call(root, "compute", n)
        wall = time.perf_counter() - t0
        if value != fib_value(n):
            raise AssertionError(f"dispatch benchmark: fib({n}) = {value}")
        inline_static = rt.stats.counter("exec.inline_static")
        inline_lookup = rt.stats.counter("exec.inline_lookup")
        local_generic = rt.stats.counter("delivery.local_generic")
        inline = inline_static + inline_lookup
        local = inline + local_generic
        events = rt.machine.events_executed
        return {
            "n": n,
            "nodes": 1,
            "wall_s": round(wall, 6),
            "sim_events": events,
            "events_per_sec": round(events / wall) if wall > 0 else 0,
            "sim_time_us": round(rt.now, 3),
            "inline_static": inline_static,
            "inline_lookup": inline_lookup,
            "inline_refused": rt.stats.counter("exec.inline_refused"),
            "local_generic": local_generic,
            "local_hit_rate": round(inline / local, 4) if local else 0.0,
        }
    finally:
        rt.close()


#: Head-sampling rate the always-on tracing bench runs at: one traced
#: journey in 16 keeps its spans, the rest pay only the elision branch.
TRACING_SAMPLE_RATE = 1.0 / 16


#: Words of payload each traffic journey carries (and each relay hop
#: checksums).  Sized so the workload models a store-and-forward
#: service doing real per-message work, not a null RPC — while staying
#: under ``bulk_threshold_bytes`` so hops use the plain AM path.  The
#: overhead budget is defined against this reference workload, and the
#: raw off/on events/sec stay in the JSON so the absolute tracing cost
#: per message is still recoverable from the numbers.
TRAFFIC_PAYLOAD_WORDS = 48


def run_traffic_app(journeys: int, hops: int, num_nodes: int, *,
                    trace: bool, sample_rate: float = 1.0) -> Dict:
    """``journeys`` independent message journeys of ``hops`` cross-node
    hops each, relayed around a ring of actors.

    Unlike fibonacci — whose whole task tree is ONE causal trace, so a
    per-trace sampling decision is all-or-nothing — every driver
    injection here roots its own trace.  That is the traffic shape head
    sampling is for: at rate 1/16, ~15 of 16 journeys take only the
    elision branch through the span hot path.

    Each relay folds the forwarded payload into a rolling Fletcher
    checksum — the per-hop application work of a store-and-forward
    service — so ``overhead_pct`` is tracing cost relative to actors
    that process their messages, not relative to an empty method body.
    """
    from repro.config import RuntimeConfig, TracingParams
    from repro.hal.dsl import behavior, method
    from repro.runtime.system import HalRuntime

    @behavior
    class BenchRelay:
        def __init__(self):
            self.hits = 0
            self.check_a = 0
            self.check_b = 0
            self.peer = None

        @method
        def set_peer(self, ctx, peer):
            self.peer = peer

        @method
        def relay(self, ctx, remaining, payload):
            # The store-and-forward work of an integrity-checking
            # relay: verify the Fletcher checksum of what arrived,
            # then fold it into the rolling restamp before forwarding.
            a = b = 0
            for v in payload:
                a = (a + v) & 0xFFFF
                b = (b + a) & 0xFFFF
            ca = self.check_a
            cb = self.check_b
            for v in payload:
                ca = (ca + v + a) & 0xFFFF
                cb = (cb + ca + b) & 0xFFFF
            self.check_a = ca
            self.check_b = cb
            self.hits += 1
            if remaining > 0:
                ctx.send(self.peer, "relay", remaining - 1, payload)

        @method
        def score(self, ctx):
            return self.hits

    cfg = RuntimeConfig(num_nodes=num_nodes, seed=1995,
                        tracing=TracingParams(sample_rate=sample_rate))
    rt = HalRuntime(cfg, trace=trace)
    try:
        rt.load_behaviors(BenchRelay)
        k = 2 * num_nodes  # cyclic ring: adjacent relays on adjacent nodes
        actors = [rt.spawn(BenchRelay, at=i % num_nodes) for i in range(k)]
        for i, a in enumerate(actors):
            rt.send(a, "set_peer", actors[(i + 1) % k])
        rt.run()
        payload = tuple(range(3, 3 + TRAFFIC_PAYLOAD_WORDS))
        events_before = rt.machine.events_executed
        # pyperf-style hygiene for the timed region: the traced
        # configurations allocate a few more objects per message, and
        # letting the collector run inside the window would charge its
        # cycles to whichever configuration happened to trigger them.
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()  # setup excluded: traffic phase only
        try:
            for j in range(journeys):
                rt.send(actors[j % k], "relay", hops, payload)
            rt.run()
            wall = time.perf_counter() - t0
        finally:
            if gc_was_enabled:
                gc.enable()
        events = rt.machine.events_executed - events_before
        acct = rt.spans.accounting()
        hists = rt.stats.as_dict().get("hists", {})
        delivered = sum(rt.call(a, "score") for a in actors)
        expected = journeys * (hops + 1)
        if delivered != expected:
            raise AssertionError(
                f"traffic benchmark lost messages: {delivered} != {expected}"
            )
        return {
            "journeys": journeys,
            "hops": hops,
            "nodes": num_nodes,
            "wall_s": round(wall, 6),
            "sim_events": events,
            "events_per_sec": round(events / wall) if wall > 0 else 0,
            "sim_time_us": round(rt.now, 3),
            "spans_recorded": acct["spans_recorded"],
            "spans_elided": acct["spans_elided"],
            "traces_started": acct["traces_started"],
            "traces_sampled": acct["traces_sampled"],
            "hists": hists,
        }
    finally:
        rt.close()


def run_tracing_overhead(journeys: int, hops: int, num_nodes: int, *,
                         repeats: int = 1) -> Dict:
    """The traffic workload with tracing off, on (head-sampled at
    1/16), and on-unsampled (rate 1.0, the old always-record mode).

    ``overhead_pct`` — the bench-gated number — is the throughput cost
    of the *sampled* always-on configuration over the untraced
    baseline; the unsampled run is kept as the reference it was cut
    from.  The run also audits the design's two invariants: tracing
    must not perturb simulated time, and the latency histograms must be
    bit-identical at any sample rate (they are exact and unsampled).

    Measurement methodology (shared CI runners drift by tens of
    percent between moments): each round brackets the traced runs with
    an untraced run on either side and uses the bracket mean as that
    round's baseline — controlling linear drift — and the gated number
    is the *median* of the per-round overhead ratios, which rejects
    the occasional round that lands on a noise burst.  Per-config
    throughputs reported alongside are each config's best round, i.e.
    its least noise-contaminated absolute speed.
    """
    rounds = max(1, repeats)
    best: Dict[str, Dict] = {}

    def keep_best(name: str, r: Dict) -> None:
        cur = best.get(name)
        if cur is None or r["events_per_sec"] > cur["events_per_sec"]:
            best[name] = r

    p_on: list = []
    p_unsampled: list = []
    for _ in range(rounds):
        off = run_traffic_app(journeys, hops, num_nodes, trace=False)
        on = run_traffic_app(journeys, hops, num_nodes, trace=True,
                             sample_rate=TRACING_SAMPLE_RATE)
        unsampled = run_traffic_app(journeys, hops, num_nodes, trace=True,
                                    sample_rate=1.0)
        off2 = run_traffic_app(journeys, hops, num_nodes, trace=False)

        for other in (on, unsampled):
            if off["sim_time_us"] != other["sim_time_us"]:
                raise AssertionError(
                    "tracing perturbed the simulation: "
                    f"{off['sim_time_us']} != {other['sim_time_us']} "
                    "simulated us"
                )
        if on["hists"] != unsampled["hists"]:
            raise AssertionError(
                "head sampling perturbed the latency histograms; they "
                "must stay exact and unsampled at any rate"
            )
        if on["spans_recorded"] <= 0 or on["spans_elided"] <= 0:
            raise AssertionError(
                "sampled tracing run should both record and elide spans, "
                f"got recorded={on['spans_recorded']} "
                f"elided={on['spans_elided']}"
            )

        base = (off["events_per_sec"] + off2["events_per_sec"]) / 2.0
        if base > 0:
            p_on.append((base - on["events_per_sec"]) / base * 100.0)
            p_unsampled.append(
                (base - unsampled["events_per_sec"]) / base * 100.0)
        keep_best("off", off)
        keep_best("off", off2)
        keep_best("on", on)
        keep_best("unsampled", unsampled)

    for r in best.values():
        r.pop("hists")  # bulky, and only needed for the equality audit

    def median(xs: list) -> float:
        s = sorted(xs)
        n = len(s)
        if not n:
            return 0.0
        mid = n // 2
        return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0

    return {
        "off": best["off"],
        "on": best["on"],
        "unsampled": best["unsampled"],
        "sample_rate": TRACING_SAMPLE_RATE,
        "rounds": rounds,
        "overhead_pct": round(median(p_on), 2),
        "unsampled_overhead_pct": round(median(p_unsampled), 2),
    }


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_bench(*, quick: bool = False, repeats: int = 3,
              skip_apps: bool = False) -> Dict:
    if quick:
        pp_rounds, fan_total, fib_n, sys_n, repeats = 2_000, 4_000, 10, 8, 1
        tr_journeys, tr_hops = 60, 4
    else:
        pp_rounds, fan_total, fib_n, sys_n = 150_000, 300_000, 18, 32
        tr_journeys, tr_hops = 1_200, 12
        repeats = max(1, repeats)

    results: Dict = {
        "schema": SCHEMA,
        "created_unix": int(time.time()),
        "python": sys.version.split()[0],
        "quick": quick,
        "pingpong": run_micro("pingpong", seed_pingpong, new_pingpong,
                              pp_rounds, repeats),
        "fanout": run_micro("fanout", seed_fanout, new_fanout,
                            fan_total, repeats),
    }
    if not skip_apps:
        results["apps"] = {
            "fibonacci": run_fib_app(fib_n, num_nodes=8),
            "systolic": run_systolic_app(sys_n, num_nodes=16),
        }
        # Compiled dispatch: actor-form fib on one node, counting how
        # many local deliveries the static/lookup plans turned into
        # direct stack invocations.
        results["dispatch"] = run_dispatch_app(10 if quick else 16)
        # The gated overhead number is a median of per-round ratios;
        # give it at least 5 rounds in full mode so one noisy round on
        # a shared runner cannot swing the gate.
        results["tracing"] = run_tracing_overhead(
            tr_journeys, tr_hops, num_nodes=8,
            repeats=repeats if quick else max(repeats, 5),
        )
        # Real-time threaded backend on the same fib workload.
        results["backend_threaded"] = run_fib_app(
            fib_n, num_nodes=4, backend="threaded"
        )
        # Process-per-node backend on the same workload: the only case
        # where node execution escapes the GIL.  Batched binary frames
        # over the default pipe mesh, and the same wire path over the
        # UNIX-domain socket mesh.  Both ARE regression-gated now that
        # the batched path landed (generous threshold absorbs host
        # scheduling noise; see GATED in check_regression.py).
        results["backend_mp"] = run_fib_app(
            fib_n, num_nodes=4, backend="mp"
        )
        results["backend_mp_socket"] = run_fib_app(
            fib_n, num_nodes=4, backend="mp", transport="socket"
        )
        # Shared-memory rings: the kernel-copy-free path.  Its win over
        # the socket mesh needs cores actually running in parallel —
        # on a single-CPU host everything is time-sliced and the
        # socket mesh's kernel-mediated wakeups edge it out, so the
        # committed baseline only gates shm against itself (see
        # check_regression.py); the multi-core crossover is unavailable
        # on the recording host.
        results["backend_mp_shm"] = run_fib_app(
            fib_n, num_nodes=4, backend="mp", transport="shm"
        )
        # Socket-cluster backend: the same worker loop and frames over
        # a real TCP mesh, so this row prices loopback TCP on top of
        # the mp wire path.  Ungated on first landing — recorded for
        # trend visibility until a few nightlies establish its noise
        # band (see check_regression.py).
        results["backend_asyncio"] = run_fib_app(
            fib_n, num_nodes=4, backend="asyncio"
        )
    return results


def render(results: Dict) -> str:
    lines = ["engine throughput (host events/sec)",
             "===================================="]
    for name in ("pingpong", "fanout"):
        r = results[name]
        lines.append(
            f"{name:<10} events={r['events']:>9,}  "
            f"seed={r['seed']['events_per_sec']:>11,}/s  "
            f"current={r['current']['events_per_sec']:>11,}/s  "
            f"speedup={r['speedup']:.2f}x"
        )
    for name, r in results.get("apps", {}).items():
        lines.append(
            f"app:{name:<9} n={r['n']:<4} nodes={r['nodes']:<3} "
            f"sim_events={r['sim_events']:>9,}  "
            f"host={r['events_per_sec']:>11,} ev/s"
        )
    dp = results.get("dispatch")
    if dp:
        lines.append(
            f"dispatch   n={dp['n']:<4} nodes={dp['nodes']:<3} "
            f"inline={dp['inline_static'] + dp['inline_lookup']:>9,}  "
            f"generic={dp['local_generic']:>7,}  "
            f"local_hit_rate={dp['local_hit_rate']:.2%}"
        )
    tr = results.get("tracing")
    if tr:
        lines.append(
            f"tracing    off={tr['off']['events_per_sec']:>11,}/s  "
            f"on={tr['on']['events_per_sec']:>11,}/s  "
            f"overhead={tr['overhead_pct']:.1f}% "
            f"(unsampled {tr['unsampled_overhead_pct']:.1f}%, "
            f"rate {tr['sample_rate']:.4f}, "
            f"{tr['on']['spans_recorded']:,} spans kept)"
        )
    bt = results.get("backend_threaded")
    if bt:
        lines.append(
            f"threaded   n={bt['n']:<4} nodes={bt['nodes']:<3} "
            f"events={bt['sim_events']:>9,}  "
            f"host={bt['events_per_sec']:>11,} ev/s"
        )
    bm = results.get("backend_mp")
    if bm:
        lines.append(
            f"mp/pipe    n={bm['n']:<4} nodes={bm['nodes']:<3} "
            f"events={bm['sim_events']:>9,}  "
            f"host={bm['events_per_sec']:>11,} ev/s"
        )
    bs = results.get("backend_mp_socket")
    if bs:
        lines.append(
            f"mp/socket  n={bs['n']:<4} nodes={bs['nodes']:<3} "
            f"events={bs['sim_events']:>9,}  "
            f"host={bs['events_per_sec']:>11,} ev/s"
        )
    bh = results.get("backend_mp_shm")
    if bh:
        lines.append(
            f"mp/shm     n={bh['n']:<4} nodes={bh['nodes']:<3} "
            f"events={bh['sim_events']:>9,}  "
            f"host={bh['events_per_sec']:>11,} ev/s"
        )
    ba = results.get("backend_asyncio")
    if ba:
        lines.append(
            f"asyncio    n={ba['n']:<4} nodes={ba['nodes']:<3} "
            f"events={ba['sim_events']:>9,}  "
            f"host={ba['events_per_sec']:>11,} ev/s"
        )
    return "\n".join(lines)


def main(argv: List[str] | None = None) -> Dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help="output JSON path (default: repo-root BENCH_engine.json)")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, one repeat (smoke-test mode)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats per microbenchmark (best-of)")
    ap.add_argument("--skip-apps", action="store_true",
                    help="microbenchmarks only")
    args = ap.parse_args(argv)

    results = run_bench(quick=args.quick, repeats=args.repeats,
                        skip_apps=args.skip_apps)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(render(results))
    print(f"\nwrote {args.out}")
    return results


if __name__ == "__main__":
    main()
