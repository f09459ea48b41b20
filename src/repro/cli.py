"""Command-line interface: regenerate the paper's tables, inspect the
compiler, and export causal traces.

::

    python -m repro tables            # every table, small configs
    python -m repro table2            # just the runtime primitives
    python -m repro table4 --n 22 --nodes 16
    python -m repro compile-report    # what the HAL compiler decided
    python -m repro run fibonacci_loadbalance --backend threaded
    python -m repro trace migration_tour --out tour.json
    python -m repro stats fibonacci_loadbalance --json
    python -m repro faults migration_tour --seed 7 --drop 0.05 --dup 0.05
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.reporting import fmt_ms, fmt_s, fmt_us, render_hists, render_table


def _cmd_table1(args) -> None:
    from repro.apps.cholesky import VARIANTS, run_cholesky
    rows = []
    for p in args.partitions:
        results = {v: run_cholesky(v, args.n, p) for v in VARIANTS}
        rows.append([f"P={p}"] + [fmt_ms(results[v].elapsed_us) for v in VARIANTS])
    print(render_table(
        f"Table 1 — Cholesky decomposition, n={args.n} (simulated ms)",
        ["", *VARIANTS], rows,
        note="BP/CP: pipelined, local synchronization only; "
             "Seq/Bcast: global synchronization.",
    ))


def _cmd_table2(args) -> None:
    from repro.apps import microbench as mb
    rows = []
    rt = mb.fresh_runtime(4)
    rows.append(("local creation", fmt_us(mb.measure_local_creation(rt)), "-"))
    rt = mb.fresh_runtime(4)
    rows.append(("remote creation (issue, alias)",
                 fmt_us(mb.measure_remote_creation_issue(rt)), "5.83"))
    rt = mb.fresh_runtime(4)
    rows.append(("remote creation (actual)",
                 fmt_us(mb.measure_remote_creation_actual(rt)), "20.83"))
    rt = mb.fresh_runtime(4)
    rows.append(("locality check (local actor)",
                 fmt_us(mb.measure_locality_check(rt)), "< 1"))
    print(render_table(
        "Table 2 — runtime primitives (simulated us)",
        ["primitive", "measured", "paper"], rows,
    ))


def _cmd_table3(args) -> None:
    from repro.apps.microbench import measure_invocation_regimes
    regimes = measure_invocation_regimes()
    print(render_table(
        "Table 3 — method-invocation costs (simulated us)",
        ["dispatch mechanism", "us"],
        [(k, fmt_us(v)) for k, v in regimes.items()],
    ))


def _cmd_table4(args) -> None:
    from repro.apps.fibonacci import c_model_us, cilk_model_us, fib_calls, run_fib
    rows = []
    for p in args.partitions:
        static = run_fib(args.n, p, load_balance=False)
        lb = run_fib(args.n, p, load_balance=True) if p > 1 else None
        rows.append((f"P={p}", fmt_s(static.elapsed_us),
                     fmt_s(lb.elapsed_us) if lb else "-",
                     lb.steals if lb else 0))
    rows.append(("Cilk (modelled)", fmt_s(cilk_model_us(args.n)), "-", "-"))
    rows.append(("optimised C (modelled)", fmt_s(c_model_us(args.n)), "-", "-"))
    print(render_table(
        f"Table 4 — Fibonacci({args.n}) = {fib_calls(args.n):,} tasks "
        "(simulated s)",
        ["", "static", "load balancing", "steals"], rows,
    ))


def _cmd_table5(args) -> None:
    from repro.apps.systolic import run_systolic
    rows = []
    for p in args.partitions:
        q = int(p ** 0.5)
        if q * q != p:
            continue
        n = args.n - (args.n % q)
        r = run_systolic(n, p)
        rows.append((f"{n}x{n}", f"P={p}", fmt_s(r.elapsed_us),
                     f"{r.mflops:.1f}"))
    print(render_table(
        "Table 5 — systolic matrix multiplication (simulated)",
        ["matrix", "partition", "time (s)", "MFlops"], rows,
        note="paper: peaks at 434 MFlops for 1024x1024 on 64 nodes",
    ))


def _cmd_compile_report(args) -> None:
    from repro.actors.behavior import behavior_of
    from repro.hal.compiler import compile_behaviors
    from repro.apps.cholesky import cholesky_program
    from repro.apps.fibonacci import fib_program
    from repro.apps.systolic import systolic_program
    for program in (fib_program(), cholesky_program(), systolic_program()):
        behaviors = {
            behavior_of(cls).name: behavior_of(cls)
            for cls in program.behaviors
        }
        print(compile_behaviors(behaviors, name=program.name).report())
        print()


def _cmd_compile(args) -> None:
    """Compile one scenario's program ahead of run and print the
    per-behaviour dispatch-plan report."""
    import json
    from repro.apps.scenarios import scenario_program
    from repro.hal.compiler import compile_program
    try:
        program = scenario_program(args.app)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    compiled = compile_program(program, strict=not args.no_strict)
    if args.json:
        print(json.dumps(compiled.report_dict(), indent=2))
    else:
        print(compiled.report())


def _fault_plan(args):
    """Build a FaultPlan from the shared fault flags, or None when no
    fault rate was requested."""
    drop = getattr(args, "drop", 0.0)
    dup = getattr(args, "dup", 0.0)
    delay = getattr(args, "delay", 0.0)
    reorder = getattr(args, "reorder", 0.0)
    if not (drop or dup or delay or reorder):
        return None
    from repro.sim.faults import FaultPlan
    return FaultPlan.protocol_chaos(
        seed=getattr(args, "faults_seed", None),
        drop=drop, duplicate=dup, delay=delay, reorder=reorder,
    )


def _mp_params(args):
    """MpParams from the mp wire-path flags (None = config defaults)."""
    transport = getattr(args, "mp_transport", None)
    batch_bytes = getattr(args, "mp_batch_bytes", None)
    batch_msgs = getattr(args, "mp_batch_msgs", None)
    ring_bytes = getattr(args, "mp_ring_bytes", None)
    if (
        transport is None and batch_bytes is None
        and batch_msgs is None and ring_bytes is None
    ):
        return None
    from repro.config import MpParams
    defaults = MpParams()
    return MpParams(
        transport=transport or defaults.transport,
        batch_bytes=batch_bytes or defaults.batch_bytes,
        batch_max_msgs=batch_msgs or defaults.batch_max_msgs,
        ring_bytes=ring_bytes or defaults.ring_bytes,
    )


def _net_params(args):
    """NetParams from the asyncio socket-mesh flags (None = config
    defaults: ephemeral TCP on 127.0.0.1)."""
    transport = getattr(args, "net_transport", None)
    host = getattr(args, "net_host", None)
    port_base = getattr(args, "net_port_base", None)
    if transport is None and host is None and port_base is None:
        return None
    from repro.config import NetParams
    defaults = NetParams()
    return NetParams(
        transport=transport or defaults.transport,
        host=host or defaults.host,
        port_base=defaults.port_base if port_base is None else port_base,
    )


def _tracing_params(args):
    """TracingParams from the sampling flags (None = config defaults:
    rate 1.0, capacity 65536)."""
    rate = getattr(args, "sample_rate", None)
    capacity = getattr(args, "span_capacity", None)
    if rate is None and capacity is None:
        return None
    from repro.config import TracingParams
    defaults = TracingParams()
    return TracingParams(
        sample_rate=defaults.sample_rate if rate is None else rate,
        span_capacity=capacity or defaults.span_capacity,
    )


def _run_scenario_for_cli(args, faults=None):
    from repro.apps.scenarios import run_scenario
    try:
        return run_scenario(args.app, num_nodes=args.nodes, n=args.n,
                            seed=args.seed, faults=faults,
                            backend=getattr(args, "backend", "sim"),
                            mp=_mp_params(args),
                            net=_net_params(args),
                            tracing=_tracing_params(args))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_run(args) -> None:
    """Run a scenario on the selected execution backend and print its
    summary (the backend-parity smoke the acceptance criteria name)."""
    res = _run_scenario_for_cli(args)
    rt = res.runtime
    try:
        rows = [(k, str(v)) for k, v in sorted(res.summary.items())]
        rows.append(("backend", rt.config.backend))
        rows.append(("final actors", rt.total_actors()))
        rows.append(("quiescent", rt.quiescent()))
        print(render_table(
            f"Run — {args.app} (P={rt.num_nodes}, "
            f"backend={rt.config.backend})",
            ["", "value"], rows,
            note="elapsed_us is simulated time on backend=sim, "
                 "wall-clock time on backend=threaded/mp/asyncio",
        ))
    finally:
        rt.close()


def _cmd_trace(args) -> None:
    import json
    from collections import Counter
    from repro.timeline import chrome_trace, spans_jsonl

    backend = getattr(args, "backend", "sim")
    from repro.platform.capabilities import supports, unsupported_message
    if not supports(backend, "supports_tracing"):
        # Span recording needs a shared recorder, which per-process
        # nodes don't have; the message names the backends that do.
        raise SystemExit(
            "error: " + unsupported_message(backend, "supports_tracing")
        )

    res = _run_scenario_for_cli(args)
    rt = res.runtime
    try:
        spans = rt.spans.spans
        if args.format == "chrome":
            out = args.out or f"{args.app}_trace.json"
            payload = json.dumps(chrome_trace(spans))
        else:
            out = args.out or f"{args.app}_spans.jsonl"
            payload = spans_jsonl(spans)
        with open(out, "w") as fh:
            fh.write(payload)

        kinds = Counter(s.kind for s in spans)
        acct = rt.spans.accounting()
        rows = [(k, str(v)) for k, v in sorted(res.summary.items())]
        rows.append(("backend", backend))
        rows.append(("traces", len(rt.spans.trace_ids())))
        rows.append(("spans", len(spans)))
        rows.append(("spans recorded", acct["spans_recorded"]))
        rows.append(("spans elided (sampling)", acct["spans_elided"]))
        rows.append(("ring overwrites", acct["ring_overwrites"]))
        rows.append(("sample rate", acct["sample_rate"]))
        rows.extend((f"spans[{k}]", n) for k, n in sorted(kinds.items()))
        print(render_table(
            f"Trace — {args.app} (P={rt.num_nodes})",
            ["", "value"], rows,
            note=f"wrote {out} "
                 + ("(load in Perfetto / chrome://tracing)"
                    if args.format == "chrome" else "(one span per line)"),
        ))
    finally:
        rt.close()


#: Counter prefixes that tell the fault-injection / self-healing story:
#: what was injected, what the reliable layer retried and absorbed, and
#: which protocol watchdogs had to re-issue requests.
FAULT_PREFIXES = ("faults.", "rel.", "fir.", "migration.", "creation.")


def _cmd_stats(args) -> None:
    import json

    res = _run_scenario_for_cli(args, faults=_fault_plan(args))
    stats = res.runtime.stats
    if args.json:
        doc = stats.as_dict()
        doc["tracing"] = res.runtime.spans.accounting()
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    rows = [(k, str(v)) for k, v in sorted(res.summary.items())]
    print(render_table(
        f"Scenario — {args.app} (P={res.runtime.num_nodes})",
        ["", "value"], rows,
    ))
    print()
    fault_table = stats.table(prefixes=FAULT_PREFIXES)
    if fault_table != "(no counters)":
        print(fault_table)
        print()
    print(render_hists(stats))


def _cmd_faults(args) -> None:
    """Run a scenario under an injected fault plan, then audit the
    run's invariants and print the recovery counters."""
    from repro.errors import InvariantViolation
    from repro.sim.invariants import check_invariants

    plan = _fault_plan(args)
    res = _run_scenario_for_cli(args, faults=plan)
    rt = res.runtime
    try:
        try:
            report = check_invariants(rt)
        except InvariantViolation as exc:
            print(f"FAIL — {exc}", file=sys.stderr)
            backend = getattr(args, "backend", "sim")
            print(
                f"replay: python -m repro faults {args.app} --seed {args.seed}"
                f" --backend {backend}"
                f" --drop {args.drop} --dup {args.dup} --delay {args.delay}"
                + (f" --faults-seed {args.faults_seed}"
                   if args.faults_seed is not None else ""),
                file=sys.stderr,
            )
            raise SystemExit(1)

        rows = [(k, str(v)) for k, v in sorted(res.summary.items())]
        pk = report["packets"]
        rows.append(("packets", f"{pk['sends']} sent + {pk['duplicated']} dup "
                                f"- {pk['dropped']} dropped = {pk['delivered']} "
                                "delivered"))
        rows.append(("forwarding chains", f"{report['chains_checked']} checked, "
                                          f"max {report['max_chain_hops']} hops"))
        rows.append(("invariants", "OK"))
        print(render_table(
            f"Faults — {args.app} (P={rt.num_nodes}, "
            f"drop={args.drop} dup={args.dup} delay={args.delay})",
            ["", "value"], rows,
            note="packet conservation, chain convergence, quiescence, "
                 "birthplace back-patching all verified",
        ))
        print()
        print(rt.stats.table(prefixes=FAULT_PREFIXES))
    finally:
        rt.close()


def _cmd_tables(args) -> None:
    for fn in (_cmd_table1, _cmd_table2, _cmd_table3, _cmd_table4, _cmd_table5):
        fn(args)
        print()


def _partitions(value: str) -> List[int]:
    return [int(x) for x in value.split(",")]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tables of Kim & Agha (SC '95) on the "
                    "simulated HAL runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "tables": (_cmd_tables, 96, "4,8,16"),
        "table1": (_cmd_table1, 96, "4,8,16"),
        "table2": (_cmd_table2, 0, "4"),
        "table3": (_cmd_table3, 0, "4"),
        "table4": (_cmd_table4, 18, "1,4,8,16"),
        "table5": (_cmd_table5, 256, "4,16,64"),
        "compile-report": (_cmd_compile_report, 0, "4"),
    }
    for name, (fn, default_n, default_p) in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=default_n,
                       help="problem size (table-specific)")
        p.add_argument("--partitions", type=_partitions, default=_partitions(default_p),
                       help="comma-separated node counts")
        p.set_defaults(fn=fn)

    # Ahead-of-run compilation: dispatch plans + continuation summary.
    p = sub.add_parser(
        "compile",
        help="compile a scenario's behaviours without running it and "
             "print the per-behaviour dispatch-plan report: static/"
             "lookup/generic send sites, demotion reasons, and the "
             "continuation splits each frontend produced",
    )
    p.add_argument("app", help="scenario name")
    p.add_argument("--report", action="store_true",
                   help="print the human-readable report (the default)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as structured JSON instead")
    p.add_argument("--no-strict", action="store_true",
                   help="don't fail on sends whose inferred receiver "
                        "types declare no such method")
    p.set_defaults(fn=_cmd_compile)

    # Execution: run a scenario on a chosen backend.
    p = sub.add_parser(
        "run",
        help="run a scenario on an execution backend and print its "
             "summary (ping_pong, migration_tour, fibonacci_loadbalance)",
    )
    def add_mp_flags(p):
        p.add_argument("--mp-transport", choices=("pipe", "socket", "shm"),
                       default=None,
                       help="mp interconnect: full-mesh duplex pipes "
                            "(default), UNIX-domain socketpairs, or "
                            "shared-memory SPSC rings (no kernel copy)")
        p.add_argument("--mp-batch-bytes", type=int, default=None,
                       help="mp: flush a destination's frame at this many "
                            "buffered bytes (default 32768)")
        p.add_argument("--mp-batch-msgs", type=int, default=None,
                       help="mp: ... or at this many buffered messages "
                            "(default 128)")
        p.add_argument("--mp-ring-bytes", type=int, default=None,
                       help="mp shm: data capacity of each per-edge ring "
                            "in bytes (default 262144; larger frames "
                            "cross in chunks)")

    def add_net_flags(p):
        p.add_argument("--net-transport", choices=("tcp", "unix"),
                       default=None,
                       help="asyncio socket mesh: real TCP listeners "
                            "(default) or single-host UNIX-domain sockets")
        p.add_argument("--net-host", default=None,
                       help="asyncio tcp: interface the per-node listeners "
                            "bind (default 127.0.0.1)")
        p.add_argument("--net-port-base", type=int, default=None,
                       help="asyncio tcp: node i listens on port_base+i "
                            "(default 0 = ephemeral ports, addresses "
                            "distributed by the driver)")

    p.add_argument("app", help="scenario name")
    p.add_argument("--backend", choices=("sim", "threaded", "mp", "asyncio"),
                   default="sim",
                   help="sim: deterministic discrete-event simulator; "
                        "threaded: real-time, one OS thread per node; "
                        "mp: one OS process per node, batched binary "
                        "frames, token-ring quiescence; asyncio: one "
                        "process per node over a TCP/UNIX socket mesh")
    add_mp_flags(p)
    add_net_flags(p)
    p.add_argument("--nodes", type=int, default=None, help="partition size")
    p.add_argument("--n", type=int, default=None,
                   help="problem size (scenario-specific)")
    p.add_argument("--seed", type=int, default=1995)
    p.set_defaults(fn=_cmd_run)

    # Observability: run a traced scenario, export/inspect its spans.
    def add_tracing_flags(p):
        p.add_argument("--sample-rate", type=float, default=None,
                       help="head-sampling rate in [0, 1]: the fraction of "
                            "traces whose spans are recorded (decided once "
                            "per trace at its root; error/retransmit paths "
                            "are always kept; default 1.0 = keep all)")
        p.add_argument("--span-capacity", type=int, default=None,
                       help="span ring-buffer capacity; when full the "
                            "oldest spans are overwritten (default 65536)")

    p = sub.add_parser(
        "trace",
        help="run a scenario with causal tracing and export the span "
             "timeline (migration_tour, fibonacci_loadbalance)",
    )
    p.add_argument("app", help="scenario name")
    p.add_argument("--backend", choices=("sim", "threaded", "mp"),
                   default="sim",
                   help="execution backend to trace (mp records no spans "
                        "and is refused)")
    p.add_argument("--nodes", type=int, default=None, help="partition size")
    p.add_argument("--n", type=int, default=None,
                   help="problem size (scenario-specific)")
    p.add_argument("--seed", type=int, default=1995)
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("chrome", "jsonl"), default="chrome",
                   help="chrome: trace-event JSON for Perfetto; "
                        "jsonl: one span per line")
    add_tracing_flags(p)
    p.set_defaults(fn=_cmd_trace)

    def add_fault_flags(p, *, drop=0.0, dup=0.0, delay=0.0):
        p.add_argument("--drop", type=float, default=drop,
                       help="per-packet drop probability for protocol kinds")
        p.add_argument("--dup", type=float, default=dup,
                       help="per-packet duplication probability")
        p.add_argument("--delay", type=float, default=delay,
                       help="per-packet extra-delay probability")
        p.add_argument("--reorder", type=float, default=0.0,
                       help="per-packet reorder probability")
        p.add_argument("--faults-seed", type=int, default=None,
                       help="fault RNG seed (default: derived from --seed)")

    p = sub.add_parser(
        "stats",
        help="run a traced scenario and print its latency histograms",
    )
    p.add_argument("app", help="scenario name")
    p.add_argument("--nodes", type=int, default=None, help="partition size")
    p.add_argument("--n", type=int, default=None,
                   help="problem size (scenario-specific)")
    p.add_argument("--seed", type=int, default=1995)
    p.add_argument("--json", action="store_true",
                   help="dump the full stats registry as JSON (plus span "
                        "sampling/ring accounting under 'tracing')")
    add_fault_flags(p)
    add_tracing_flags(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "faults",
        help="run a scenario under deterministic fault injection and "
             "audit the run's invariants (exit 1 on violation)",
    )
    p.add_argument("app", help="scenario name")
    p.add_argument("--backend", choices=("sim", "mp", "asyncio"),
                   default="sim",
                   help="backend to inject on: sim (fully deterministic), "
                        "mp or asyncio (per-(seed, node) deterministic "
                        "draw streams; audit runs on merged exact "
                        "counters)")
    add_mp_flags(p)
    add_net_flags(p)
    p.add_argument("--nodes", type=int, default=None, help="partition size")
    p.add_argument("--n", type=int, default=None,
                   help="problem size (scenario-specific)")
    p.add_argument("--seed", type=int, default=1995)
    add_fault_flags(p, drop=0.05, dup=0.05, delay=0.05)
    p.set_defaults(fn=_cmd_faults)

    args = parser.parse_args(argv)
    if args.command == "tables":
        # `tables` runs every table with its own default problem size.
        for name in ("table1", "table2", "table3", "table4", "table5"):
            fn, default_n, default_p = specs[name]
            fn(argparse.Namespace(n=default_n, partitions=_partitions(default_p)))
            print()
        return 0
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
