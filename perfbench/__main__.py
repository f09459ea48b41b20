"""``python -m perfbench run | layers | compare | selfcheck``.

Every workload executes in its own fresh Python process
(``perfbench/run.py``): clean collector state, its own ``ru_maxrss``,
and a crash or a hang in one workload costs only that workload.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import signal
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

from perfbench.run import add_paths

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "run.py")
SCHEMA = "perfbench/v1"
#: Seconds of timed rounds per workload: seven workloads in about 50 s.
RUN_SECONDS = 3.0
#: ... and for the traced re-runs of ``layers``.
LAYERS_SECONDS = 1.5
#: What one workload process may take on top of its timed rounds (five
#: boots, the probe, the replay, and on ``layers`` every layer probe).
PROCESS_GRACE_S = 150.0


def run_workload(name: str, seed: int, seconds: float, *, trace: int = 0,
                 extra: Sequence[str] = ()) -> Dict[str, Any]:
    """Run one workload in a fresh process and return its record.  A
    crash or a time-out becomes a record with ``fail_ratio`` 1 and the
    process's stderr attached, so the remaining workloads still run."""
    with tempfile.TemporaryDirectory(prefix="perfbench-") as tmp:
        out = os.path.join(tmp, "record.json")
        cmd = [sys.executable, RUN_PY, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out", out,
               *extra]
        # Its own session, so that on a time-out the whole process
        # group goes: the workload process and any worker it forked.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _stdout, stderr = proc.communicate(
                timeout=seconds + PROCESS_GRACE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _stdout, stderr = proc.communicate()
            stderr += f"\nperfbench: {name} exceeded its process guard"
        code = proc.returncode
        if os.path.exists(out):
            with open(out) as fh:
                record = json.load(fh)
            record["exit_code"] = code
            return record
    return {"workload": name, "seed": seed, "attempted": 1, "failed": 1,
            "fail_ratio": 1.0, "metrics": {}, "errors": [stderr],
            "exit_code": code}


def workload_names(args: argparse.Namespace) -> List[str]:
    from perfbench.workloads import BY_NAME

    names = args.workload or list(BY_NAME)
    unknown = [n for n in names if n not in BY_NAME]
    if unknown:
        sys.exit(f"perfbench: unknown workload {unknown[0]!r}; "
                 f"expected one of {', '.join(BY_NAME)}")
    return names


def header(seed: int) -> Dict[str, Any]:
    return {
        "schema": SCHEMA, "seed": seed, "host_cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "date": datetime.date.today().isoformat(), "workloads": {},
    }


def print_record(record: Dict[str, Any]) -> None:
    from perfbench.harness import metric_specs

    units = {n: m["unit"] for n, m in metric_specs("end_to_end").items()}
    name = record["workload"]
    detail = record.get("detail", {})
    for metric, value in record["metrics"].items():
        note = ""
        if metric == "ops_per_s" and detail.get("ops_per_s_quartiles"):
            q1, q3 = detail["ops_per_s_quartiles"]
            note = f"  q1 {q1:.0f} q3 {q3:.0f} over {detail['rounds']} rounds"
        if metric == "rtt_p99_us":
            note = (f"  {detail['rtt_samples']} samples, "
                    f"{detail['rtt_beyond_p99_per_round']} beyond it per round")
        print(f"{name:18s} {metric:20s} {value:14.4f} {units.get(metric, ''):5s}{note}")
    if "sim" in record:
        print(f"{name:18s} {'sim_us':20s} {record['sim']['sim_us']:14.4f} us     "
              f"(exact; {record['sim']['events_executed']} events)")
    print(f"{name:18s} {'fail_ratio':20s} {record['fail_ratio']:14.6f}       "
          f"({record['failed']} of {record['attempted']} ops)")
    for err in record.get("errors", []):
        print(f"{name}: {err.strip()}", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    doc = run_all(workload_names(args), args.seed, args.seconds,
                  quick=args.quick, write_golden=args.write_golden,
                  show=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
    return 1 if any(r["failed"] for r in doc["workloads"].values()) else 0


def run_all(names: Sequence[str], seed: int, seconds: float, *,
            quick: bool = False, write_golden: bool = False,
            show: bool = False) -> Dict[str, Any]:
    extra: List[str] = []
    if quick:
        extra.append("--quick")
    if write_golden:
        extra.append("--write-golden")
    doc = header(seed)
    for name in names:
        record = run_workload(name, seed, seconds, extra=extra)
        doc["workloads"][name] = record
        if show:
            print_record(record)
    return doc


def cmd_layers(args: argparse.Namespace) -> int:
    from perfbench.harness import metric_specs, write_chrome_trace
    from perfbench.layers import MOVES

    units = {n: m["unit"] for n, m in metric_specs("per_layer").items()}

    doc = header(args.seed)
    doc["probes"] = {}
    events: List[dict] = []
    failed = False
    with tempfile.TemporaryDirectory(prefix="perfbench-") as tmp:
        for i, name in enumerate(workload_names(args)):
            trace_out = os.path.join(tmp, f"{name}.trace.json")
            # The layer probes do not depend on the workload: the first
            # traced process runs them for all.
            record = run_workload(
                name, args.seed, args.seconds, trace=1,
                extra=["--probes", "1" if i == 0 else "0",
                       "--trace-out", trace_out]
                      + (["--quick"] if args.quick else []))
            failed |= bool(record["failed"])
            doc["probes"].update(record.pop("probes", {}))
            record.pop("traced", None)
            doc["workloads"][name] = record
            if os.path.exists(trace_out):
                with open(trace_out) as fh:
                    for ev in json.load(fh)["traceEvents"]:
                        ev["pid"] = 2 * i + ev["pid"]
                        events.append(ev)
            for err in record.get("errors", []):
                print(f"{name}: {err.strip()}", file=sys.stderr)
    for metric, value in doc["probes"].items():
        print(f"{metric:46s} {value:12.4f} {units[metric]:6s} "
              f"moves: {MOVES[metric]}")
    for name, record in doc["workloads"].items():
        for metric, value in record.get("layers", {}).items():
            print(f"{name:18s} {metric:42s} {value:12.4f} {units[metric]}")
    if args.trace:
        write_chrome_trace(args.trace, events)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
    return 1 if failed else 0


def judge(base: Dict[str, Any], new: Dict[str, Any]) -> int:
    """Print the comparison of two result documents; 1 on a regression."""
    from perfbench.compare import compare, load_bounds, render

    rows = list(compare(base, new, load_bounds()))
    print(render(rows))
    bad = [r for r in rows if r["verdict"] == "REGRESSION"]
    print(f"{len(rows)} pairs checked, {len(bad)} regressions")
    return 1 if bad else 0


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    return judge(base, new)


def cmd_selfcheck(args: argparse.Namespace) -> int:
    names = workload_names(args)
    first = run_all(names, args.seed, args.seconds, quick=args.quick)
    second = run_all(names, args.seed, args.seconds, quick=args.quick)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"first": first, "second": second}, fh, indent=2)
    return judge(first, second)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m perfbench",
                                 description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser, seconds: float) -> None:
        p.add_argument("--workload", action="append",
                       help="repeatable; default: all seven")
        p.add_argument("--seed", type=int, default=1995)
        p.add_argument("--seconds", type=float, default=seconds,
                       help="timed rounds per workload (default %(default)s)")
        p.add_argument("--quick", action="store_true",
                       help="tiny sizes, two rounds")
        p.add_argument("--out", help="write the results as JSON")

    p = sub.add_parser("run", help="end-to-end metrics of every workload")
    common(p, RUN_SECONDS)
    p.add_argument("--write-golden", action="store_true",
                   help="pin the simulator workloads' first round (seed 1995)")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("layers", help="the traced run: per-layer metrics")
    common(p, LAYERS_SECONDS)
    p.add_argument("--trace", help="write Chrome trace events here")
    p.set_defaults(fn=cmd_layers)
    p = sub.add_parser("compare", help="apply the bounds to two result files")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("selfcheck", help="run twice and compare the two")
    common(p, RUN_SECONDS)
    p.set_defaults(fn=cmd_selfcheck)
    args = ap.parse_args(argv)
    add_paths()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
