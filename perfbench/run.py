#!/usr/bin/env python3
"""One workload, one fresh process: the benchmark's entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` is the traced run and prints every per-layer metric.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when nothing failed.

``python -m perfbench run`` starts this file once per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(HERE, "golden")
#: The seed the committed golden files were written with.
GOLDEN_SEED = 1995


def add_paths() -> None:
    """Make ``repro`` and ``perfbench`` importable from a bare
    checkout, whatever the caller's PYTHONPATH."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: the program under test is not at {SRC}/repro")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def golden_path(directory: str, workload: str) -> str:
    return os.path.join(directory, f"{workload}.json")


def load_golden(directory: str, workload: str, seed: int, quick: bool):
    """The pinned first-round record, or None when this seed and size
    have none (other seeds are checked by replay only)."""
    path = golden_path(directory, workload)
    if seed != GOLDEN_SEED or not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh).get("quick" if quick else "full")


def write_golden(directory: str, workload: str, quick: bool, record) -> None:
    path = golden_path(directory, workload)
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["seed"] = GOLDEN_SEED
    doc["quick" if quick else "full"] = record
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, two rounds (smoke tests)")
    ap.add_argument("--probes", type=int, choices=(0, 1), default=1,
                    help="with --trace 1: also run the per-layer probes")
    ap.add_argument("--out", help="write the full result record here")
    ap.add_argument("--trace-out",
                    help="with --trace 1: write Chrome trace events here")
    ap.add_argument("--golden-dir", default=GOLDEN_DIR)
    ap.add_argument("--write-golden", action="store_true",
                    help=f"pin this run's first round (seed {GOLDEN_SEED} only)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    add_paths()
    from perfbench import layers
    from perfbench.harness import (
        Spans, metric_specs, stop_resource_tracker, write_chrome_trace,
    )
    from perfbench.measure import measure
    from perfbench.workloads import BY_NAME

    if args.workload not in BY_NAME:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(BY_NAME)}")
    if args.write_golden and args.seed != GOLDEN_SEED:
        sys.exit(f"perfbench: golden files are written at seed {GOLDEN_SEED}")
    wl = BY_NAME[args.workload](args.seed, quick=args.quick)
    golden = None
    if wl.is_sim and not args.write_golden:
        golden = load_golden(args.golden_dir, wl.name, args.seed, args.quick)

    traced = bool(args.trace)
    record = measure(wl, args.seconds, traced=traced, golden=golden)
    record["host_cpus"] = os.cpu_count()
    record["python"] = sys.version.split()[0]
    metrics = record["metrics"]
    if traced:
        chrome = record["traced"].pop("chrome")
        record["layers"] = metrics = layers.from_workload(record["traced"])
        if args.probes:
            spans = Spans("probes")
            try:
                record["probes"] = layers.run_probes(spans, args.quick)
            finally:
                stop_resource_tracker()
            metrics = {**metrics, **record["probes"]}
            chrome += spans.chrome_events(pid=1)
        if args.trace_out:
            write_chrome_trace(args.trace_out, chrome)
    if args.write_golden and wl.is_sim and not record["failed"]:
        write_golden(args.golden_dir, wl.name, args.quick, record["sim"])

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
    for err in record["errors"]:
        print(err, file=sys.stderr)
    units = {name: m["unit"] for name, m in metric_specs(
        "per_layer" if traced else "end_to_end").items()}
    for name, value in metrics.items():
        print(f"{wl.name:18s} {name:46s} {value:14.4f} {units[name]}")
    print(f"{wl.name:18s} {'fail_ratio':46s} {record['fail_ratio']:14.6f} "
          f"({record['failed']} of {record['attempted']} ops; op = one {wl.op})")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
