"""Smoke tests of the benchmark harness itself.

Run with ``python -m pytest perfbench/tests -q`` from the repo root
(outside ``testpaths``, so tier-1 does not collect them).  They use the
``--quick`` sizes: the point is that the harness emits what
``BENCHMARK.json`` promises and fails when it should, not the numbers.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.__main__ import run_all, run_workload  # noqa: E402
from perfbench.compare import compare, load_bounds  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_py(*args):
    """perfbench/run.py as the driver starts it; (exit code, last-line
    result, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def test_names_are_well_formed(benchmark_json):
    from perfbench.layers import MOVES
    from perfbench.workloads import BY_NAME

    names = [w["name"] for w in benchmark_json["workloads"]]
    assert names == list(BY_NAME)
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in benchmark_json[section]:
            assert NAME.match(entry["name"]), entry["name"]
    assert list(MOVES) == [m["name"] for m in benchmark_json["per_layer"]]
    every = [e["name"] for s in ("end_to_end", "per_layer")
             for e in benchmark_json[s]]
    assert len(every) == len(set(every))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in benchmark_json["end_to_end"])


@pytest.mark.parametrize("workload", [
    "relay.mp", "relay.asyncio", "echo.mp", "fib.mp", "fib.sim", "chase.sim",
    "relay_traced.sim"])
def test_quick_run_emits_every_end_to_end_metric(benchmark_json, workload):
    code, result, stderr = run_py("--workload", workload, "--quick",
                                  "--seed", "7", "--trace", "0")
    assert code == 0, stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_quick_traced_run_emits_every_per_layer_metric(benchmark_json):
    code, result, stderr = run_py("--workload", "chase.sim", "--quick",
                                  "--trace", "1")
    assert code == 0, stderr
    want = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    # chase.sim is the workload that exercises the FIR chase.
    assert result["metrics"]["runtime.migration.fir_per_kop"]["value"] > 0


def test_wrong_golden_fails_the_run(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(os.path.join(PERFBENCH, "golden"), golden)
    path = golden / "fib.sim.json"
    doc = json.loads(path.read_text())
    doc["quick"]["sim_us"] += 1.0
    path.write_text(json.dumps(doc))
    code, result, stderr = run_py("--workload", "fib.sim", "--quick",
                                  "--golden-dir", str(golden))
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert "golden mismatch" in stderr
    # ... and the committed golden passes.
    code, result, stderr = run_py("--workload", "fib.sim", "--quick")
    assert code == 0, stderr


def test_crashed_workload_is_a_failure_and_the_rest_still_run():
    # run.py rejects the unknown name before it prints a result: to the
    # parent that is a workload process that died.
    doc = run_all(["no.such.workload", "fib.sim"], 7, 1.0, quick=True)
    dead, alive = doc["workloads"]["no.such.workload"], doc["workloads"]["fib.sim"]
    assert dead["fail_ratio"] == 1.0 and dead["exit_code"] != 0
    assert "unknown workload" in dead["errors"][0]
    assert alive["fail_ratio"] == 0.0 and alive["exit_code"] == 0


def test_compare_applies_the_bounds():
    bounds = load_bounds()
    better, bound = bounds["ops_per_s"]
    assert better == "higher"
    base = {"workloads": {"fib.sim": {
        "seed": 7, "fail_ratio": 0.0, "sim": {"sim_us": 10.0},
        "metrics": {"ops_per_s": 1000.0, "setup_s": 0.010}}}}

    def verdicts(ops, **changes):
        new = copy.deepcopy(base)
        new["workloads"]["fib.sim"]["metrics"]["ops_per_s"] = ops
        new["workloads"]["fib.sim"].update(changes)
        return {r["metric"]: r["verdict"] for r in compare(base, new, bounds)}

    assert verdicts(1000.0 * (1 - bound - 0.05))["ops_per_s"] == "REGRESSION"
    assert verdicts(1000.0 * (1 - bound / 2))["ops_per_s"] == "ok"
    assert verdicts(1000.0, fail_ratio=0.001)["fail_ratio"] == "REGRESSION"
    assert verdicts(1000.0, sim={"sim_us": 10.5})["sim_us"] == "REGRESSION"
    # Set-up under the 5 ms floor is never flagged, however large the ratio.
    new = copy.deepcopy(base)
    new["workloads"]["fib.sim"]["metrics"]["setup_s"] = 0.014
    assert all(r["verdict"] != "REGRESSION" for r in compare(base, new, bounds))


def test_run_workload_reports_a_process_that_writes_no_record():
    record = run_workload("fib.sim", 7, 1.0, extra=["--no-such-flag"])
    assert record["fail_ratio"] == 1.0 and record["exit_code"] != 0
    assert "no-such-flag" in record["errors"][0]
