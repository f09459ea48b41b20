"""Apply the benchmark's bounds to two result files.

``compare(base, new)`` walks every (workload, end-to-end metric) pair
present in both files and calls the pair a regression when ``new`` is
worse than ``base`` by more than the metric's bound in
``BENCHMARK.json``.  Three rules are absolute rather than relative:

* ``fail_ratio`` must be 0 in ``new``;
* on simulator workloads run with the same seed, the pinned first-round
  record (``sim_us``, ``events_executed`` and the named counters) must
  be equal: the simulator is deterministic, so any change is a change
  of the modelled machine;
* ``setup_s`` is never flagged for a difference under 5 ms.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from perfbench.harness import metric_specs

#: Below this absolute difference set-up time is timer noise.
SETUP_FLOOR_S = 0.005


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` for the end-to-end metrics."""
    return {name: (m["better"], m["bound"])
            for name, m in metric_specs("end_to_end").items()}


def worsening(better: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base: Dict[str, Any], new: Dict[str, Any],
            bounds: Dict[str, Tuple[str, float]]) -> Iterator[Dict[str, Any]]:
    """One row per checked pair; ``row["verdict"]`` is ``ok``,
    ``better`` or ``REGRESSION``."""
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            yield {"workload": name, "metric": "(missing)", "verdict": "REGRESSION",
                   "note": "workload absent from the second file"}
            continue
        yield {
            "workload": name, "metric": "fail_ratio",
            "base": b["fail_ratio"], "new": n["fail_ratio"],
            "verdict": "ok" if n["fail_ratio"] == 0 else "REGRESSION",
            "note": "must be 0",
        }
        if "sim" in b and "sim" in n and b["seed"] == n["seed"]:
            same = b["sim"] == n["sim"]
            yield {
                "workload": name, "metric": "sim_us",
                "base": b["sim"]["sim_us"], "new": n["sim"]["sim_us"],
                "verdict": "ok" if same else "REGRESSION",
                "note": "exact" if same else
                        f"pinned record differs: {b['sim']} != {n['sim']}",
            }
        for metric, (better, bound) in bounds.items():
            if metric not in b["metrics"] or metric not in n["metrics"]:
                continue
            old, cur = b["metrics"][metric], n["metrics"][metric]
            worse = worsening(better, old, cur)
            verdict = "ok"
            if worse > bound and not (
                    metric == "setup_s" and abs(cur - old) < SETUP_FLOOR_S):
                verdict = "REGRESSION"
            elif worse < -bound:
                verdict = "better"
            yield {"workload": name, "metric": metric, "base": old, "new": cur,
                   "worse_pct": worse * 100, "bound_pct": bound * 100,
                   "verdict": verdict}


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':18s} {'metric':18s} {'base':>14s} {'new':>14s} "
             f"{'worse':>8s} {'bound':>7s}  verdict"]
    for r in rows:
        worse = f"{r['worse_pct']:+7.1f}%" if "worse_pct" in r else ""
        bound = f"{r['bound_pct']:6.0f}%" if "bound_pct" in r else ""
        base = f"{r['base']:14.4f}" if "base" in r else ""
        new = f"{r['new']:14.4f}" if "new" in r else ""
        lines.append(
            f"{r['workload']:18s} {r['metric']:18s} {base:>14s} {new:>14s} "
            f"{worse:>8s} {bound:>7s}  {r['verdict']}"
            + (f"  ({r['note']})" if r.get("note") else ""))
    return "\n".join(lines)
