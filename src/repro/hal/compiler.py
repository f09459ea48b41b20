"""The HAL compilation pipeline (run by the front-end at load time).

Stages, mirroring the paper's compiler/runtime split:

0. AST lowering of plain-def methods: request sites are found by
   dependence analysis over the AST, independent requests are grouped
   into shared joins, and the body is CPS-rewritten into the generator
   form the runtime executes (:mod:`repro.hal.lower`);
1. constraint-based type inference over all behaviour methods
   (:mod:`repro.hal.inference`);
2. dependence analysis: continuation structure of request/reply
   methods + purity detection (:mod:`repro.hal.dependence`);
3. dispatch-plan selection with static type checking
   (:mod:`repro.hal.optimize`).

The output is attached to each :class:`~repro.actors.behavior.Behavior`
(its ``compiled`` slot) where the runtime's send path consults it —
the "open interface" between compiler and runtime the paper argues
for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.actors.behavior import Behavior, behavior_of
from repro.hal.dependence import DependenceResult, analyze_dependence
from repro.hal.inference import InferenceResult, infer_program
from repro.hal.lower import lower_method
from repro.hal.optimize import BehaviorPlans, select_plans

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.program import HalProgram


@dataclass
class CompiledBehavior:
    """Per-behaviour compiler output consulted by the runtime."""

    behavior: str
    plans: BehaviorPlans
    functional: bool
    #: Methods whose bodies came out of the AST lowering frontend.
    lowered_methods: List[str] = field(default_factory=list)
    #: (method, selector) -> reason string, for the compiler report.
    notes: Dict = field(default_factory=dict)

    def plan_for(self, method: str, selector: str) -> str:
        return self.plans.plan_for(method, selector)


@dataclass
class CompiledProgram:
    """Whole-program compiler output + report."""

    name: str
    behaviors: Dict[str, CompiledBehavior]
    inference: InferenceResult
    dependence: DependenceResult
    diagnostics: List[str]

    # ------------------------------------------------------------------
    def plan_counts(self) -> Dict[str, int]:
        """Dispatch-mechanism tally over every planned send site."""
        counts = {"static": 0, "lookup": 0, "generic": 0}
        for cb in self.behaviors.values():
            for plan in cb.plans.plans.values():
                counts[plan.kind] = counts.get(plan.kind, 0) + 1
        return counts

    def report(self) -> str:
        """Human-readable compilation report (dispatch decisions,
        continuation structure, purity)."""
        lines = [f"=== HAL compilation report: {self.name} ==="]
        for bname in sorted(self.behaviors):
            cb = self.behaviors[bname]
            tag = " [functional]" if cb.functional else ""
            lines.append(f"behaviour {bname}{tag}")
            for (mname, selector), plan in sorted(cb.plans.plans.items()):
                lines.append(
                    f"  {mname}: send {selector!r} -> {plan.kind:<7} ({plan.reason})"
                )
            for (b, m), cont in sorted(self.dependence.continuations.items()):
                if b == bname and cont.is_generator:
                    joins = ", ".join(
                        f"{j.slots if j.slots >= 0 else '?'}@{j.lineno}"
                        for j in cont.joins
                    )
                    frontend = "lowered plain-def" if cont.lowered else "generator"
                    lines.append(
                        f"  {m}: {cont.split_points} continuation split(s) "
                        f"[{joins}] ({frontend})"
                    )
        counts = self.plan_counts()
        lines.append(
            f"plans: {counts['static']} static / {counts['lookup']} lookup "
            f"/ {counts['generic']} generic"
        )
        for d in self.diagnostics:
            lines.append(d)
        return "\n".join(lines)

    def report_dict(self) -> dict:
        """The report as JSON-able data (the CLI's ``--json`` output)."""
        behaviors = {}
        for bname in sorted(self.behaviors):
            cb = self.behaviors[bname]
            plans = [
                {
                    "method": mname,
                    "selector": selector,
                    "kind": plan.kind,
                    "receivers": sorted(plan.receivers) if plan.receivers is not None else None,
                    "reason": plan.reason,
                }
                for (mname, selector), plan in sorted(cb.plans.plans.items())
            ]
            continuations = [
                {
                    "method": m,
                    "frontend": "lowered" if cont.lowered else "generator",
                    "splits": cont.split_points,
                    "joins": [
                        {"line": j.lineno, "slots": j.slots, "grouped": j.grouped}
                        for j in cont.joins
                    ],
                }
                for (b, m), cont in sorted(self.dependence.continuations.items())
                if b == bname and cont.is_generator
            ]
            behaviors[bname] = {
                "functional": cb.functional,
                "lowered_methods": sorted(cb.lowered_methods),
                "plans": plans,
                "continuations": continuations,
            }
        return {
            "program": self.name,
            "behaviors": behaviors,
            "plan_counts": self.plan_counts(),
            "diagnostics": list(self.diagnostics),
        }

    def static_site_count(self) -> int:
        return sum(
            1
            for cb in self.behaviors.values()
            for plan in cb.plans.plans.values()
            if plan.kind == "static"
        )


def _lower_universe(universe: Dict[str, Behavior]) -> Dict[str, List[str]]:
    """Stage 0: run the AST frontend over every plain-def method.

    Mutates each behaviour's method table in place — the lowered
    generator *is* the method from here on (the runtime dispatches it,
    inference analyses its stored AST).  Idempotent: already-lowered
    and already-generator methods are skipped, so repeated compilation
    under a growing universe is safe.
    """
    lowered: Dict[str, List[str]] = {}
    for bname, beh in universe.items():
        for mname, fn in list(beh.methods.items()):
            lm = lower_method(bname, mname, fn)
            if lm is not None:
                beh.methods[mname] = lm.fn
                lowered.setdefault(bname, []).append(mname)
    return lowered


#: How many universes' analyses :func:`_analyze` keeps.
_ANALYSES_KEPT = 16
_analyses: Dict[tuple, tuple] = {}


def _analyze(behaviors: Dict[str, Behavior], universe: Dict[str, Behavior],
             strict: bool) -> tuple:
    """Stages 1-3 over the lowered universe, memoised.

    The analyses read nothing but ``strict``, the universe's names and
    each behaviour's method table.  The key holds exactly those objects
    (plus the program's own names), never their ``id()``s, which a dead
    object's successor may reuse.  So a program linked again, by a
    second runtime in the same process say, reuses the first link's
    results, while a new behaviour, a replaced method or another
    ``strict`` is a new key.  Results are shared between hits and
    read-only after compilation; a compile that raises stores nothing.
    The least recently used entry goes once ``_ANALYSES_KEPT`` are held.
    """
    key = (
        strict,
        frozenset(behaviors),
        tuple((bname, beh, tuple(beh.methods.items()))
              for bname, beh in universe.items()),
    )
    hit = _analyses.pop(key, None)
    if hit is None:
        inference = infer_program(universe)
        dependence = analyze_dependence(inference)
        plans, diags = select_plans(universe, inference, dependence,
                                    strict=strict)
        hit = (inference, dependence, plans,
               list(inference.diagnostics) + diags)
        if len(_analyses) >= _ANALYSES_KEPT:
            del _analyses[next(iter(_analyses))]
    _analyses[key] = hit  # (re)inserted last: most recently used
    return hit


def compile_behaviors(
    behaviors: Dict[str, Behavior],
    *,
    name: str = "<adhoc>",
    strict: bool = True,
    universe: Optional[Dict[str, Behavior]] = None,
) -> CompiledProgram:
    """Run the pipeline over a behaviour set and attach the results.

    ``universe`` is the full set of behaviours visible at link time —
    kernels execute all programs in one address space, so a program's
    sends may target behaviours loaded earlier.  Analysis runs over the
    universe; results are attached to ``behaviors`` only.
    """
    universe = dict(universe or {})
    universe.update(behaviors)
    _lower_universe(universe)
    inference, dependence, plans, diags = _analyze(behaviors, universe, strict)
    compiled: Dict[str, CompiledBehavior] = {}
    for bname, beh in behaviors.items():
        functional = dependence.behavior_is_functional(bname)
        # Flag-derived, not taken from _lower_universe's return: a
        # recompile of an already-lowered behaviour must still report
        # its methods as lowered.
        lowered = sorted(
            m for m, fn in beh.methods.items()
            if getattr(fn, "__hal_lowered__", False)
        )
        cb = CompiledBehavior(bname, plans[bname], functional,
                              lowered_methods=lowered)
        beh.compiled = cb
        beh.functional = functional
        compiled[bname] = cb
    return CompiledProgram(name, compiled, inference, dependence, list(diags))


def compile_program(
    program: "HalProgram",
    *,
    strict: bool = True,
    universe: Optional[Dict[str, Behavior]] = None,
) -> CompiledProgram:
    """Compile a program image (front-end entry point)."""
    behaviors = {behavior_of(cls).name: behavior_of(cls) for cls in program.behaviors}
    return compile_behaviors(
        behaviors, name=program.name, strict=strict, universe=universe
    )
