"""The HAL language layer.

HAL is untyped but statically type-checked: the compiler infers types
with a constraint-based algorithm (§2, [27]) and uses them to select
dispatch mechanisms (§6.3).  This package provides:

- :mod:`repro.hal.dsl` — the embedded programming surface
  (``@behavior``, ``@method``, ``disable_when``);
- :mod:`repro.hal.source` — each method's source, parsed once per
  process and shared by every stage that reads a method body;
- :mod:`repro.hal.lower` — the AST frontend: plain-def methods are
  continuation-split at each ``ctx.request`` and CPS-rewritten into
  generator form, with independent requests grouped into shared joins;
- :mod:`repro.hal.types` / :mod:`repro.hal.inference` — the type
  lattice and the constraint-based inference over method ASTs;
- :mod:`repro.hal.dependence` — analysis shared by both frontends:
  continuation-structure validation and purity detection;
- :mod:`repro.hal.optimize` / :mod:`repro.hal.compiler` — dispatch-plan
  selection and the compilation pipeline invoked at program load.
"""

from repro.hal.compiler import CompiledBehavior, CompiledProgram, compile_program
from repro.hal.dsl import behavior, disable_when, method
from repro.hal.lower import LoweredMethod, lower_method

__all__ = [
    "behavior",
    "method",
    "disable_when",
    "compile_program",
    "CompiledProgram",
    "CompiledBehavior",
    "LoweredMethod",
    "lower_method",
]
