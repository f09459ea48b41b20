#!/usr/bin/env python
"""Layering lint: the runtime must not reach beneath the platform seam,
and the simulator must not reach above it.

``repro.runtime`` and ``repro.am`` are written against the platform
interfaces (:mod:`repro.platform.base`); importing an execution
backend directly — any ``repro.sim.*`` module, or a concrete backend
module like ``repro.platform.simbackend`` / ``repro.platform.threaded``
— couples protocol code to one substrate and silently breaks the
other.  This checker walks the import statements (AST only, nothing is
executed) of every module under the guarded packages and exits 1 with
a file:line listing when it finds a violation.

Allowed from guarded packages:

- ``repro.platform`` and ``repro.platform.base`` (the seam itself);
- layer-neutral modules (``repro.stats``, ``repro.tracing``,
  ``repro.tracectx``, ``repro.topology``, ``repro.rng``, ``repro.config``,
  ``repro.errors``, ...);
- anything inside the guarded packages themselves.

``repro.sim`` is the sim backend's machinery, so it may not import
``repro.platform`` at all: ``repro.platform.simbackend`` imports the
simulator, never the reverse, so no import cycle can form between them.

Run from the repo root (CI's lint job does)::

    python tools/check_layering.py
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(_HERE)
SRC = os.path.join(REPO_ROOT, "src")

#: Packages whose modules must stay backend-agnostic.
GUARDED = ("repro/runtime", "repro/am")

#: Import prefixes a guarded module may never name.  ``repro.sim`` is
#: the whole simulator; the concrete platform modules are the backends
#: themselves, and ``repro.platform.wireformat`` is their transport
#: machinery — how bytes cross an OS boundary is a backend concern, so
#: protocol code may not depend on it either (the ``repro.platform``
#: package root and ``repro.platform.base`` remain allowed).
FORBIDDEN_PREFIXES = (
    "repro.sim",
    "repro.platform.simbackend",
    "repro.platform.threaded",
    "repro.platform.mp",
    "repro.platform.asyncio_net",
    "repro.platform.wireformat",
    "repro.platform.shmring",
)


#: ``(packages, forbidden import prefixes, why)`` — one rule per row.
RULES = (
    (GUARDED, FORBIDDEN_PREFIXES,
     "guarded layers may only use repro.platform interfaces"),
    (("repro/sim",), ("repro.platform",),
     "the simulator sits beneath the platform seam"),
)


def _is_forbidden(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module == p or module.startswith(p + ".")
        for p in prefixes
    )


def _imports(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """Yield (lineno, dotted-module) for every import in the tree,
    including those nested in functions or ``if TYPE_CHECKING`` blocks
    — a type-only dependency on a backend is still a layering bug."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: stays inside the package
                continue
            if node.module:
                yield node.lineno, node.module


def check(src: str = SRC) -> List[str]:
    problems: List[str] = []
    for packages, prefixes, why in RULES:
        for pkg in packages:
            root = os.path.join(src, *pkg.split("/"))
            for dirpath, _dirnames, filenames in os.walk(root):
                for fname in sorted(filenames):
                    if not fname.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, fname)
                    with open(path) as fh:
                        tree = ast.parse(fh.read(), filename=path)
                    rel = os.path.relpath(path, REPO_ROOT)
                    for lineno, module in _imports(tree):
                        if _is_forbidden(module, prefixes):
                            problems.append(
                                f"{rel}:{lineno}: imports {module!r} ({why})"
                            )
    return problems


def main() -> int:
    problems = check()
    if problems:
        print("layering violations:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    n_pkgs = ", ".join(p.replace("/", ".") for p in GUARDED)
    print(f"layering OK: {n_pkgs} import no execution backend; "
          "repro.sim imports no repro.platform")
    return 0


if __name__ == "__main__":
    sys.exit(main())
