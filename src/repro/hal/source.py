"""One parse per behaviour method.

Both compiler stages that read a method body — the AST frontend
(:mod:`repro.hal.lower`) and type inference (:mod:`repro.hal.inference`)
— get it from :func:`method_tree`, which reads the source with
:mod:`inspect`, parses it once and keeps the result for as long as the
function object lives.  A program loaded into a second runtime in the
same process therefore costs no parse at all.

The cache is keyed by function *identity* in a
:class:`weakref.WeakKeyDictionary`: a dead function drops its entry, and
a new function never inherits a tree, even one whose code sits at the
same file and line (the mini-HAL code generator registers generated
source in :mod:`linecache` under synthetic filenames, so neither code
equality nor ``(filename, lineno)`` identifies a body).  The tree is
not stored on the function either: the lowerer copies ``fn.__dict__``
onto the function it builds, which would then carry the original's
tree.

The returned tree is shared and must be treated as read-only; a caller
that rewrites it (the lowerer) works on a deep copy.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import weakref
from typing import Callable, Optional

__all__ = ["method_tree"]

_trees: "weakref.WeakKeyDictionary[Callable, Optional[ast.FunctionDef]]" = (
    weakref.WeakKeyDictionary()
)


def _parse(fn: Callable) -> Optional[ast.FunctionDef]:
    try:
        lines, firstlineno = inspect.getsourcelines(fn)
        tree = ast.parse(textwrap.dedent("".join(lines)))
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None
    func = next((n for n in tree.body if isinstance(n, ast.FunctionDef)), None)
    if func is not None:
        # Absolute line numbers: diagnostics, reports and a lowered
        # method's code object all point into the real file.
        ast.increment_lineno(func, firstlineno - 1)
    return func


def method_tree(fn: Callable) -> Optional[ast.FunctionDef]:
    """The ``FunctionDef`` of ``fn`` with absolute line numbers, or
    ``None`` when its source is unavailable or does not parse.

    Parsed once per function object; read-only for every caller.
    """
    try:
        return _trees[fn]
    except KeyError:
        pass
    except TypeError:  # not weak-referenceable: parse without caching
        return _parse(fn)
    func = _trees[fn] = _parse(fn)
    return func
