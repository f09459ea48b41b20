"""AST continuation-splitting of plain-``def`` methods (§6.2).

The paper's compiler takes *ordinary* method bodies, finds each
``request`` send, runs dependence analysis to separate out the
continuation, and groups independent sends to share one continuation.
This module is that frontend for the embedded DSL: a behaviour method
written with no ``yield`` at all ::

    @method
    def compute(self, ctx, n):
        left = ctx.new(FibActor)
        right = ctx.new(FibActor)
        a = ctx.request(left, "compute", n - 1)
        b = ctx.request(right, "compute", n - 2)
        return a + b

is rewritten — by AST transformation and ``compile()`` — into the
generator form the runtime already executes ::

    a, b = yield [ctx.request(left, "compute", n - 1),
                  ctx.request(right, "compute", n - 2)]

The two adjacent requests are *grouped* because dependence analysis
proves them independent: neither reads a name the other binds, and
their receiver/argument expressions are effect-free.  A dependent
chain (``b``'s request reading ``a``) lowers to two split points
instead.  Line numbers are preserved (the rewritten code object keeps
the original filename and absolute line numbers), so tracebacks out of
a lowered method point into the user's source.

Positions where a request cannot be split — inside a condition, an
argument of another call, a nested function — raise
:class:`~repro.errors.CompileError` carrying behaviour, method and
absolute source line.

The explicit-yield generator DSL remains supported; both frontends
produce the same continuation structure, validated by
:mod:`repro.hal.dependence` either way.
"""

from __future__ import annotations

import ast
import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import CompileError
from repro.hal.source import method_tree

__all__ = ["LoweredMethod", "lower_method", "is_request_call", "walk_scope"]


def is_request_call(e: ast.AST) -> bool:
    """``ctx.request(...)`` / ``ctx.request_create(...)`` — the two
    split-point primitives."""
    return (
        isinstance(e, ast.Call)
        and isinstance(e.func, ast.Attribute)
        and e.func.attr in ("request", "request_create")
        and isinstance(e.func.value, ast.Name)
        and e.func.value.id == "ctx"
    )


#: Nodes that open a new scope: their bodies are not part of the
#: method's own control flow, so the lowering must not descend.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` restricted to the node's own scope (does not enter
    nested function definitions or lambdas).  Same breadth-first order
    as ``ast.walk`` — join points are recorded in statement order."""
    todo = deque([node])
    while todo:
        n = todo.popleft()
        yield n
        for child in ast.iter_child_nodes(n):
            if isinstance(child, _SCOPES):
                yield child  # the def itself is ours; its body is not
            else:
                todo.append(child)


@dataclass
class LoweredMethod:
    """The result of lowering one plain-def method."""

    behavior: str
    method: str
    #: The compiled generator function (drop-in for the original).
    fn: Callable
    #: The transformed FunctionDef, with absolute line numbers — the
    #: analysis passes read this instead of re-parsing source.
    node: ast.FunctionDef
    #: Request sites found in the original body.
    sites: int = 0
    #: Emitted split points as ``(slots, grouped)`` pairs.
    joins: List[Tuple[int, bool]] = field(default_factory=list)


# ----------------------------------------------------------------------
# dependence analysis for grouping
# ----------------------------------------------------------------------
#: Expression nodes allowed in a *groupable* request's receiver and
#: arguments.  Effect-free by construction: grouping reorders the
#: request's argument evaluation relative to the preceding reply, so
#: anything that could observe that reply (a call, a yield, a walrus)
#: disqualifies the site from sharing a continuation — it still lowers,
#: as its own split point.
_SIMPLE_EXPRS = tuple(
    getattr(ast, name) for name in (
        "Name", "Constant", "Attribute", "BinOp", "UnaryOp", "Compare",
        "BoolOp", "IfExp", "Subscript", "Tuple", "List", "Index", "Slice",
        "Load", "Store", "operator", "unaryop", "cmpop", "boolop",
        "expr_context", "keyword",
    ) if hasattr(ast, name)
)


def _is_simple_request(call: ast.Call) -> bool:
    """True when every sub-expression of the request (receiver,
    selector, args) is effect-free."""
    for sub in ast.walk(call):
        if sub is call:
            continue
        if is_request_call(sub):
            return False
        if not isinstance(sub, _SIMPLE_EXPRS):
            return False
    return True


def _names_read(e: ast.AST) -> set:
    return {
        n.id for n in ast.walk(e)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


# ----------------------------------------------------------------------
# the transformer
# ----------------------------------------------------------------------
class _Lowerer:
    def __init__(self, behavior: str, method: str) -> None:
        self.behavior = behavior
        self.method = method
        self.sites = 0
        self.joins: List[Tuple[int, bool]] = []

    # -- diagnostics ----------------------------------------------------
    def _err(self, node: ast.AST, msg: str) -> CompileError:
        lineno = getattr(node, "lineno", None)
        where = f" (line {lineno})" if lineno is not None else ""
        return CompileError(
            f"{self.behavior}.{self.method}{where}: {msg}",
            behavior=self.behavior, method=self.method, lineno=lineno,
        )

    def _check_no_requests(self, node: Optional[ast.AST]) -> None:
        if node is None:
            return
        if isinstance(node, _SCOPES):
            self._check_no_nested_requests(node)
            return
        for sub in walk_scope(node):
            if is_request_call(sub):
                raise self._err(
                    sub,
                    "ctx.request here cannot be split into a continuation; "
                    "a request may only be the sole right-hand side of an "
                    "assignment, an element of a tuple-assigned request "
                    "group, a bare statement, or a return value",
                )
            if isinstance(sub, _SCOPES) and sub is not node:
                self._check_no_nested_requests(sub)

    def _check_no_nested_requests(self, scope: ast.AST) -> None:
        for inner in ast.walk(scope):
            if is_request_call(inner):
                raise self._err(
                    inner,
                    "ctx.request inside a nested function cannot be "
                    "lowered; issue the request in the method body and "
                    "pass the reply in",
                )

    # -- statement shapes -----------------------------------------------
    @staticmethod
    def _single_request_assign(s: ast.stmt) -> Optional[ast.Call]:
        """``x = ctx.request(...)`` with a single Name target."""
        if (
            isinstance(s, ast.Assign)
            and len(s.targets) == 1
            and isinstance(s.targets[0], ast.Name)
            and is_request_call(s.value)
        ):
            return s.value
        return None

    def _yield_of(self, template: ast.AST, inner: ast.expr) -> ast.expr:
        y = ast.Yield(value=inner)
        return ast.copy_location(y, template)

    def _join_assign(self, run: List[ast.Assign]) -> ast.stmt:
        """Fuse a run of independent single-request assigns into one
        split point (grouped when the run has more than one member)."""
        first = run[0]
        if len(run) == 1:
            first.value = self._yield_of(first.value, first.value)
            self.joins.append((1, False))
            return first
        targets = [s.targets[0] for s in run]
        calls = [s.value for s in run]
        tup = ast.copy_location(
            ast.Tuple(elts=targets, ctx=ast.Store()), first.targets[0]
        )
        lst = ast.copy_location(ast.List(elts=calls, ctx=ast.Load()),
                                first.value)
        out = ast.Assign(targets=[tup], value=self._yield_of(first.value, lst))
        self.joins.append((len(run), True))
        return ast.copy_location(out, first)

    def _grouped_assign(self, s: ast.Assign) -> ast.stmt:
        """``a, b = ctx.request(...), ctx.request(...)`` — the explicit
        grouped form."""
        value = s.value
        assert isinstance(value, (ast.Tuple, ast.List))
        elts = value.elts
        bad = [e for e in elts if not is_request_call(e)]
        if bad:
            raise self._err(
                bad[0],
                "malformed grouped request: every element of a "
                "tuple-assigned request group must be a ctx.request(...) "
                "call",
            )
        target = s.targets[0]
        if isinstance(target, (ast.Tuple, ast.List)) and len(target.elts) != len(elts):
            raise self._err(
                s,
                f"malformed grouped request: {len(target.elts)} targets "
                f"for {len(elts)} grouped requests",
            )
        for e in elts:
            self._check_no_requests_within(e)
        self.sites += len(elts)
        lst = ast.copy_location(ast.List(elts=elts, ctx=ast.Load()), value)
        s.value = self._yield_of(value, lst)
        self.joins.append((len(elts), True))
        return s

    def _check_no_requests_within(self, call: ast.Call) -> None:
        """A request's own receiver/args must not contain requests."""
        for sub in ast.walk(call):
            if sub is not call and is_request_call(sub):
                raise self._err(
                    sub,
                    "a request may not appear inside another request's "
                    "arguments; bind the inner reply to a name first",
                )

    # -- block lowering -------------------------------------------------
    def lower_block(self, stmts: List[ast.stmt]) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        i = 0
        while i < len(stmts):
            s = stmts[i]
            call = self._single_request_assign(s)
            if call is not None:
                self._check_no_requests_within(call)
                self.sites += 1
                run = [s]
                written = {s.targets[0].id}  # type: ignore[union-attr]
                groupable = _is_simple_request(call)
                j = i + 1
                while groupable and j < len(stmts):
                    nxt = self._single_request_assign(stmts[j])
                    if nxt is None or not _is_simple_request(nxt):
                        break
                    if _names_read(nxt) & written:
                        break  # dependent: needs the earlier reply
                    self._check_no_requests_within(nxt)
                    self.sites += 1
                    run.append(stmts[j])
                    written.add(stmts[j].targets[0].id)  # type: ignore[union-attr]
                    j += 1
                out.append(self._join_assign(run))
                i = j
                continue
            out.append(self._stmt(s))
            i += 1
        return out

    def _stmt(self, s: ast.stmt) -> ast.stmt:
        if isinstance(s, ast.Assign):
            if is_request_call(s.value):
                # Multi-target (`x = y = ctx.request(...)`) falls here.
                self._check_no_requests_within(s.value)
                self.sites += 1
                s.value = self._yield_of(s.value, s.value)
                self.joins.append((1, False))
                return s
            if (
                isinstance(s.value, (ast.Tuple, ast.List))
                and any(is_request_call(e) for e in s.value.elts)
            ):
                return self._grouped_assign(s)
            self._check_no_requests(s)
            return s
        if isinstance(s, ast.AnnAssign) and s.value is not None \
                and is_request_call(s.value):
            self._check_no_requests_within(s.value)
            self.sites += 1
            s.value = self._yield_of(s.value, s.value)
            self.joins.append((1, False))
            return s
        if isinstance(s, ast.Expr) and is_request_call(s.value):
            # Reply awaited (the split still happens), value dropped.
            self._check_no_requests_within(s.value)
            self.sites += 1
            s.value = self._yield_of(s.value, s.value)
            self.joins.append((1, False))
            return s
        if isinstance(s, ast.Return) and s.value is not None:
            if is_request_call(s.value):
                self._check_no_requests_within(s.value)
                self.sites += 1
                s.value = self._yield_of(s.value, s.value)
                self.joins.append((1, False))
                return s
            if (
                isinstance(s.value, (ast.Tuple, ast.List))
                and any(is_request_call(e) for e in s.value.elts)
            ):
                elts = s.value.elts
                bad = [e for e in elts if not is_request_call(e)]
                if bad:
                    raise self._err(
                        bad[0],
                        "malformed grouped request: every element of a "
                        "returned request group must be a ctx.request(...) "
                        "call",
                    )
                for e in elts:
                    self._check_no_requests_within(e)
                self.sites += len(elts)
                lst = ast.copy_location(
                    ast.List(elts=elts, ctx=ast.Load()), s.value
                )
                s.value = self._yield_of(s.value, lst)
                self.joins.append((len(elts), True))
                return s
            self._check_no_requests(s)
            return s
        if isinstance(s, (ast.If, ast.While)):
            self._check_no_requests(s.test)
            s.body = self.lower_block(s.body)
            s.orelse = self.lower_block(s.orelse)
            return s
        if isinstance(s, ast.For):
            self._check_no_requests(s.iter)
            s.body = self.lower_block(s.body)
            s.orelse = self.lower_block(s.orelse)
            return s
        if isinstance(s, ast.With):
            for item in s.items:
                self._check_no_requests(item.context_expr)
            s.body = self.lower_block(s.body)
            return s
        if isinstance(s, ast.Try):
            s.body = self.lower_block(s.body)
            s.orelse = self.lower_block(s.orelse)
            s.finalbody = self.lower_block(s.finalbody)
            for h in s.handlers:
                h.body = self.lower_block(h.body)
            return s
        if hasattr(ast, "Match") and isinstance(s, ast.Match):
            self._check_no_requests(s.subject)
            for case in s.cases:
                case.body = self.lower_block(case.body)
            return s
        # Everything else (pass, raise, aug-assign, nested defs, ...):
        # no request may hide inside.
        self._check_no_requests(s)
        return s


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def lower_method(behavior_name: str, method_name: str, fn: Callable
                 ) -> Optional[LoweredMethod]:
    """Lower one plain-def method into generator form.

    Returns ``None`` when the method needs no lowering: it is already
    lowered, already a generator (the explicit-yield frontend), has no
    request sites, or its source is unavailable (opaque methods stay
    on the generic path, exactly as inference treats them).
    """
    if getattr(fn, "__hal_lowered__", False):
        return None
    func = method_tree(fn)  # shared and read-only until copied below
    if func is None:
        return None
    if any(isinstance(n, (ast.Yield, ast.YieldFrom))
           for n in walk_scope(func)):
        return None  # explicit-yield frontend; dependence validates it
    lw = _Lowerer(behavior_name, method_name)
    if not any(is_request_call(n) for n in walk_scope(func)):
        # No own-scope sites — but a request buried in a nested def or
        # lambda would silently never execute, so reject it here.
        for n in walk_scope(func):
            if isinstance(n, _SCOPES) and n is not func:
                lw._check_no_nested_requests(n)
        return None  # nothing to split
    if fn.__closure__:
        firstlineno = fn.__code__.co_firstlineno
        raise CompileError(
            f"{behavior_name}.{method_name} (line {firstlineno}): cannot "
            "lower a method that closes over enclosing-scope variables; "
            "move it to module or class scope",
            behavior=behavior_name, method=method_name, lineno=firstlineno,
        )

    # The rewrite mutates the tree; another behaviour (a subclass) may
    # lower the same original function later.
    func = copy.deepcopy(func)
    func.body = lw.lower_block(func.body)
    func.decorator_list = []  # already applied to the original fn
    module = ast.Module(body=[func], type_ignores=[])
    ast.fix_missing_locations(module)
    code = compile(module, fn.__code__.co_filename, "exec")
    ns: dict = {}
    exec(code, fn.__globals__, ns)  # noqa: S102 - compiling our own AST
    new_fn = ns[func.name]
    # The lowered function is a drop-in: marker attributes (it *is* the
    # @method), constraints, defaults and identity all carry over.
    new_fn.__dict__.update(fn.__dict__)
    new_fn.__defaults__ = fn.__defaults__
    new_fn.__kwdefaults__ = fn.__kwdefaults__
    new_fn.__qualname__ = fn.__qualname__
    new_fn.__module__ = fn.__module__
    new_fn.__doc__ = fn.__doc__
    new_fn.__hal_lowered__ = True
    new_fn.__hal_lowered_ast__ = func
    return LoweredMethod(
        behavior_name, method_name, new_fn, func,
        sites=lw.sites, joins=lw.joins,
    )
