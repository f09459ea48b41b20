"""Constraint-based type inference over behaviour method ASTs (§2, [27]).

The compiler analyses each ``@method`` body (the tree parsed once per
function by :func:`repro.hal.source.method_tree`) and computes, for
every *send site*, the set of behaviours the receiver may have at
runtime.  Inference is a classic monotone fixpoint:

- type variables exist for behaviour attributes (``self.x``), method
  parameters, method locals and method return values;
- ``ctx.new(B, ...)`` / ``ctx.grpnew(B, ...)`` / ``ctx.me`` /
  ``group.member(i)`` introduce reference atoms;
- ``ctx.send(r, "sel", a1..)`` and ``yield ctx.request(...)`` flow the
  argument types into the receiver behaviour's parameters and flow the
  receiver method's return type back to the requester;
- joins happen at assignments; everything unanalysable is ⊤ (``ANY``).

The result is deliberately *advisory*: dispatch plans derived from it
select cost paths, while the runtime still resolves methods by name,
so an over-optimistic inference can never produce wrong behaviour —
only a mis-charged microsecond (the same property the paper's
locality-check-guarded static dispatch has).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.actors.behavior import Behavior
from repro.errors import CompileError
from repro.hal.lower import walk_scope
from repro.hal.source import method_tree
from repro.hal.types import (
    ANY,
    BOTTOM,
    GroupOf,
    RefOf,
    SCALAR,
    TypeVal,
    atom,
    join,
    join_all,
    ref_behaviors,
)

#: Fixpoint iteration cap (the capped lattice converges long before).
MAX_ROUNDS = 64


@dataclass
class SendSite:
    """One ``ctx.send`` / ``ctx.request`` occurrence."""

    behavior: str
    method: str
    selector: Optional[str]  # None when not a string literal
    lineno: int
    is_request: bool
    #: Receiver behaviours inferred at fixpoint (None = ⊤).
    receivers: Optional[frozenset] = None


@dataclass
class MethodAnalysis:
    """Parsed form of one behaviour method.

    ``node`` carries *absolute* line numbers (the parse re-anchors the
    dedented snippet at the function's position in its source file), so
    every downstream diagnostic and report line points into the real
    file.  For methods the AST frontend lowered, ``node`` is the stored
    post-lowering AST — re-reading source would see the original
    plain-def body, not the generator the runtime executes.
    """

    behavior: str
    name: str
    params: List[str]
    node: ast.FunctionDef
    has_yield: bool
    analyzable: bool
    #: True when the body came out of the AST lowering frontend
    #: (plain-def source, compiler-inserted split points).
    lowered: bool = False


@dataclass
class InferenceResult:
    """Everything downstream passes need."""

    sites: List[SendSite] = field(default_factory=list)
    methods: Dict[Tuple[str, str], MethodAnalysis] = field(default_factory=dict)
    #: (behavior, method) pairs whose source could not be analysed.
    opaque_methods: List[Tuple[str, str]] = field(default_factory=list)
    diagnostics: List[str] = field(default_factory=list)

    def sites_of(self, behavior: str, method: str) -> List[SendSite]:
        return [
            s for s in self.sites
            if s.behavior == behavior and s.method == method
        ]


def _parse_method(behavior_name: str, name: str, fn) -> MethodAnalysis:
    """Parse one method into an AST, tolerating failure.

    Lowered methods hand back their stored post-lowering AST:
    ``inspect`` would return the *original* plain-def source (the
    rewritten code object deliberately keeps the original file and
    line numbers), which no longer matches what the runtime executes.
    """
    func = getattr(fn, "__hal_lowered_ast__", None)  # absolute linenos
    lowered = func is not None
    if not lowered:
        func = method_tree(fn)
        if func is None:
            return MethodAnalysis(behavior_name, name, [], None, False, False)  # type: ignore[arg-type]
    arg_names = [a.arg for a in func.args.args]
    # skip (self, ctx)
    params = arg_names[2:] if len(arg_names) >= 2 else []
    has_yield = any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in walk_scope(func)
    )
    return MethodAnalysis(
        behavior_name, name, params, func, has_yield, True, lowered=lowered
    )


class Inference:
    """The whole-program fixpoint."""

    def __init__(self, behaviors: Dict[str, Behavior]) -> None:
        self.behaviors = behaviors
        self.vars: Dict[tuple, TypeVal] = {}
        self.result = InferenceResult()
        self._changed = False
        for bname, beh in behaviors.items():
            for mname, fn in beh.methods.items():
                ma = _parse_method(bname, mname, fn)
                self.result.methods[(bname, mname)] = ma
                if not ma.analyzable:
                    self.result.opaque_methods.append((bname, mname))

    # ------------------------------------------------------------------
    # variable store
    # ------------------------------------------------------------------
    def _get(self, key: tuple) -> TypeVal:
        return self.vars.get(key, BOTTOM)

    def _flow(self, key: tuple, val: TypeVal) -> None:
        old = self.vars.get(key, BOTTOM)
        new = join(old, val)
        if new != old:
            self.vars[key] = new
            self._changed = True

    # ------------------------------------------------------------------
    def run(self) -> InferenceResult:
        for _ in range(MAX_ROUNDS):
            self._changed = False
            self.result.sites.clear()
            for (bname, mname), ma in self.result.methods.items():
                if ma.analyzable:
                    _MethodWalker(self, ma).walk()
            if not self._changed:
                break
        else:  # pragma: no cover - capped lattice converges quickly
            self.result.diagnostics.append(
                f"inference did not converge in {MAX_ROUNDS} rounds"
            )
        # Resolve final receiver sets on sites.
        for site in self.result.sites:
            pass  # receivers already resolved during the final round
        return self.result

    # ------------------------------------------------------------------
    # cross-method flows
    # ------------------------------------------------------------------
    def flow_send(self, receivers: Optional[frozenset], selector: Optional[str],
                  arg_vals: List[TypeVal]) -> None:
        """Flow argument types into the receiver methods' parameters."""
        if receivers is None or selector is None:
            return
        for bname in receivers:
            beh = self.behaviors.get(bname)
            if beh is None or selector not in beh.methods:
                continue
            ma = self.result.methods.get((bname, selector))
            if ma is None or not ma.analyzable:
                continue
            for pname, aval in zip(ma.params, arg_vals):
                self._flow(("param", bname, selector, pname), aval)

    def return_type(self, receivers: Optional[frozenset],
                    selector: Optional[str]) -> TypeVal:
        """Join of the receiver methods' return types (⊤ if unknown)."""
        if receivers is None or selector is None:
            return ANY
        vals = []
        for bname in receivers:
            if (bname, selector) in self.result.methods:
                if not self.result.methods[(bname, selector)].analyzable:
                    return ANY
                vals.append(self._get(("ret", bname, selector)))
            else:
                return ANY
        return join_all(vals) if vals else ANY


class _MethodWalker:
    """Abstract interpretation of one method body."""

    def __init__(self, inf: Inference, ma: MethodAnalysis) -> None:
        self.inf = inf
        self.ma = ma
        self.B = ma.behavior
        self.M = ma.name

    # -- variable helpers ------------------------------------------------
    def _local(self, name: str) -> tuple:
        if name in self.ma.params:
            return ("param", self.B, self.M, name)
        return ("local", self.B, self.M, name)

    def _attr(self, name: str) -> tuple:
        return ("attr", self.B, name)

    # ------------------------------------------------------------------
    def walk(self) -> None:
        for stmt in self.ma.node.body:
            self._stmt(stmt)

    # ------------------------------------------------------------------
    def _stmt(self, s: ast.stmt) -> None:
        if isinstance(s, ast.Assign):
            val = self._assign_value(s.value, s.targets)
            for t in s.targets:
                self._bind(t, val, s.value)
        elif isinstance(s, ast.AnnAssign) and s.value is not None:
            self._bind(s.target, self._expr(s.value), s.value)
        elif isinstance(s, ast.AugAssign):
            val = self._expr(s.value)
            if isinstance(s.target, ast.Name):
                self.inf._flow(self._local(s.target.id), join(val, SCALAR_SET))
            elif self._is_self_attr(s.target):
                self.inf._flow(self._attr(s.target.attr), join(val, SCALAR_SET))
        elif isinstance(s, ast.Expr):
            self._expr(s.value)
        elif isinstance(s, ast.Return):
            if s.value is not None:
                self.inf._flow(("ret", self.B, self.M), self._expr(s.value))
        elif isinstance(s, (ast.If, ast.While)):
            self._expr(s.test)
            for sub in s.body + s.orelse:
                self._stmt(sub)
        elif isinstance(s, ast.For):
            elem = self._iter_elem(s.iter)
            self._bind(s.target, elem, None)
            for sub in s.body + s.orelse:
                self._stmt(sub)
        elif isinstance(s, (ast.With,)):
            for sub in s.body:
                self._stmt(sub)
        elif isinstance(s, ast.Try):
            for sub in s.body + s.orelse + s.finalbody:
                self._stmt(sub)
            for h in s.handlers:
                for sub in h.body:
                    self._stmt(sub)
        # pass/break/continue/raise/import: nothing to do

    # ------------------------------------------------------------------
    def _assign_value(self, value: ast.expr, targets: List[ast.expr]) -> TypeVal:
        """Evaluate an assignment RHS; yields are request results."""
        if isinstance(value, ast.Yield):
            return self._yield_value(value, targets)
        return self._expr(value)

    def _yield_value(self, y: ast.Yield, targets: List[ast.expr]) -> TypeVal:
        inner = y.value
        if inner is None:
            return SCALAR_SET
        if isinstance(inner, (ast.List, ast.Tuple)):
            elem_types = [self._request_result(e) for e in inner.elts]
            # Tuple-unpack targets get element-wise types.
            if (
                len(targets) == 1
                and isinstance(targets[0], (ast.Tuple, ast.List))
                and len(targets[0].elts) == len(elem_types)
            ):
                for t, tv in zip(targets[0].elts, elem_types):
                    self._bind(t, tv, None)
                return _CONSUMED
            return join_all(elem_types)
        return self._request_result(inner)

    def _request_result(self, e: ast.expr) -> TypeVal:
        """Type of one yielded request's reply."""
        if isinstance(e, ast.Call) and self._is_ctx_call(e, "request"):
            if not e.args:
                return ANY
            recv = self._expr(e.args[0])
            selector = self._literal_selector(e, arg_index=1)
            receivers = ref_behaviors(recv)
            arg_vals = [self._expr(a) for a in e.args[2:]]
            self.inf.flow_send(receivers, selector, arg_vals)
            self.inf.result.sites.append(SendSite(
                self.B, self.M, selector, e.lineno, True,
                receivers=receivers,
            ))
            return self.inf.return_type(receivers, selector)
        if isinstance(e, ast.Call) and self._is_ctx_call(e, "request_create"):
            bname = self._behavior_name(e.args[0]) if e.args else None
            return atom(RefOf(bname)) if bname else ANY
        # Yielding something we don't model.
        self._expr(e)
        return ANY

    # ------------------------------------------------------------------
    def _bind(self, target: ast.expr, val: TypeVal, rhs) -> None:
        if val is _CONSUMED:
            return
        if isinstance(target, ast.Name):
            self.inf._flow(self._local(target.id), val)
        elif self._is_self_attr(target):
            self.inf._flow(self._attr(target.attr), val)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for t in target.elts:
                self._bind(t, ANY if val is ANY else self._elem_of(val), rhs)
        # Subscript / attribute-of-other: ignored (heap-allocated).

    @staticmethod
    def _elem_of(val: TypeVal) -> TypeVal:
        # Unpacking an unknown container: be conservative.
        return ANY

    def _iter_elem(self, it: ast.expr) -> TypeVal:
        """Element type of an iterated expression."""
        if isinstance(it, ast.Call):
            # range(...) and friends iterate scalars.
            if isinstance(it.func, ast.Name) and it.func.id in (
                "range", "enumerate", "zip", "sorted", "reversed",
            ):
                for a in it.args:
                    self._expr(a)
                return SCALAR_SET if it.func.id == "range" else ANY
            # group.members() iterates member references.
            if isinstance(it.func, ast.Attribute) and it.func.attr == "members":
                base = self._expr(it.func.value)
                names = _group_behaviors(base)
                if names is not None:
                    return join_all(atom(RefOf(n)) for n in names) or BOTTOM
            self._expr(it)
            return ANY
        self._expr(it)
        return ANY

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _expr(self, e: ast.expr) -> TypeVal:
        if isinstance(e, ast.Constant):
            return SCALAR_SET
        if isinstance(e, ast.Name):
            if e.id == "self" or e.id == "ctx":
                return ANY
            return self.inf._get(self._local(e.id))
        if isinstance(e, ast.Attribute):
            if self._is_self_attr(e):
                return self.inf._get(self._attr(e.attr))
            if isinstance(e.value, ast.Name) and e.value.id == "ctx":
                if e.attr == "me":
                    return atom(RefOf(self.B))
                return ANY
            self._expr(e.value)
            return ANY
        if isinstance(e, ast.Call):
            return self._call(e)
        if isinstance(e, ast.BinOp):
            self._expr(e.left); self._expr(e.right)
            return SCALAR_SET
        if isinstance(e, (ast.Compare, ast.UnaryOp)):
            for sub in ast.iter_child_nodes(e):
                if isinstance(sub, ast.expr):
                    self._expr(sub)
            return SCALAR_SET
        if isinstance(e, ast.BoolOp):
            return join_all(self._expr(v) for v in e.values)
        if isinstance(e, ast.IfExp):
            self._expr(e.test)
            return join(self._expr(e.body), self._expr(e.orelse))
        if isinstance(e, (ast.List, ast.Tuple, ast.Set)):
            for el in e.elts:
                self._expr(el)
            return ANY
        if isinstance(e, ast.Dict):
            for k in e.keys:
                if k is not None:
                    self._expr(k)
            for v in e.values:
                self._expr(v)
            return ANY
        if isinstance(e, ast.Subscript):
            self._expr(e.value)
            return ANY
        if isinstance(e, ast.JoinedStr):
            return SCALAR_SET
        if isinstance(e, ast.Yield):
            # bare `yield req` used for its value in an expression
            return self._yield_value(e, [])
        # Lambdas, comprehensions, starred, etc.
        for sub in ast.walk(e):
            if isinstance(sub, ast.Call):
                self._call(sub)
        return ANY

    # ------------------------------------------------------------------
    def _call(self, e: ast.Call) -> TypeVal:
        if self._is_ctx_call(e, "send"):
            recv = self._expr(e.args[0]) if e.args else BOTTOM
            selector = self._literal_selector(e, arg_index=1)
            receivers = ref_behaviors(recv)
            arg_vals = [self._expr(a) for a in e.args[2:]]
            self.inf.flow_send(receivers, selector, arg_vals)
            self.inf.result.sites.append(SendSite(
                self.B, self.M, selector, e.lineno, False,
                receivers=receivers,
            ))
            return SCALAR_SET
        if self._is_ctx_call(e, "new"):
            bname = self._behavior_name(e.args[0]) if e.args else None
            for a in e.args[1:]:
                self._expr(a)
            return atom(RefOf(bname)) if bname else ANY
        if self._is_ctx_call(e, "grpnew"):
            bname = self._behavior_name(e.args[0]) if e.args else None
            for a in e.args[1:]:
                self._expr(a)
            return atom(GroupOf(bname)) if bname else ANY
        if self._is_ctx_call(e, "reply"):
            if e.args:
                self.inf._flow(("ret", self.B, self.M), self._expr(e.args[0]))
            return SCALAR_SET
        if self._is_ctx_call(e, "broadcast"):
            for a in e.args:
                self._expr(a)
            return SCALAR_SET
        # group.member(i) -> a member reference
        if (
            isinstance(e.func, ast.Attribute)
            and e.func.attr == "member"
            and e.args
        ):
            base = self._expr(e.func.value)
            self._expr(e.args[0])
            names = _group_behaviors(base)
            if names is not None:
                return join_all(atom(RefOf(n)) for n in names) or BOTTOM
            return ANY
        # Anything else: evaluate sub-expressions, result unknown.
        for a in e.args:
            self._expr(a)
        for kw in e.keywords:
            if kw.value is not None:
                self._expr(kw.value)
        if isinstance(e.func, ast.Attribute):
            self._expr(e.func.value)
        return ANY

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _is_self_attr(e: ast.expr) -> bool:
        return (
            isinstance(e, ast.Attribute)
            and isinstance(e.value, ast.Name)
            and e.value.id == "self"
        )

    @staticmethod
    def _is_ctx_call(e: ast.Call, name: str) -> bool:
        return (
            isinstance(e.func, ast.Attribute)
            and e.func.attr == name
            and isinstance(e.func.value, ast.Name)
            and e.func.value.id == "ctx"
        )

    @staticmethod
    def _literal_selector(e: ast.Call, arg_index: int) -> Optional[str]:
        if len(e.args) > arg_index:
            sel = e.args[arg_index]
            if isinstance(sel, ast.Constant) and isinstance(sel.value, str):
                return sel.value
        return None

    def _behavior_name(self, e: ast.expr) -> Optional[str]:
        """Resolve a behaviour-class expression to a loaded name."""
        name = None
        if isinstance(e, ast.Name):
            name = e.id
        elif isinstance(e, ast.Attribute):
            name = e.attr
        if name is not None and name in self.inf.behaviors:
            return name
        return None


def _group_behaviors(val: TypeVal):
    if val is ANY:
        return None
    names = set()
    for a in val:
        if isinstance(a, GroupOf) and a.behavior:
            names.add(a.behavior)
        else:
            return None
    return frozenset(names)


SCALAR_SET = atom(SCALAR)
_CONSUMED = object()  # sentinel: value already bound element-wise


def infer_program(behaviors: Dict[str, Behavior]) -> InferenceResult:
    """Run whole-program inference and return the annotated result."""
    return Inference(behaviors).run()
