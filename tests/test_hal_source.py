"""One parse per method and the memoised universe analysis: a program
linked again in the same process reads no source and reruns no
fixpoint, while any change to what the analysis reads — the universe's
behaviours, a method table, ``strict`` — compiles afresh."""

from __future__ import annotations

import ast
import collections
import inspect
import os

import pytest

from repro import HalRuntime, RuntimeConfig, behavior, method
from repro.actors.behavior import behavior_of
from repro.errors import CompileError, TypeInferenceError
from repro.hal.compiler import compile_behaviors, compile_program
from repro.hal.lang import compile_hal
from repro.hal.lower import lower_method
from repro.hal.source import method_tree


def compiled(*classes, strict=True, universe=None, name="<adhoc>"):
    return compile_behaviors(
        {behavior_of(c).name: behavior_of(c) for c in classes},
        strict=strict, universe=universe, name=name,
    )


def grouped_body(self, ctx, a, b):
    x = ctx.request(a, "value")
    y = ctx.request(b, "value")
    return x + y


def resetup_body(self, ctx):
    ctx.send(ctx.me, "setup")


class TestOneParsePerMethod:
    def test_second_runtime_parses_nothing(self, monkeypatch):
        # Classes made here are fresh objects on every run, so no other
        # test can have parsed their methods already.
        @behavior
        class Source:
            def __init__(self):
                pass

            @method
            def value(self, ctx):
                return 1

        @behavior
        class Sink:
            def __init__(self):
                pass

            @method
            def total(self, ctx, a, b):
                x = ctx.request(a, "value")
                y = ctx.request(b, "value")
                return x + y

            @method
            def chained(self, ctx, a):
                v = yield ctx.request(a, "value")
                return v

        originals = [*behavior_of(Source).methods.values(),
                     *behavior_of(Sink).methods.values()]
        parsed = collections.Counter()
        real = inspect.getsourcelines

        def counting(obj):
            parsed[obj] += 1
            return real(obj)

        monkeypatch.setattr(inspect, "getsourcelines", counting)
        for _ in range(2):
            rt = HalRuntime(RuntimeConfig(num_nodes=2))
            try:
                rt.load_behaviors(Source, Sink)
                a, b = rt.spawn(Source, at=0), rt.spawn(Source, at=1)
                assert rt.call(rt.spawn(Sink, at=0), "total", a, b) == 2
            finally:
                rt.close()
        assert {fn: parsed[fn] for fn in originals} == {
            fn: 1 for fn in originals
        }
        assert max(parsed.values()) == 1

    def test_tree_has_absolute_lines_and_is_shared(self):
        tree = method_tree(grouped_body)
        assert tree is method_tree(grouped_body)
        assert tree.lineno == grouped_body.__code__.co_firstlineno
        assert method_tree(len) is None  # no Python source

    def test_lowered_function_does_not_inherit_the_tree(self):
        original = method_tree(grouped_body)
        lm = lower_method("B", "grouped_body", grouped_body)
        assert set(vars(lm.fn)) - set(vars(grouped_body)) == {
            "__hal_lowered__", "__hal_lowered_ast__",
        }
        assert lm.node is not original
        # The rewrite happened on a copy: the shared tree is still the
        # plain-def body, with no compiler-inserted split point.
        assert not any(isinstance(n, ast.Yield) for n in ast.walk(original))
        assert method_tree(lm.fn) is not original

    def test_subclass_lowering_the_same_method_gets_the_same_shape(self):
        @behavior
        class Base:
            def __init__(self):
                pass

            grouped = method(grouped_body)

        @behavior
        class Derived(Base):
            pass

        cp = compiled(Base, Derived)
        base = cp.dependence.continuations[("Base", "grouped")]
        derived = cp.dependence.continuations[("Derived", "grouped")]
        assert base.shape == derived.shape == ((2, True),)
        assert base.lowered and derived.lowered
        assert (behavior_of(Base).methods["grouped"]
                is not behavior_of(Derived).methods["grouped"])

    def test_mini_hal_programs_get_their_own_plans(self):
        # Same generated layout, same method name on the same line of
        # a same-shaped synthetic file: only the bodies differ.
        plans = {}
        for target, selector in (("leaf", "poke"), ("other", "nudge")):
            program = compile_hal(f"""
                (defbehavior leaf () (method poke () (reply 1)))
                (defbehavior other () (method nudge () (reply 2)))
                (defbehavior root () (method go () (send (new {target}) {selector})))
            """, "twin")
            cp = compile_program(program)
            plans[target] = [
                (p["selector"], p["kind"], p["receivers"])
                for p in cp.report_dict()["behaviors"]["root"]["plans"]
            ]
        assert plans == {
            "leaf": [("poke", "static", ["leaf"])],
            "other": [("nudge", "static", ["other"])],
        }


class TestUniverseCache:
    def _pair(self):
        @behavior
        class Leaf:
            def __init__(self):
                pass

            @method
            def poke(self, ctx):
                pass

        @behavior
        class Root:
            def __init__(self):
                self.kid = None

            @method
            def setup(self, ctx):
                self.kid = ctx.new(Leaf)

            @method
            def fwd(self, ctx):
                ctx.send(self.kid, "poke")

        return Leaf, Root

    def test_relink_reuses_the_analysis_but_not_the_program(self):
        Leaf, Root = self._pair()
        first = compiled(Leaf, Root, name="one")
        second = compiled(Leaf, Root, name="two")
        assert second.inference is first.inference
        assert second.dependence is first.dependence
        assert (first.name, second.name) == ("one", "two")
        assert second.behaviors["Root"] is not first.behaviors["Root"]
        assert behavior_of(Root).compiled is second.behaviors["Root"]
        assert second.diagnostics is not first.diagnostics
        assert second.report().splitlines()[1:] == first.report().splitlines()[1:]

    def test_adding_a_behaviour_recompiles(self):
        Leaf, Root = self._pair()
        alone = compiled(Root)
        assert alone.behaviors["Root"].plan_for("fwd", "poke") == "generic"
        linked = compiled(Root, universe={"Leaf": behavior_of(Leaf)})
        assert linked.inference is not alone.inference
        assert linked.behaviors["Root"].plan_for("fwd", "poke") == "static"

    def test_replacing_a_method_recompiles(self):
        Leaf, Root = self._pair()
        before = compiled(Leaf, Root)
        assert before.behaviors["Root"].plan_for("fwd", "poke") == "static"
        behavior_of(Root).methods["fwd"] = resetup_body
        after = compiled(Leaf, Root)
        assert after.inference is not before.inference
        assert after.behaviors["Root"].plan_for("fwd", "poke") == "generic"
        assert after.behaviors["Root"].plan_for("fwd", "setup") == "static"

    def test_flipping_strict_recompiles(self):
        @behavior
        class Mute:
            def __init__(self):
                pass

            @method
            def hush(self, ctx):
                pass

        @behavior
        class Caller:
            def __init__(self):
                self.kid = None

            @method
            def setup(self, ctx):
                self.kid = ctx.new(Mute)

            @method
            def bad(self, ctx):
                ctx.send(self.kid, "no_such_method")

        with pytest.raises(TypeInferenceError, match="no such method"):
            compiled(Mute, Caller)
        lax = compiled(Mute, Caller, strict=False)
        assert lax.behaviors["Caller"].plan_for("bad", "no_such_method") == "generic"
        assert any("warning" in d for d in lax.diagnostics)
        with pytest.raises(TypeInferenceError, match="no such method"):
            compiled(Mute, Caller)

    def test_compile_error_is_raised_again_with_its_absolute_line(self):
        @behavior
        class Yielder:
            def __init__(self):
                pass

            @method
            def go(self, ctx):
                yield 5

        @behavior
        class Splitter:
            def __init__(self):
                pass

            @method
            def go(self, ctx, a):
                if ctx.request(a, "value"):
                    return 1
                return 0

        for cls, offset in ((Yielder, 2), (Splitter, 2)):
            line = cls.go.__code__.co_firstlineno + offset
            for _ in range(2):
                with pytest.raises(CompileError) as ei:
                    compiled(cls)
                assert ei.value.lineno == line
                assert f"{cls.__name__}.go (line {line}):" in str(ei.value)


def test_only_source_module_reads_or_parses_source():
    """Every compiler stage gets method bodies from ``method_tree``."""
    import repro.hal
    root = os.path.dirname(repro.hal.__file__)
    offenders = []
    for dirpath, _, files in os.walk(root):
        for fname in files:
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            if os.path.relpath(path, root) == "source.py":
                continue
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)):
                    continue
                mod, attr = node.func.value.id, node.func.attr
                if ((mod == "inspect" and attr.startswith("getsource"))
                        or (mod == "ast" and attr == "parse")):
                    offenders.append(
                        f"{os.path.relpath(path, root)}:{node.lineno}"
                    )
    assert offenders == []
