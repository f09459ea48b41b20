"""Causal tracing, latency histograms, and the timeline exporters.

White-box coverage for the observability subsystem: span propagation
through sends / migrations / FIR chases / replies, the fixed-bucket
histograms, both exporters, the CLI subcommands, and — crucially —
that all of it is inert and free when tracing is off.
"""

from __future__ import annotations

import json

import pytest

from repro import HalRuntime, RuntimeConfig
from repro.apps.scenarios import run_scenario
from repro.stats import Histogram, StatsRegistry
from repro.timeline import chrome_trace, spans_jsonl
from repro.tracectx import TraceCtx
from repro.tracing import (
    DEFAULT_SPAN_CAPACITY,
    NullSpanRecorder,
    Span,
    SpanRecorder,
)
from tests.conftest import EchoServer, Hopper, make_runtime


# ======================================================================
# SpanRecorder capacity accounting
# ======================================================================
class TestCapacityDrops:
    @pytest.mark.parametrize("backend", ["sim", "threaded"])
    def test_traced_machine_log_is_bounded(self, backend):
        # A traced machine's span ring holds DEFAULT_SPAN_CAPACITY
        # spans, overwrites the oldest past that and counts them, so a
        # long traced run holds a fixed footprint.
        rt = HalRuntime(RuntimeConfig(num_nodes=2, backend=backend), trace=True)
        try:
            rec = rt.spans
            assert rec.capacity == DEFAULT_SPAN_CAPACITY
            n = DEFAULT_SPAN_CAPACITY - rec.recorded + 3
            for i in range(n):
                rec.span(1, 0, f"tick {i}", "tick", 0, float(i))
            assert len(rec) == DEFAULT_SPAN_CAPACITY
            assert rec.overwrites == 3
            assert rec.spans[-1].name == f"tick {n - 1}"
        finally:
            rt.close()

    def test_span_recorder_ring_keeps_newest_and_counts_overwrites(self):
        # The span ring overwrites the *oldest* spans at capacity (the
        # recent past is what you debug with) and counts what was lost.
        rec = SpanRecorder(enabled=True, capacity=1)
        rec.span(1, 0, "a", "send", 0, 0.0)
        rec.span(1, 0, "b", "send", 0, 1.0)
        assert len(rec) == 1
        assert rec.overwrites == 1
        assert [s.name for s in rec.spans] == ["b"]
        assert "1 older spans overwritten in ring of 1" in rec.dump()


# ======================================================================
# histograms
# ======================================================================
class TestHistogram:
    def test_percentiles_interpolate_and_clamp(self):
        h = Histogram("lat")
        for v in (1, 2, 3, 4, 100):
            h.record(v)
        assert h.count == 5
        assert h.min == 1 and h.max == 100
        assert 1 <= h.p50 <= 4
        assert h.p99 == 100  # clamped to the observed max
        assert h.percentile(100) == 100

    def test_empty_histogram_is_silent(self):
        h = Histogram("empty")
        assert h.p50 == 0.0
        assert h.as_dict() == {"count": 0}

    def test_negative_values_clamp_to_zero(self):
        h = Histogram()
        h.record(-5.0)
        assert h.min == 0.0 and h.count == 1

    def test_reset_zeroes_in_place(self):
        reg = StatsRegistry()
        h = reg.hist("x")  # hot-path handle, bound once
        h.record(7)
        reg.reset()
        assert h.count == 0 and h.total == 0.0
        h.record(3)
        assert reg.hist("x").count == 1  # same object

    def test_as_dict_sparse_buckets(self):
        h = Histogram("d")
        h.record(0.5)
        h.record(5)
        d = h.as_dict()
        assert d["count"] == 2
        assert d["buckets"] == {"1.0": 1, "8.0": 1}


class TestStatsRegistrySnapshots:
    def test_snapshot_gains_hist_keys_only_when_recorded(self):
        reg = StatsRegistry()
        reg.hist("quiet")  # bound but never fed
        assert not any(k.startswith("hist.") for k in reg.snapshot())
        reg.record_hist("lat", 4.0)
        snap = reg.snapshot()
        assert snap["hist.lat.count"] == 1.0
        assert "hist.quiet.count" not in snap

    def test_as_dict_round_trips_through_json(self):
        reg = StatsRegistry()
        reg.incr("a.b", 3)
        reg.record_time("t", 1.5)
        reg.set_gauge("g", 2.0)
        reg.record_hist("h", 10.0)
        d = reg.as_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["counters"] == {"a.b": 3}
        assert d["timers"]["t"]["count"] == 1
        assert d["gauges"] == {"g": 2.0}
        assert d["hists"]["h"]["count"] == 1


# ======================================================================
# tracing off: inert and invisible
# ======================================================================
class TestTracingOff:
    def test_untraced_runtime_gets_null_recorder(self):
        rt = make_runtime(4)
        assert isinstance(rt.spans, NullSpanRecorder)
        assert rt.spans.enabled is False

    def test_null_recorder_cannot_be_enabled(self):
        rec = NullSpanRecorder()
        with pytest.raises(ValueError):
            rec.enabled = True
        rec.enabled = False  # idempotent no-op is allowed
        rec.record(1, 2, 0, "x", "send", 0, 0.0, 0.0)
        assert len(rec) == 0

    def test_untraced_run_records_nothing(self):
        rt = make_runtime(4)
        ref = rt.spawn(EchoServer, at=1)
        assert rt.call(ref, "echo", 42) == 42
        assert len(rt.spans) == 0
        snap = rt.stats.snapshot()
        assert not any(k.startswith("hist.") for k in snap)

    def test_tracing_does_not_perturb_the_simulation(self):
        """Same workload, tracing on vs off: identical simulated time
        and identical counters (TraceCtx is 0 wire bytes)."""
        results = {}
        for trace in (False, True):
            res = run_scenario("fibonacci_loadbalance", n=10, trace=trace)
            rt = res.runtime
            snap = {k: v for k, v in rt.stats.snapshot().items()
                    if not k.startswith("hist.")}
            results[trace] = (rt.now, res.summary["value"], snap)
        assert results[False] == results[True]

    def test_trace_ctx_costs_nothing_on_the_wire(self):
        from repro.am.messages import payload_nbytes
        ctx = TraceCtx(7, 3, 125.0)
        assert payload_nbytes(ctx) == 0
        assert payload_nbytes(("x", ctx)) == payload_nbytes(("x",))


# ======================================================================
# span propagation
# ======================================================================
class TestSpanPropagation:
    def test_local_send_has_send_and_execute(self):
        rt = HalRuntime(RuntimeConfig(num_nodes=2), trace=True)
        rt.load_behaviors(EchoServer)
        ref = rt.spawn(EchoServer, at=0)
        rt.call(ref, "echo", 1, from_node=0)
        kinds = {s.kind for s in rt.spans}
        assert "send" in kinds and "execute" in kinds

    def test_remote_send_records_network_hop(self):
        rt = HalRuntime(RuntimeConfig(num_nodes=2), trace=True)
        rt.load_behaviors(EchoServer)
        ref = rt.spawn(EchoServer, at=1)
        rt.call(ref, "echo", 1, from_node=0)
        hops = rt.spans.of_kind("hop")
        assert hops, "remote delivery must record a hop span"
        (tid,) = {h.trace_id for h in hops}
        kinds = rt.spans.kinds_in_tree(tid)
        # The journey threads send -> hop -> execute in one tree.
        assert kinds.index("send") < kinds.index("hop") < kinds.index("execute")
        hop = hops[0]
        assert hop.duration_us > 0  # spans the wire transit interval

    def test_migration_journey_spans(self):
        rt = HalRuntime(RuntimeConfig(num_nodes=4), trace=True)
        rt.load_behaviors(Hopper)
        ref = rt.spawn(Hopper, at=0)
        rt.send(ref, "hop", 2, from_node=0)
        rt.run()
        assert rt.locate(ref) == 2
        out = rt.spans.of_kind("migrate.out")
        assert len(out) == 1
        tid = out[0].trace_id
        kinds = rt.spans.kinds_in_tree(tid)
        # The migration parents under the execution that requested it.
        for k in ("execute", "migrate.out", "migrate.in", "migrate.ack"):
            assert k in kinds, (k, kinds)

    def test_nested_request_stays_in_one_trace(self):
        """An execution's own sends parent to its execute span, so a
        request chain is a single causal tree."""
        rt = HalRuntime(RuntimeConfig(num_nodes=2), trace=True)
        rt.load_behaviors(EchoServer)
        a = rt.spawn(EchoServer, at=0)
        b = rt.spawn(EchoServer, at=1)
        rt.call(a, "echo", 5)
        rt.call(b, "add", 1, 2)
        executes = rt.spans.of_kind("execute")
        assert len(executes) == 2
        assert len({s.trace_id for s in executes}) == 2  # separate journeys

    def test_remote_creation_spans(self):
        rt = HalRuntime(RuntimeConfig(num_nodes=4), trace=True)
        rt.load_behaviors(EchoServer)
        ref = rt.spawn_remote(EchoServer, at=2, issuing_node=0)
        rt.run()
        assert rt.call(ref, "echo", 9) == 9
        assert rt.spans.count("create.issue") == 1
        assert rt.spans.count("create.serve") == 1
        issue = rt.spans.of_kind("create.issue")[0]
        serve = rt.spans.of_kind("create.serve")[0]
        assert issue.trace_id == serve.trace_id


# ======================================================================
# the full journey: FIR chase with back-patching (the paper's §4.3)
# ======================================================================
class TestFirChaseJourney:
    @pytest.fixture(scope="class")
    def tour(self):
        return run_scenario("migration_tour")

    def test_probe_trace_shows_full_journey(self, tour):
        spans = tour.runtime.spans
        fir_starts = spans.of_kind("fir.start")
        assert len(fir_starts) == 1
        tid = fir_starts[0].trace_id
        kinds = spans.kinds_in_tree(tid)
        # send -> stale hop -> FIR chase -> resolve -> repair -> real
        # delivery -> execution, all one tree.
        for k in ("send", "hop", "fir.start", "fir.hop", "fir.resolve",
                  "fir.reply", "backpatch", "execute"):
            assert k in kinds, (k, kinds)
        order = [kinds.index(k) for k in
                 ("send", "fir.start", "fir.hop", "fir.resolve", "execute")]
        assert order == sorted(order)

    def test_chase_walks_the_whole_tour(self, tour):
        """With address caching off, the FIR must visit every former
        host: 3 migrations -> chain of length 3."""
        spans = tour.runtime.spans
        tid = spans.of_kind("fir.start")[0].trace_id
        hops = [s for s in spans.of_trace(tid) if s.kind == "fir.hop"]
        assert len(hops) == 3
        assert [s.node for s in hops] == [2, 3, 4]

    def test_fir_replies_backpatch_every_chain_member(self, tour):
        spans = tour.runtime.spans
        tid = spans.of_kind("fir.start")[0].trace_id
        patches = [s for s in spans.of_trace(tid) if s.kind == "backpatch"]
        # Every chain node (1, 2, 3) learns the actor's real address.
        assert sorted(s.node for s in patches) == [1, 2, 3]

    def test_chain_length_histogram_fed(self, tour):
        h = tour.runtime.stats.hist("fir_chain_length")
        assert h.count == 1 and h.max == 3.0

    def test_root_of_probe_tree_is_the_send(self, tour):
        spans = tour.runtime.spans
        tid = spans.of_kind("fir.start")[0].trace_id
        roots = spans.tree(tid)
        assert len(roots) == 1
        assert roots[0]["span"].kind == "send"


# ======================================================================
# work stealing carries causal context
# ======================================================================
class TestStealPropagation:
    def test_fib_forms_a_single_trace(self):
        res = run_scenario("fibonacci_loadbalance", n=12)
        rt = res.runtime
        assert res.summary["steals"] > 0
        assert len(rt.spans.trace_ids()) == 1
        # Stolen tasks executed on thief nodes stay in the trace.
        nodes = {s.node for s in rt.spans if s.kind == "task"}
        assert len(nodes) > 1


# ======================================================================
# exporters
# ======================================================================
class TestExporters:
    def _spans(self):
        return [
            Span(1, 1, 0, "send m", "send", 0, 10.0, 10.0, ("x",)),
            Span(1, 2, 1, "hop m", "hop", 3, 10.0, 14.5),
            Span(1, 3, 2, "E.m", "execute", -1, 15.0, 17.0),
        ]

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self._spans())
        assert json.loads(json.dumps(doc)) == doc
        evs = doc["traceEvents"]
        xs = [e for e in evs if e["ph"] == "X"]
        instants = [e for e in evs if e["ph"] == "i"]
        metas = [e for e in evs if e["ph"] == "M"]
        assert len(xs) == 2 and len(instants) == 1
        assert all("dur" in e for e in xs)
        # Frontend node -1 is remapped to a viewer-safe tid.
        assert {e["tid"] for e in xs} == {3, 10_000}
        names = {e["args"]["name"] for e in metas if e["name"] == "thread_name"}
        assert "frontend" in names and "node 3" in names

    def test_chrome_trace_category_is_kind_family(self):
        doc = chrome_trace(self._spans())
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert cats == {"send", "hop", "execute"}

    def test_spans_jsonl(self):
        text = spans_jsonl(self._spans())
        lines = text.strip().split("\n")
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["span_id"] == 1 and first["attrs"] == ["'x'"]
        assert spans_jsonl([]) == ""

    def test_scenario_exports_valid_chrome_trace(self):
        res = run_scenario("migration_tour")
        doc = chrome_trace(res.runtime.spans.spans)
        evs = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert len(evs) == len(res.runtime.spans)
        json.dumps(doc)  # fully serialisable


# ======================================================================
# CLI
# ======================================================================
class TestCli:
    def test_trace_subcommand_writes_chrome_json(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "tour.json"
        assert main(["trace", "migration_tour", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        text = capsys.readouterr().out
        assert "spans[fir.hop]" in text

    def test_trace_subcommand_jsonl(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "spans.jsonl"
        assert main(["trace", "migration_tour", "--format", "jsonl",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert all(json.loads(ln)["trace_id"] for ln in lines)

    def test_stats_subcommand_renders_histograms(self, capsys):
        from repro.cli import main
        assert main(["stats", "migration_tour"]) == 0
        text = capsys.readouterr().out
        assert "fir_chain_length" in text
        assert "p99" in text

    def test_stats_subcommand_json(self, capsys):
        from repro.cli import main
        assert main(["stats", "fibonacci_loadbalance", "--n", "10",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hists"]["execution_time_us"]["count"] > 0

    def test_unknown_scenario_errors_cleanly(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["trace", "no_such_scenario"])
