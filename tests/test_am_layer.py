"""Active-message layer: handlers, sizes, endpoints, multicast, bulk."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from enum import IntEnum
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.actors.message import ReplyTarget
from repro.am.broadcast import TreeMulticaster
from repro.am.bulk import BulkManager
from repro.am.cmam import Endpoint
from repro.am.flowcontrol import AcceptAll, MinimalFlowControl
from repro.am.handler import HandlerRegistry
from repro.am.messages import WORD_BYTES, message_nbytes, payload_nbytes
from repro.config import NetworkParams
from repro.errors import FlowControlError, HandlerError, NetworkError
from repro.runtime.groups import GroupRef
from repro.runtime.names import ActorRef, AddrKind, MailAddress
from repro.sim.engine import SimNode, Simulator
from repro.sim.network import Network
from repro.stats import StatsRegistry
from repro.topology import HypercubeTopology
from repro.tracectx import TraceCtx


def make_endpoints(n=4):
    sim = Simulator()
    nodes = [SimNode(i, sim) for i in range(n)]
    stats = StatsRegistry()
    net = Network(sim, HypercubeTopology(n), nodes, NetworkParams(), stats)
    directory = {}
    eps = [
        Endpoint(node, net, directory, stats,
                 send_overhead_us=1.0, receive_overhead_us=1.0)
        for node in nodes
    ]
    return sim, eps, directory, net


class TestHandlerRegistry:
    def test_register_and_lookup(self):
        reg = HandlerRegistry()
        fn = lambda src: None
        reg.register("h", fn)
        assert reg.lookup("h") is fn
        assert "h" in reg
        assert len(reg) == 1

    def test_double_registration_rejected(self):
        reg = HandlerRegistry()
        reg.register("h", lambda src: None)
        with pytest.raises(HandlerError):
            reg.register("h", lambda src: None)
        reg.register("h", lambda src: None, replace=True)

    def test_missing_handler(self):
        with pytest.raises(HandlerError, match="no handler"):
            HandlerRegistry().lookup("nope")

    def test_empty_name_rejected(self):
        with pytest.raises(HandlerError):
            HandlerRegistry().register("", lambda src: None)


class TestPayloadSizes:
    def test_scalars_cost_one_word(self):
        for v in (None, True, 7, 3.14):
            assert payload_nbytes(v) == WORD_BYTES

    def test_strings_and_bytes(self):
        assert payload_nbytes("abcd") == 4 + 4
        assert payload_nbytes(b"xyz") == 4 + 3

    def test_numpy_arrays_cost_their_buffer(self):
        a = np.zeros(100, dtype=np.float64)
        assert payload_nbytes(a) == 4 + 800

    def test_containers_sum_elements(self):
        assert payload_nbytes((1, 2)) == 4 + 2 * WORD_BYTES
        assert payload_nbytes({1: 2}) == 4 + 2 * WORD_BYTES

    def test_wire_bytes_hint(self):
        class Opaque:
            WIRE_BYTES = 48
        assert payload_nbytes(Opaque()) == 48

    def test_unknown_objects_get_default(self):
        class Thing:
            pass
        assert payload_nbytes(Thing()) == 2 * WORD_BYTES

    def test_deep_nesting_is_bounded(self):
        v = 1
        for _ in range(100):
            v = [v]
        assert payload_nbytes(v) < 10_000

    def test_message_includes_header(self):
        assert message_nbytes((1,), packet_bytes=20) == 24

    @given(st.recursive(
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
        lambda inner: st.lists(inner, max_size=4),
        max_leaves=20,
    ))
    @settings(max_examples=80, deadline=None)
    def test_property_sizes_positive_and_deterministic(self, value):
        a = payload_nbytes(value)
        assert a >= WORD_BYTES
        assert payload_nbytes(value) == a


def _reference_nbytes(value, _depth=0):
    """The sizer as one plain ``isinstance`` chain, kept as the oracle
    for :func:`payload_nbytes` and its exact-type fast path."""
    if _depth > 16:
        return 4
    if isinstance(value, TraceCtx):
        return TraceCtx.WIRE_BYTES
    if value is None or isinstance(value, (bool, int, float)):
        return 4
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, np.ndarray):
        return 4 + int(value.nbytes)
    if isinstance(value, np.generic):
        return int(value.nbytes)
    if isinstance(value, (tuple, list, set, frozenset)):
        return 4 + sum(_reference_nbytes(v, _depth + 1) for v in value)
    if isinstance(value, dict):
        return 4 + sum(
            _reference_nbytes(k, _depth + 1) + _reference_nbytes(v, _depth + 1)
            for k, v in value.items()
        )
    size_hint = getattr(value, "WIRE_BYTES", None)
    if size_hint is not None:
        return int(size_hint)
    return 8


class _Colour(IntEnum):
    RED = 1
    BLUE = 2


class _Pair(NamedTuple):
    left: object
    right: object


_ADDR = MailAddress(AddrKind.ORDINARY, 3, 17)

#: One instance of every runtime class that declares ``WIRE_BYTES``.
_WIRE_BYTES_SAMPLES = [
    _ADDR,
    MailAddress(AddrKind.GROUP, 0, 2, aux=5, home=1),
    ActorRef(_ADDR),
    ReplyTarget(1, 7, 0),
    GroupRef((0, 2), 8, "cyclic", 4),
    TraceCtx(3, 5, 1.5),
]

_hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.sampled_from(list(_Colour)),
    st.sampled_from(_WIRE_BYTES_SAMPLES),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-2**31, 2**31).map(np.int64),
    st.booleans().map(np.bool_),
)
_leaves = st.one_of(
    _hashable_leaves,
    st.builds(np.zeros, st.integers(0, 5),
              dtype=st.sampled_from([np.float64, np.int32, np.uint8])),
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(_Pair, inner, inner),
        st.sets(_hashable_leaves, max_size=3),
        st.frozensets(_hashable_leaves, max_size=3),
        st.dictionaries(_hashable_leaves, inner, max_size=3),
    ),
    max_leaves=24,
)


def _nest(value, depth, wrappers):
    for i in range(depth):
        value = wrappers[i % len(wrappers)]([value, i])
    return value


class TestSizerMatchesReference:
    @given(_payloads)
    @settings(max_examples=300, deadline=None)
    def test_nested_payloads(self, value):
        assert payload_nbytes(value) == _reference_nbytes(value)
        assert message_nbytes((value, _ADDR, "sel"), 20) == (
            20 + _reference_nbytes(value) + _reference_nbytes(_ADDR)
            + _reference_nbytes("sel")
        )

    @given(_payloads, st.integers(14, 22),
           st.sampled_from([(list,), (tuple,), (list, tuple), (_Pair._make,)]))
    @settings(max_examples=120, deadline=None)
    def test_depth_bound(self, value, depth, wrappers):
        nested = _nest(value, depth, wrappers)
        assert payload_nbytes(nested) == _reference_nbytes(nested)

    def test_subclasses_and_numpy_scalars_use_the_chain(self):
        for value, size in [
            (np.float64(1.0), 4), (np.int64(1), 8), (np.bool_(True), 1),
            (_Colour.RED, 4), (TraceCtx(1, 2, 3.0), 0),
            (_Pair(1, "é"), 4 + 4 + 4 + 2), ("héllo", 4 + 6),
            ({1, 2}, 12), (frozenset(), 4), ({"a": 1}, 4 + 5 + 4),
        ]:
            assert payload_nbytes(value) == size == _reference_nbytes(value)

    def test_every_wire_bytes_class_is_sized_exactly(self):
        declared = set()
        for mod in pkgutil.walk_packages(repro.__path__, "repro."):
            if mod.name == "repro.__main__":
                continue
            for _, cls in inspect.getmembers(
                importlib.import_module(mod.name), inspect.isclass
            ):
                if cls.__module__.startswith("repro.") and "WIRE_BYTES" in vars(cls):
                    declared.add(cls)
        assert declared == {type(v) for v in _WIRE_BYTES_SAMPLES}
        for value in _WIRE_BYTES_SAMPLES:
            # Twice: the first call may memoise the type.
            for _ in range(2):
                assert payload_nbytes(value) == _reference_nbytes(value)
                assert payload_nbytes([value]) == 4 + _reference_nbytes(value)

class TestEndpoint:
    def test_send_runs_remote_handler(self):
        sim, eps, _, _ = make_endpoints()
        got = []
        eps[2].register("hello", lambda src, x: got.append((src, x)))
        eps[0].send(2, "hello", ("hi",))
        sim.run()
        assert got == [(0, "hi")]
        assert eps[2].delivered == 1

    def test_local_send_rejected(self):
        _, eps, _, _ = make_endpoints()
        with pytest.raises(NetworkError):
            eps[1].send(1, "x")

    def test_duplicate_endpoint_rejected(self):
        sim, eps, directory, net = make_endpoints(2)
        with pytest.raises(HandlerError):
            Endpoint(eps[0].node, net, directory, eps[0].stats,
                     send_overhead_us=1.0, receive_overhead_us=1.0)

    def test_send_charges_sender_cpu(self):
        sim, eps, _, _ = make_endpoints()
        eps[1].register("h", lambda src: None)
        eps[0].node.bootstrap(lambda: eps[0].send(1, "h"))
        assert eps[0].node.busy_us == pytest.approx(1.0)

    def test_deferred_send_from_running_handler(self):
        """A send issued with the node clock ahead of the heap clock is
        transmitted at its true simulated time."""
        sim, eps, _, _ = make_endpoints()
        arrivals = []
        eps[1].register("h", lambda src: arrivals.append(sim.now))

        def long_handler():
            eps[0].node.charge(1000.0)
            eps[0].send(1, "h")

        eps[0].node.execute(0.0, long_handler)
        sim.run()
        assert arrivals and arrivals[0] > 1000.0

    def test_run_local(self):
        _, eps, _, _ = make_endpoints()
        got = []
        eps[0].register("h", lambda src, v: got.append((src, v)))
        eps[0].run_local("h", (9,))
        assert got == [(0, 9)]


class TestMulticast:
    def test_reaches_every_node_once(self):
        sim, eps, directory, net = make_endpoints(8)
        mc = TreeMulticaster(net.topology, directory)
        mc.install()
        got = []
        for ep in eps:
            ep.register("mark", lambda src, ep=ep: got.append(ep.node_id))
        mc.multicast(eps[3], "mark")
        sim.run()
        assert sorted(got) == list(range(8))

    def test_tree_edges_cover_partition(self):
        sim, eps, directory, net = make_endpoints(8)
        mc = TreeMulticaster(net.topology, directory)
        mc.install()
        edges = mc.tree_edges(root=2)
        assert len(edges) == 7
        children = [c for _, c in edges]
        assert sorted(children + [2]) == list(range(8))

    def test_double_install_rejected(self):
        sim, eps, directory, net = make_endpoints(2)
        mc = TreeMulticaster(net.topology, directory)
        mc.install()
        with pytest.raises(HandlerError):
            mc.install()

    def test_multicast_before_install_rejected(self):
        sim, eps, directory, net = make_endpoints(2)
        mc = TreeMulticaster(net.topology, directory)
        with pytest.raises(HandlerError):
            mc.multicast(eps[0], "x")


class TestFlowControlPolicies:
    def test_accept_all(self):
        p = AcceptAll()
        assert p.on_request((0, 1), 100) is True
        assert p.on_complete((0, 1)) is None

    def test_minimal_serialises(self):
        p = MinimalFlowControl(1)
        assert p.on_request((0, 1), 10) is True
        assert p.on_request((1, 1), 10) is False
        assert p.on_request((2, 1), 10) is False
        assert p.waiting_count == 2
        assert p.on_complete((0, 1)) == (1, 1)
        assert p.on_complete((1, 1)) == (2, 1)
        assert p.on_complete((2, 1)) is None
        assert p.active_count == 0

    def test_max_active_validation(self):
        with pytest.raises(FlowControlError):
            MinimalFlowControl(0)

    def test_duplicate_request_rejected(self):
        p = MinimalFlowControl(1)
        p.on_request((0, 1), 10)
        with pytest.raises(FlowControlError):
            p.on_request((0, 1), 10)

    def test_unknown_completion_rejected(self):
        with pytest.raises(FlowControlError):
            MinimalFlowControl(1).on_complete((9, 9))

    def test_duplicate_waiting_request_not_requeued(self):
        """A retransmitted request whose key is already queued must not
        be enqueued a second time (it would be acked twice later)."""
        p = MinimalFlowControl(1)
        assert p.on_request((0, 1), 10) is True
        assert p.on_request((1, 1), 10) is False
        assert p.on_request((1, 1), 10) is False  # duplicate of a waiter
        assert p.waiting_count == 1
        assert p.on_complete((0, 1)) == (1, 1)
        # The lone queued copy was promoted; nothing is left to
        # double-ack.
        assert p.on_complete((1, 1)) is None
        assert p.active_count == 0
        assert p.waiting_count == 0


class TestBulkTransfer:
    def make_bulk(self, n=3, policy_cls=MinimalFlowControl):
        sim, eps, directory, net = make_endpoints(n)
        mgrs = [
            BulkManager(ep, policy_cls(1) if policy_cls is MinimalFlowControl
                        else policy_cls(),
                        request_cpu_us=1.0, ack_cpu_us=1.0)
            for ep in eps
        ]
        return sim, eps, mgrs

    def test_three_phase_delivery(self):
        sim, eps, mgrs = self.make_bulk()
        got = []
        eps[1].register("sink", lambda src, tag: got.append((src, tag)))
        tid = mgrs[0].send_bulk(1, "sink", ("block",), nbytes=10_000)
        assert tid == 1
        sim.run()
        assert got == [(0, "block")]
        assert mgrs[0].pending_outgoing == 0
        assert mgrs[1].pending_inbound == 0
        assert eps[0].stats.counter("bulk.completions") == 1

    def test_flow_control_defers_second_transfer(self):
        sim, eps, mgrs = self.make_bulk()
        order = []
        eps[2].register("sink", lambda src, tag: order.append(tag))
        mgrs[0].send_bulk(2, "sink", ("a",), nbytes=20_000)
        mgrs[1].send_bulk(2, "sink", ("b",), nbytes=20_000)
        sim.run()
        assert sorted(order) == ["a", "b"]
        assert eps[0].stats.counter("bulk.fc_deferred") >= 1

    def test_accept_all_never_defers(self):
        sim, eps, mgrs = self.make_bulk(policy_cls=AcceptAll)
        got = []
        eps[2].register("sink", lambda src, tag: got.append(tag))
        mgrs[0].send_bulk(2, "sink", ("a",), nbytes=20_000)
        mgrs[1].send_bulk(2, "sink", ("b",), nbytes=20_000)
        sim.run()
        assert len(got) == 2
        assert eps[0].stats.counter("bulk.fc_deferred") == 0

    def test_zero_byte_transfer_rejected(self):
        sim, eps, mgrs = self.make_bulk()
        eps[1].register("sink", lambda src: None)
        with pytest.raises(FlowControlError):
            mgrs[0].send_bulk(1, "sink", (), nbytes=0)

    def test_duplicated_request_packet_acked_once(self):
        """A wire-duplicated ``__bulk.req__`` whose key parks in the
        waiting queue must be acked exactly once.  Pre-fix the dup was
        enqueued a second time, and the completion path then acked the
        same transfer twice — the sender blew up with "ack for unknown
        transfer"."""
        from repro.sim.faults import FaultInjector, FaultPlan, FaultRule

        sim = Simulator()
        nodes = [SimNode(i, sim) for i in range(2)]
        stats = StatsRegistry()
        # Reliability is off (bare endpoints), so the duplicated wire
        # packet reaches the flow-control policy twice — the exact
        # regime the minimal policy must tolerate.
        plan = FaultPlan(by_kind={"__bulk.req__": FaultRule(duplicate=1.0)})
        net = Network(sim, HypercubeTopology(2), nodes, NetworkParams(),
                      stats, faults=FaultInjector(plan, 7, stats))
        directory = {}
        eps = [
            Endpoint(node, net, directory, stats,
                     send_overhead_us=1.0, receive_overhead_us=1.0)
            for node in nodes
        ]
        mgrs = [
            BulkManager(ep, MinimalFlowControl(1),
                        request_cpu_us=1.0, ack_cpu_us=1.0)
            for ep in eps
        ]
        got = []
        eps[1].register("sink", lambda src, tag: got.append(tag))
        # Occupy the receiver so the (duplicated) request parks in the
        # waiting queue instead of going active.
        busy = (99, 1)
        assert mgrs[1].policy.on_request(busy, 10) is True
        mgrs[0].send_bulk(1, "sink", ("block",), nbytes=10_000)
        sim.run()  # the request and its wire duplicate arrive and park
        assert got == []
        assert mgrs[1].policy.waiting_count == 1  # dup absorbed
        # Release the synthetic transfer; the queued request is acked.
        nxt = mgrs[1].policy.on_complete(busy)
        assert nxt == (0, 1)
        mgrs[1]._send_ack(nxt)
        sim.run()  # ack -> data -> completion (a second queued copy
        #            would fire a second ack here and crash the sender)
        assert got == ["block"]
        assert mgrs[0].pending_outgoing == 0
        assert mgrs[1].pending_inbound == 0
        assert mgrs[1].policy.active_count == 0
        assert mgrs[1].policy.waiting_count == 0

    def test_data_sized_by_nbytes_not_payload(self):
        """The data phase occupies the wire for the declared size."""
        sim, eps, mgrs = self.make_bulk()
        times = []
        eps[1].register("sink", lambda src: times.append(sim.now))
        mgrs[0].send_bulk(1, "sink", (), nbytes=100_000)
        sim.run()
        p = NetworkParams()
        assert times[0] > 100_000 * p.inject_us_per_byte
