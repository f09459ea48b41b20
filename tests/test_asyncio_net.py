"""Socket-cluster backend: stream reassembly, the reliable-layer attach
rule, and cluster naming.

The segmentation property drives the code every cluster link actually
runs — mp's ``_SocketChannel.read_available`` over a real loopback TCP
pair: TCP may present any byte chunking of any frame sequence, and the
channel's decoder must reassemble exactly the sent records.  The
attach tests pin that loss repair is a layer added where loss is
injected, not a tax on every message.  The naming tests pin the
driver-side FIR-style chase: resolution starts from the birthplace
shard an address encodes, follows forwarding guesses, and back-patches
the driver cache.
"""

from __future__ import annotations

import select
import socket
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import FaultPlan, check_invariants
from repro.apps.scenarios import run_migration_tour, run_scenario
from repro.config import NetParams, RuntimeConfig
from repro.hal.dsl import behavior, method
from repro.platform.base import WirePacket
from repro.platform.mp import _SocketChannel
from repro.platform.wireformat import FrameDecoder, FrameEncoder
from repro.runtime.system import HalRuntime


# ----------------------------------------------------------------------
# adversarial TCP segmentation through the channel's read path
# ----------------------------------------------------------------------
def _tcp_pair():
    """A connected loopback TCP pair: a raw writer socket and a
    ``_SocketChannel`` on the reading end."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        writer = socket.create_connection(listener.getsockname())
        reader, _ = listener.accept()
    writer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return writer, _SocketChannel(reader)


def _read(ch: _SocketChannel) -> bool:
    """Wait for the link to turn readable, then read it as the worker
    loop does; False once the peer has closed."""
    select.select([ch.sock], [], [], 5.0)
    try:
        ch.read_available()
    except EOFError:
        return False
    return True


def _simple_packets():
    names = st.sampled_from(["deliver_keyed", "fir_req", "__rel__", "h"])
    return st.builds(
        WirePacket,
        src=st.integers(0, 7),
        dst=st.integers(0, 7),
        handler=names,
        args=st.tuples(st.integers(-1000, 1000), st.text(max_size=8)),
        nbytes=st.integers(1, 4096),
        kind=names,
    )


class TestAdversarialSegmentation:
    @given(
        st.lists(_simple_packets(), min_size=1, max_size=16),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_read_available_reassembles_any_chunking(self, pkts, data):
        """Write the wire bytes in adversarially-chosen chunks, pausing
        or reading between them; the records drained after every read
        must add up to exactly what a whole-stream decode yields."""
        enc = FrameEncoder()
        wire = bytearray()
        for i, p in enumerate(pkts):
            enc.add_message(p)
            # Interleave control records and frame boundaries so the
            # chunking crosses frames, not just messages.
            if data.draw(st.booleans(), label=f"token after {i}"):
                enc.add_token(i, i - 3, bool(i & 1))
            if data.draw(st.booleans(), label=f"flush after {i}"):
                wire += enc.take_frame()
        enc.add_quiesce(99)
        wire += enc.take_frame()
        expect_dec = FrameDecoder()
        expect_dec.feed(bytes(wire))
        expected = list(expect_dec.drain())

        writer, ch = _tcp_pair()
        records = []
        try:
            pos = 0
            while pos < len(wire):
                step = data.draw(
                    st.integers(1, len(wire) - pos), label="chunk size"
                )
                writer.sendall(wire[pos:pos + step])
                pos += step
                action = data.draw(
                    st.sampled_from(["none", "pause", "read"]), label="then"
                )
                if action == "pause":
                    time.sleep(0.001)
                elif action == "read":
                    # The worker loop may run on any prefix of the stream.
                    _read(ch)
                    records += ch.decoder.drain()
            writer.close()
            while _read(ch):
                records += ch.decoder.drain()
            records += ch.decoder.drain()
        finally:
            writer.close()
            ch.close()
        assert records == expected
        assert ch.decoder.buffered_bytes == 0

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_frame_cut_at_any_byte_yields_nothing_early(self, data):
        """A frame cut at any byte yields no record until its last byte
        arrives, and then exactly its record."""
        enc = FrameEncoder()
        p = WirePacket(0, 1, "deliver_keyed", (42,), 64, "deliver_keyed")
        enc.add_message(p)
        wire = enc.take_frame()
        cut = data.draw(st.integers(1, len(wire) - 1), label="cut")
        writer, ch = _tcp_pair()
        try:
            writer.sendall(wire[:cut])
            while ch.decoder.buffered_bytes < cut:
                assert _read(ch)
                assert ch.decoder.drain() == []
            writer.sendall(wire[cut:])
            late = []
            while not late:
                assert _read(ch)
                late = ch.decoder.drain()
        finally:
            writer.close()
            ch.close()
        assert late == [("msg", p)]


# ----------------------------------------------------------------------
# the reliable-AM sublayer attaches where loss is injected, as on mp
# ----------------------------------------------------------------------
def _rel_counters(rt) -> dict:
    return {
        k: v for k, v in rt.stats.counters.items() if k.startswith("rel.")
    }


class TestReliableAttach:
    def test_fault_free_run_books_no_reliable_traffic(self):
        res = run_scenario("ping_pong", trace=False, backend="asyncio")
        try:
            assert res.summary["rally"] == 40
            assert _rel_counters(res.runtime) == {}
        finally:
            res.runtime.close()

    def test_fault_plan_attaches_the_reliable_layer(self):
        plan = FaultPlan.protocol_chaos(
            seed=5, drop=0.05, duplicate=0.05, delay=0.1,
            delay_us=(10.0, 150.0),
        )
        res = run_scenario(
            "ping_pong", trace=False, backend="asyncio", faults=plan,
        )
        try:
            assert res.summary["rally"] == 40
            assert _rel_counters(res.runtime)["rel.envelopes"] > 0
            check_invariants(res.runtime)
        finally:
            res.runtime.close()


# ----------------------------------------------------------------------
# a mutual bulk burst: no end-to-end ack to time out behind the backlog
# ----------------------------------------------------------------------
@behavior
class _Sink:
    def __init__(self):
        self.got = 0

    @method
    def take(self, ctx, blob):
        self.got += 1

    @method
    def count(self, ctx):
        return self.got


@behavior
class _Blaster:
    def __init__(self):
        pass

    @method
    def blast(self, ctx, sink, n, size):
        blob = b"x" * size
        for _ in range(n):
            ctx.send(sink, "take", blob)


@pytest.mark.bench
@pytest.mark.parametrize("transport", ["tcp", "unix"])
def test_mutual_bulk_burst_completes(transport):
    """Two nodes each send the other 20,000 × 8 KiB messages from one
    handler.  With an ack per message the acks queue behind the
    backlog for longer than the whole retry budget (``ReliabilityError:
    ... peer unreachable``); over the bare stream every message lands."""
    n, size = 20_000, 8 * 1024
    rt = HalRuntime(RuntimeConfig(
        num_nodes=2, backend="asyncio", net=NetParams(transport=transport),
    ))
    try:
        rt.load_behaviors(_Sink, _Blaster)
        sinks = [rt.spawn(_Sink, at=i) for i in range(2)]
        blasters = [rt.spawn(_Blaster, at=i) for i in range(2)]
        rt.run()
        for i in range(2):
            rt.send(blasters[i], "blast", sinks[1 - i], n, size)
        rt.run()
        assert [rt.call(s, "count") for s in sinks] == [n, n]
        assert rt.stats.counter("bulk.completions") == 2 * n
        assert _rel_counters(rt) == {}
    finally:
        rt.close()


# ----------------------------------------------------------------------
# cluster naming: birthplace-shard resolution with back-patching
# ----------------------------------------------------------------------
class TestClusterNaming:
    def test_locate_chases_from_the_birthplace_shard_and_backpatches(self):
        """After a migration tour the birthplace's table only holds a
        forwarding guess; a driver with a cold cache must still resolve
        the address (chasing node to node) and must cache the answer so
        the next query is a single hop."""
        res = run_migration_tour(
            trace=False, backend="asyncio", num_nodes=4, n=3
        )
        try:
            machine = res.runtime.machine
            [(addr, true_node)] = machine.actor_locations().items()
            assert true_node == res.summary["final_node"]
            machine._locations.clear()  # cold cache: force a chase
            assert machine.locate(addr) == true_node
            assert machine._locations[addr] == true_node  # back-patched
            # Warm cache: the next resolve starts at the cached node
            # and confirms locally in one hop.
            assert machine.locate(addr) == true_node
        finally:
            res.runtime.close()

    def test_resolve_is_a_pure_read(self):
        """Name resolution must not wake the partition: quiescence
        certified before a locate still holds after it."""
        res = run_migration_tour(
            trace=False, backend="asyncio", num_nodes=4, n=3
        )
        try:
            rt = res.runtime
            assert rt.quiescent()
            machine = rt.machine
            [(addr, _)] = machine.actor_locations().items()
            machine._locations.clear()
            machine.locate(addr)
            assert rt.quiescent()
        finally:
            res.runtime.close()

    def test_unknown_address_falls_back_to_snapshot(self):
        from repro.runtime.names import AddrKind, MailAddress

        res = run_scenario("ping_pong", trace=False, backend="asyncio")
        try:
            bogus = MailAddress(AddrKind.ORDINARY, 1, 999_999)
            assert res.runtime.machine.locate(bogus) is None
        finally:
            res.runtime.close()


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
class TestTransports:
    @pytest.mark.parametrize("transport", ["tcp", "unix"])
    def test_ping_pong_converges(self, transport):
        res = run_scenario(
            "ping_pong", trace=False, backend="asyncio",
            net=NetParams(transport=transport),
        )
        try:
            assert res.summary["rally"] == 40
            assert res.runtime.quiescent()
        finally:
            res.runtime.close()
