"""The process backends' event-driven control plane: the persistent
readiness sets, paced detection rounds and dead-worker detection of
``platform/mp.py`` (inherited by ``platform/asyncio_net.py``)."""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.config import MpParams, NetParams, RuntimeConfig
from repro.errors import ReproError
from repro.hal.dsl import behavior, method
from repro.platform import mp
from repro.platform.base import WirePacket
from repro.platform.wireformat import iter_messages
from repro.runtime.system import HalRuntime


@behavior
class _Echo:
    def __init__(self):
        pass

    @method
    def echo(self, ctx, x):
        return x


@behavior
class _Client:
    """Closed-loop client: one request outstanding at a time."""

    def __init__(self):
        pass

    @method
    def burst(self, ctx, target, n):
        for i in range(n):
            yield ctx.request(target, "echo", i)
        return n


#: (backend, config overrides) of every process transport.
_TRANSPORTS = {
    "pipe": ("mp", {"mp": MpParams(transport="pipe")}),
    "socket": ("mp", {"mp": MpParams(transport="socket")}),
    "shm": ("mp", {"mp": MpParams(transport="shm")}),
    "asyncio-unix": ("asyncio", {"net": NetParams(transport="unix")}),
}


def _runtime(transport: str = "pipe", nodes: int = 4) -> HalRuntime:
    backend, kw = _TRANSPORTS[transport]
    rt = HalRuntime(RuntimeConfig(num_nodes=nodes, backend=backend, **kw))
    rt.load_behaviors(_Echo, _Client)
    return rt


def _echo_pair(rt):
    return rt.spawn(_Client, at=0), rt.spawn(_Echo, at=1)


def _count_rounds(machine) -> list:
    """Count detection rounds from here on (one list entry each)."""
    rounds = []
    start = machine._start_detection

    def counted():
        rounds.append(time.perf_counter())
        start()

    machine._start_detection = counted
    return rounds


# ======================================================================
# channels: everything readable reaches the decoder in one call
# ======================================================================
def _three_frames(sender) -> None:
    for i in range(3):
        sender.encoder.add_message(
            WirePacket(0, 1, "deliver", (i,), 8, "deliver")
        )
        sender.send_frame(sender.encoder.take_frame())


@pytest.mark.parametrize("kind", ["pipe", "socket"])
def test_read_available_takes_every_queued_frame(kind):
    """Dispatch starts only after the link is empty — reading one frame
    per wake-up sends each reply in a frame of its own and cut relay.mp
    batching from 7.3 to 2.5 messages per frame (DESIGN.md §5f)."""
    if kind == "pipe":
        a, b = multiprocessing.Pipe(duplex=True)
    else:
        a, b = socket.socketpair()
    sender, receiver = mp._make_channel(a), mp._make_channel(b)
    try:
        _three_frames(sender)
        receiver.read_available()
        packets = list(iter_messages(receiver.decoder.drain()))
        assert [p.args for p in packets] == [(0,), (1,), (2,)]
    finally:
        sender.close()
        receiver.close()


# ======================================================================
# the worker's timed wait: no millisecond rounding of short timers
# ======================================================================
class _RecordingSelector:
    def __init__(self):
        self.timeouts = []

    def select(self, timeout):
        self.timeouts.append(timeout)
        return []


def _step_with_timer(monkeypatch, timeout):
    """Run one pipe/socket worker step whose next heap entry is due in
    ``timeout`` seconds; returns (sleeps, select timeouts)."""
    sleeps = []
    monkeypatch.setattr(mp.time, "sleep", sleeps.append)
    host = mp._WorkerHost.__new__(mp._WorkerHost)
    host._sel = _RecordingSelector()
    host._run_ready = host._maybe_advance_ring = host._flush_pending = (
        lambda: None)
    host._next_timeout = lambda: timeout
    host._step_wait()
    return sleeps, host._sel.timeouts


@pytest.mark.parametrize("timeout", [5e-6, 50e-6, 0.0009])
def test_sub_millisecond_timer_is_slept_not_rounded_up(monkeypatch, timeout):
    """epoll would turn a 5 µs wait into 1 ms; a fib.mp round spent
    4.6 s instead of 0.86 s in those naps (DESIGN.md §5f)."""
    assert _step_with_timer(monkeypatch, timeout) == ([timeout], [0.0])


@pytest.mark.parametrize("timeout", [None, 0.0, 0.001, 0.25])
def test_other_timer_waits_block_in_select(monkeypatch, timeout):
    assert _step_with_timer(monkeypatch, timeout) == ([], [timeout])


# ======================================================================
# the driver blocks, and detection rounds are paced
# ======================================================================
@pytest.mark.parametrize("transport", sorted(_TRANSPORTS))
def test_idle_run_returns_promptly(transport):
    rt = _runtime(transport)
    try:
        rt.run()
        t0 = time.perf_counter()
        rt.run()
        assert time.perf_counter() - t0 < 0.5
        assert rt.quiescent()
    finally:
        rt.close()


def test_failed_rounds_are_paced():
    """Pacing holds by construction: once the delay has doubled to its
    cap, at most one round starts per ``_PACE_MAX_S`` however fast the
    ring turns a token round."""
    rt = _runtime()
    try:
        client, echo = _echo_pair(rt)
        rt.run()
        rounds = _count_rounds(rt.machine)
        rt.send(client, "burst", echo, 2000)
        t0 = time.perf_counter()
        rt.run()
        elapsed = time.perf_counter() - t0
        assert rt.quiescent()
        assert 1 <= len(rounds) <= elapsed / mp._PACE_MAX_S + 16
    finally:
        rt.close()


def test_reply_cuts_a_pacing_delay_short(monkeypatch):
    """The delay is waited out inside the readiness set: a reply that
    lands meanwhile ends ``rt.call`` at once, not a full delay later."""
    monkeypatch.setattr(mp, "_PACE_MIN_S", 2.0)
    monkeypatch.setattr(mp, "_PACE_MAX_S", 2.0)
    rt = _runtime(nodes=2)
    try:
        client, echo = _echo_pair(rt)
        rt.run()
        rounds = _count_rounds(rt.machine)
        t0 = time.perf_counter()
        # 100 cross-process round trips: long enough for the first
        # round and its immediate retry to fail (traffic blackens both
        # workers) and the driver to be deep in its 2 s delay when the
        # reply lands.
        assert rt.call(client, "burst", echo, 100) == 100
        assert time.perf_counter() - t0 < 1.5
        assert len(rounds) == 2
    finally:
        rt.close()


# ======================================================================
# lazy snapshot
# ======================================================================
def test_run_marks_the_view_stale_and_reads_refresh_it():
    rt = _runtime(nodes=2)
    try:
        client, echo = _echo_pair(rt)
        machine = rt.machine
        snaps = []
        refresh = machine._refresh
        machine._refresh = lambda: (snaps.append(1), refresh())[1]
        rt.run()
        assert rt.call(client, "burst", echo, 3) == 3
        assert not snaps  # run() and call() pull no snapshot ...
        before = rt.stats.counter("wire.messages")
        assert len(snaps) == 1  # ... the first read does
        assert before >= 6
        assert rt.actor_locations() == {client.address: 0, echo.address: 1}
        rt.run()
        assert rt.quiescent()
        rt.stats.counter("wire.messages")
        reads = len(snaps)
        # Certified quiescent and nothing commanded since: cached.
        assert rt.stats.counter("wire.messages") >= before
        assert rt.machine.pending == 0
        assert len(snaps) == reads
        rt.send(client, "burst", echo, 1)  # a command: stale again
        assert not rt.machine._quiesced
        rt.run()
        assert rt.stats.counter("wire.messages") >= before + 2
        assert len(snaps) == reads + 1
        rt.close()
        # One last refresh before the workers stopped.
        assert rt.stats.counter("wire.messages") >= before + 2
        assert rt.actor_locations() == {client.address: 0, echo.address: 1}
    finally:
        rt.close()


# ======================================================================
# a dead worker is a bounded, named error
# ======================================================================
def _kill(rt, node: int) -> None:
    os.kill(rt.machine._procs[node].pid, signal.SIGKILL)


@pytest.mark.parametrize("transport", ["pipe", "asyncio-unix"])
def test_worker_killed_mid_burst_is_named(transport):
    rt = _runtime(transport)
    try:
        client, echo = _echo_pair(rt)
        rt.run()
        rt.send(client, "burst", echo, 1_000_000)
        _kill(rt, 1)
        t0 = time.perf_counter()
        died = r"mp worker 1 exited with code -9"
        with pytest.raises(ReproError, match=died):
            rt.run()
        with pytest.raises(ReproError, match=died):
            rt.machine.command(1, ("snap",))
        with pytest.raises(ReproError, match=died):
            rt.machine.command(0, ("snap",))
        with pytest.raises(ReproError, match=died):
            rt.machine.broadcast_command(("snap",))
        assert time.perf_counter() - t0 < 2.0
    finally:
        t0 = time.perf_counter()
        rt.close()
        assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("transport", ["pipe", "asyncio-unix"])
def test_idle_worker_killed_mid_run_is_named(transport):
    rt = _runtime(transport)
    try:
        client, echo = _echo_pair(rt)
        rt.run()
        rt.send(client, "burst", echo, 1_000_000)  # nodes 0 and 1 only
        killed = []
        timer = threading.Timer(
            0.2, lambda: (killed.append(time.perf_counter()), _kill(rt, 2))
        )
        timer.start()
        try:
            with pytest.raises(
                ReproError, match=r"mp worker 2 exited with code -9"
            ):
                rt.run()
            assert killed and time.perf_counter() - killed[0] < 2.0
        finally:
            timer.cancel()
            timer.join()
    finally:
        rt.close()
