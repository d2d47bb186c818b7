"""Endpoint-seam contract: one assertion set, every runtime.

The protocol layers are written against :class:`repro.transport.Endpoint`
alone, so every implementation must agree on the seam's semantics —
loopback of own multicasts, open groups, join/leave gating, one-shot
cancellable timers, silence after close.  The same tests run against the
discrete-event :class:`SimEndpoint` and the asyncio
:class:`AioEndpoint` (each endpoint on its own fabric, so datagrams
really cross sockets); a runtime that drifts from the contract fails
here before it can diverge from the simulator's semantics.
"""

import asyncio
import random

import pytest

from repro.runtime.aio import AioFabric, free_udp_ports
from repro.simnet import Network


class SimHarness:
    """Drives SimEndpoints by advancing the discrete-event scheduler."""

    name = "sim"

    def __init__(self, pids):
        self.net = Network()
        self._pids = pids

    def endpoint(self, pid):
        return self.net.endpoint(pid)

    def run(self, seconds):
        self.net.run_for(seconds)

    def close(self):
        pass


class AioHarness:
    """Drives AioEndpoints on a private event loop, one fabric per
    endpoint so inter-endpoint traffic crosses real UDP sockets."""

    name = "aio"

    def __init__(self, pids):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self._ports = dict(zip(pids, free_udp_ports(len(pids))))
        self._fabrics = []

    def endpoint(self, pid):
        fabric = AioFabric(peers=self._ports, mode="loopback", seed=7)
        self._fabrics.append(fabric)
        return self.loop.run_until_complete(fabric.start(pid))

    def run(self, seconds):
        self.loop.run_until_complete(asyncio.sleep(seconds))

    def close(self):
        for fabric in self._fabrics:
            fabric.stop()
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()
        asyncio.set_event_loop(None)


@pytest.fixture(params=[SimHarness, AioHarness], ids=["sim", "aio"])
def harness(request):
    h = request.param(pids=(1, 2, 3))
    yield h
    h.close()


def run_until(harness, predicate, total=2.0, step=0.02):
    """Advance the runtime until ``predicate`` holds (bounded)."""
    elapsed = 0.0
    while not predicate() and elapsed < total:
        harness.run(step)
        elapsed += step
    return predicate()


def test_identity_and_monotonic_clock(harness):
    ep = harness.endpoint(1)
    assert ep.processor_id == 1
    t0 = ep.now
    harness.run(0.05)
    assert ep.now >= t0
    assert isinstance(ep.random(), random.Random)


def test_multicast_reaches_members_and_loops_back(harness):
    a, b = harness.endpoint(1), harness.endpoint(2)
    got_a, got_b = [], []
    a.set_receiver(got_a.append)
    b.set_receiver(got_b.append)
    a.join(100)
    b.join(100)
    a.multicast(100, b"hello")
    assert run_until(harness, lambda: got_a and got_b)
    assert got_a == [b"hello"]  # sender loopback (IP-multicast semantics)
    assert got_b == [b"hello"]


def test_open_group_send_without_joining(harness):
    """Any processor may send to a group it has not joined (FTMP's
    ConnectRequest relies on this)."""
    a, b = harness.endpoint(1), harness.endpoint(2)
    got_a, got_b = [], []
    a.set_receiver(got_a.append)
    b.set_receiver(got_b.append)
    b.join(200)
    a.multicast(200, b"knock")
    assert run_until(harness, lambda: got_b)
    assert got_b == [b"knock"]
    assert got_a == []  # non-member sender receives nothing


def test_leave_stops_delivery(harness):
    a, b = harness.endpoint(1), harness.endpoint(2)
    got = []
    b.set_receiver(got.append)
    b.join(300)
    a.multicast(300, b"one")
    assert run_until(harness, lambda: got)
    b.leave(300)
    a.multicast(300, b"two")
    harness.run(0.2)
    assert got == [b"one"]


def test_timer_fires_once_and_cancel_prevents(harness):
    ep = harness.endpoint(1)
    hits = []
    ep.schedule(0.03, hits.append, "kept")
    cancelled = ep.schedule(0.03, hits.append, "cancelled")
    cancelled.cancel()
    assert run_until(harness, lambda: hits)
    harness.run(0.1)
    assert hits == ["kept"]


def test_timer_order_respects_delay(harness):
    ep = harness.endpoint(1)
    hits = []
    ep.schedule(0.08, hits.append, "late")
    ep.schedule(0.02, hits.append, "early")
    assert run_until(harness, lambda: len(hits) == 2)
    assert hits == ["early", "late"]


def test_no_callbacks_after_close(harness):
    a, b = harness.endpoint(1), harness.endpoint(2)
    got = []
    b.set_receiver(got.append)
    b.join(400)
    hits = []
    b.schedule(0.05, hits.append, "timer")
    b.close()
    a.multicast(400, b"ghost")
    harness.run(0.2)
    assert got == []
    assert hits == []


def test_timer_armed_after_close_never_fires(harness):
    ep = harness.endpoint(1)
    ep.close()
    hits = []
    handle = ep.schedule(0.01, hits.append, "x")
    harness.run(0.1)
    handle.cancel()  # the handle stays cancellable
    assert hits == []


@pytest.mark.parametrize("harness", [AioHarness], ids=["aio"], indirect=True)
def test_oversized_datagram_rejected(harness):
    # the socket runtime only: the simulator has no datagram limit
    ep = harness.endpoint(1)
    with pytest.raises(ValueError, match="datagram too large"):
        ep.multicast(100, b"x" * 70_000)


def test_close_is_idempotent(harness):
    ep = harness.endpoint(1)
    ep.close()
    ep.close()
    ep.multicast(500, b"dropped")  # silently ignored after close
    harness.run(0.05)
