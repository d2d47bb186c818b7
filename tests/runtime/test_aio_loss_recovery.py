"""NACK recovery over real sockets: the unmodified FTMP stack on the
asyncio runtime (one fabric per member, so every datagram crosses a
kernel UDP socket) with a fifth of its multicasts lost.

Wall-clock timers and actual socket I/O, so the test polls for
completion under a generous timeout instead of sleeping a fixed time.
"""

import random

from test_endpoint_contract import AioHarness, run_until

from repro.core import FTMPConfig, FTMPStack, RecordingListener


def lossy(endpoint, loss_rate, rng):
    """Shadow the endpoint's ``multicast`` with one that loses datagrams."""
    send = endpoint.multicast

    def multicast(group_addr, data):
        if rng.random() >= loss_rate:
            send(group_addr, data)

    endpoint.multicast = multicast
    return endpoint


def test_aio_loss_recovery():
    harness = AioHarness(pids=(1, 2))
    rng = random.Random(7)  # drops several of the ten sends
    cfg = FTMPConfig(heartbeat_interval=0.02, suspect_timeout=30.0)
    listeners, stacks = {}, {}
    try:
        for pid in (1, 2):
            lst = RecordingListener()
            st = FTMPStack(lossy(harness.endpoint(pid), 0.2, rng), cfg, lst)
            st.create_group(1, 5001, (1, 2))
            listeners[pid], stacks[pid] = lst, st
        for i in range(10):
            stacks[1].multicast(1, f"m{i}".encode())
        ok = run_until(harness, lambda: len(listeners[2].payloads(1)) == 10,
                       total=15.0)
        nacks = sum(s.group(1).rmp.stats.nacks_sent for s in stacks.values())
        for st in stacks.values():
            st.stop()
    finally:
        harness.close()
    assert ok, len(listeners[2].payloads(1))
    assert listeners[2].payloads(1) == [f"m{i}".encode() for i in range(10)]
    assert nacks > 0  # the seeded loss did hit a reliable message
