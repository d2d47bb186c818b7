#!/usr/bin/env python3
"""The identical FTMP stack over real UDP sockets.

Everything else in this directory drives the protocol through the
deterministic simulator; this demo runs the same ``FTMPStack`` on the
asyncio runtime's ``AioFabric`` — UDP unicast fan-out on the loopback
interface standing in for IP Multicast group delivery (see DESIGN.md §4).
Three stacks on one event loop, one fabric each so every datagram
crosses a kernel socket, real wall-clock heartbeats, real NACK recovery
under injected loss.

Run:  python examples/udp_multicast_demo.py
"""

import asyncio
import random

from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.runtime.aio import AioFabric, free_udp_ports

PIDS = (1, 2, 3)


def lossy(endpoint, loss_rate, rng):
    """Shadow the endpoint's ``multicast`` with one that loses datagrams."""
    send = endpoint.multicast

    def multicast(group_addr, data):
        if rng.random() >= loss_rate:
            send(group_addr, data)

    endpoint.multicast = multicast
    return endpoint


async def run() -> None:
    ports = dict(zip(PIDS, free_udp_ports(len(PIDS))))
    rng = random.Random(1)
    cfg = FTMPConfig(heartbeat_interval=0.02, suspect_timeout=5.0)

    fabrics, stacks, listeners = [], {}, {}
    for pid in PIDS:
        fabric = AioFabric(peers=ports, mode="loopback", seed=1)
        fabrics.append(fabric)
        endpoint = lossy(await fabric.start(pid), 0.10, rng)  # drop 10%
        listener = RecordingListener()
        stack = FTMPStack(endpoint, cfg, listener)
        stack.create_group(group_id=1, address=5001, membership=PIDS)
        stacks[pid], listeners[pid] = stack, listener

    print("three FTMP stacks on real UDP sockets, 10% injected loss")
    # protocol callbacks run on the loop thread, as this coroutine does:
    # the stacks need no lock
    for pid in PIDS:
        for i in range(5):
            stacks[pid].multicast(1, f"{pid}:{i}".encode())

    for _ in range(500):  # up to 10 s
        if all(len(listeners[p].deliveries) == 15 for p in PIDS):
            break
        await asyncio.sleep(0.02)

    counts = {p: len(listeners[p].deliveries) for p in PIDS}
    orders = {p: listeners[p].delivery_order(1) for p in PIDS}
    nacks = sum(stacks[p].group(1).rmp.stats.nacks_sent for p in PIDS)
    retrans = sum(stacks[p].group(1).rmp.stats.retransmissions_sent for p in PIDS)
    for pid in PIDS:
        stacks[pid].stop()
    for fabric in fabrics:
        fabric.stop()

    print(f"delivered: {counts}")
    print(f"loss recovery: {nacks} RetransmitRequests, {retrans} retransmissions")
    if orders[1] == orders[2] == orders[3] and counts[1] == 15:
        print("identical total order at all three stacks over real sockets")
    else:  # pragma: no cover - timing-dependent environments
        print("warning: run did not converge in time (slow machine?)")


def main() -> None:
    asyncio.run(run())


if __name__ == "__main__":
    main()
