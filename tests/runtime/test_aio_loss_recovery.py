"""Faults over real sockets: the unmodified FTMP stack on the asyncio
runtime (one fabric per member, so every datagram crosses a kernel UDP
socket) with a fifth of its multicasts lost, and with a member crashing
mid-run.

Wall-clock timers and actual socket I/O, so the tests poll for
completion under a generous timeout instead of sleeping a fixed time.
"""

import random

from test_endpoint_contract import AioHarness, run_until

from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.core.tracing import Tracer
from repro.replication.oracles import run_history_oracles


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


class CrashingListener(RecordingListener):
    """Crashes its own stack from inside the delivery that reaches
    ``crash_at`` — keyed on run progress, not on the clock."""

    def __init__(self, crash_at):
        super().__init__()
        self.crash_at = crash_at
        self.stack = None

    def on_deliver(self, delivery):
        super().on_deliver(delivery)
        if len(self.deliveries) == self.crash_at:
            self.stack.stop()  # stack and endpoint closed: no leave, no goodbye


def test_aio_member_crash_installs_survivor_view():
    """§7.2 on the wall clock: member 3 crashes a third of the way in,
    the survivors convict it, install the two-member view and keep
    ordering — total order, FIFO, no duplicates and virtual synchrony
    checked by the same oracles the simulator's chaos campaign uses."""
    pids, per_member = (1, 2, 3), 30
    harness = AioHarness(pids=pids)
    cfg = FTMPConfig(heartbeat_interval=0.02, suspect_timeout=0.5)
    listeners = {1: RecordingListener(), 2: RecordingListener(),
                 3: CrashingListener(crash_at=per_member)}
    stacks, sent = {}, {pid: [] for pid in pids}
    try:
        for pid in pids:
            stacks[pid] = FTMPStack(harness.endpoint(pid), cfg, listeners[pid])
            stacks[pid].create_group(1, 5001, pids)
        listeners[3].stack = stacks[3]
        tracer = stacks[1].tracer = Tracer()
        for i in range(per_member):
            for pid in pids:
                if pid == 3 and len(listeners[3].deliveries) >= per_member:
                    continue  # crashed: it sends nothing more
                sent[pid].append(f"{pid}:{i}".encode())
                stacks[pid].multicast(1, sent[pid][-1])
            harness.run(0.005)
        survivors = {pid: listeners[pid] for pid in (1, 2)}

        def by_source(lst, source):
            return [d.payload for d in lst.deliveries if d.source == source]

        def settled():
            return all(
                lst.views and lst.views[-1].membership == (1, 2)
                and by_source(lst, 1) == sent[1] and by_source(lst, 2) == sent[2]
                for lst in survivors.values())

        ok = run_until(harness, settled, total=20.0)
        for st in stacks.values():
            st.stop()
    finally:
        harness.close()
    assert len(listeners[3].deliveries) >= per_member  # the crash happened
    assert len(sent[3]) < per_member  # ... mid-run
    assert ok, {pid: (lst.views[-1:], len(lst.deliveries))
                for pid, lst in survivors.items()}
    for lst in survivors.values():
        assert lst.views[-1].reason == "fault"
        assert lst.views[-1].removed == (3,)
    # the same prefix of the crashed member's sends at both survivors
    from_crashed = by_source(survivors[1], 3)
    assert from_crashed == by_source(survivors[2], 3)
    assert from_crashed == sent[3][:len(from_crashed)]
    assert run_history_oracles(survivors, 1, final_members=(1, 2)) == []
    # suspected at the rule's deadline, a timeout after the last datagram
    # heard from 3, on the loop's clock (late by what the loop was busy)
    last = max(e.time for e in tracer.events
               if e.kind == "recv" and e.detail["src"] == 3)
    raised = min(e.time for e in tracer.events if e.kind == "suspect"
                 and e.detail["suspect"] == 3 and e.time > last)
    assert cfg.suspect_timeout <= raised - last + 1e-3
    assert raised - last <= cfg.suspect_timeout + 0.05
