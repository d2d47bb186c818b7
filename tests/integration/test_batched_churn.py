"""BATCH reception under loss and churn, judged by the oracle battery.

Five members multicast at 4,000 msg/s each, a rate that engages the
adaptive 2 ms coalescing window, with flow control on; 5 % of the
datagrams are lost, member 3 crashes and processor 6 joins in order:
nearly every message reaches its receivers inside a BATCH datagram and
most of them are taken as a run (``RMP.on_run``); the gaps loss leaves,
the crash, the §7.2 drain and the join fall between and inside those
datagrams.  The history must still satisfy total order, FIFO, no
duplicates, virtual synchrony, convergence and membership agreement.
"""

import random
from unittest import mock

from repro.analysis import make_cluster
from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.core.rmp import RMP
from repro.replication import FaultInjector
from repro.replication.oracles import check_quiescence, run_history_oracles
from repro.simnet import lan

GROUP, ADDRESS = 1, 5001
CRASH_AT, JOIN_AT, SENDS_UNTIL = 0.20, 0.40, 0.60


def test_batched_cluster_with_loss_crash_and_join_satisfies_the_oracles():
    pids = (1, 2, 3, 4, 5)
    cfg = FTMPConfig(heartbeat_interval=0.002, suspect_timeout=0.060,
                     batch_window=0.002, flow_control_window=32)
    c = make_cluster(pids, topology=lan(loss=0.05), config=cfg, seed=18)
    inj = FaultInjector(c.net)
    sent = {p: 0 for p in pids}

    def send(pid, index):
        if pid == 3 and c.net.scheduler.now >= CRASH_AT:
            return
        sent[pid] += 1
        c.stacks[pid].multicast(GROUP, b"%d:%d" % (pid, index))

    for p in pids:
        rng = random.Random(1800 + p)
        t, index = 0.0, 0
        while (t := t + rng.expovariate(4_000.0)) < SENDS_UNTIL:
            # tests/integration/test_join_under_load.py: a send in flight
            # when the AddProcessor is built can strand the newcomer
            if abs(t - JOIN_AT) >= 0.005:
                c.net.scheduler.at(t, send, p, index)
                index += 1

    def join():
        c.listeners[6] = RecordingListener()
        c.stacks[6] = FTMPStack(c.net.endpoint(6), cfg, c.listeners[6])
        c.stacks[6].join_as_new_member(GROUP, ADDRESS)
        c.stacks[1].add_processor(GROUP, 6)

    inj.crash_at(CRASH_AT, 3)
    c.net.scheduler.at(JOIN_AT, join)

    runs = {"messages": 0, "taken": 0, "declined": 0}
    on_run = RMP.on_run

    def counting(self, run):
        taken = on_run(self, run)
        runs["messages"] += len(run)
        runs["taken"] += taken
        runs["declined"] += not taken
        return taken

    with mock.patch.object(RMP, "on_run", counting):
        c.run_for(SENDS_UNTIL + 1.5)

    final = (1, 2, 4, 5, 6)
    survivors = {p: c.listeners[p] for p in final}
    violations = run_history_oracles(survivors, GROUP, final_members=final)
    violations += check_quiescence(c.stacks, GROUP, final)
    assert violations == [], "\n".join(f"[{v.oracle}] {v.detail}" for v in violations)

    # everything the four lasting senders sent reached the four founders
    expected = sum(sent[p] for p in (1, 2, 4, 5))
    for p in (1, 2, 4, 5):
        assert sum(d.source != 3 for d in c.listeners[p].deliveries) == expected
    assert c.listeners[6].deliveries  # the newcomer holds a suffix

    # and it was BATCH reception that was tested: of what RMP handed up,
    # most arrived in batches and most of those were taken as runs, while
    # a gap, a join or a stopped group had others declined
    handed_up = sum(c.stacks[p].snapshot()[f"group.{GROUP}.rmp.delivered"] for p in final)
    assert runs["messages"] > 0.8 * handed_up
    assert runs["taken"] > 0.6 * handed_up
    assert runs["declined"] > 20
