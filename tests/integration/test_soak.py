"""Soak test: everything at once, for a long simulated stretch.

Ten processors, continuous mixed traffic, packet loss, a transient
partition, a graceful leave, a join, and a crash — the full protocol
surface in one run.  The global invariants are checked by the shared
oracle battery from :mod:`repro.replication.oracles` (the same ones the
chaos campaign sweeps), plus a few scenario-specific expectations the
generic oracles cannot know (exact message counts, the joiner's suffix,
no state kept for the members that left).

Run as a script, the scenario sweeps seeds 0-39 (``make soak``)::

    PYTHONPATH=src python tests/integration/test_soak.py
"""

import sys
from unittest import mock

from repro.analysis import make_cluster
from repro.core import FTMPConfig, FTMPStack, MessageType, RecordingListener
from repro.core.wire import peek_header
from repro.replication import FaultInjector
from repro.replication.oracles import check_quiescence, run_history_oracles
from repro.simnet import Network, lan

FINAL = (1, 2, 3, 4, 5, 6, 9)
LEAVER, VICTIM = 8, 7


def soak(seed):
    """Run the scenario; return the cluster and every violation found."""
    cfg = FTMPConfig(heartbeat_interval=0.010, suspect_timeout=0.150)
    c = make_cluster(tuple(range(1, 9)), topology=lan(loss=0.03), config=cfg,
                     seed=seed)
    inj = FaultInjector(c.net)

    # continuous traffic from three senders for 3 simulated seconds
    for i in range(300):
        for s in (1, 2, 3):
            c.net.scheduler.at(0.01 * i + 0.001 * s, c.stacks[s].multicast, 1,
                               f"{s}:{i}".encode())

    # transient partition that heals before the suspect timeout
    inj.partition_at(0.50, {1, 2, 3, 4}, {5, 6, 7, 8})
    inj.heal_at(0.58)
    # graceful leave of processor 8
    c.net.scheduler.at(1.0, c.stacks[1].remove_processor, 1, LEAVER)
    # a new processor 9 joins
    def join():
        lst = RecordingListener()
        st = FTMPStack(c.net.endpoint(9), cfg, lst)
        c.stacks[9] = st
        c.listeners[9] = lst
        st.join_as_new_member(1, 5001)
        c.stacks[2].add_processor(1, 9)

    c.net.scheduler.at(1.5, join)
    # crash of processor 7
    inj.crash_at(2.0, VICTIM)

    c.run_for(8.0)

    # the shared invariant battery: total order, FIFO, no duplicates,
    # virtual synchrony, convergence and membership agreement among the
    # survivors — exactly what the chaos campaign checks
    violations = run_history_oracles({p: c.listeners[p] for p in FINAL}, 1,
                                     final_members=FINAL)
    violations += check_quiescence(c.stacks, 1, FINAL)
    return c, violations


def kept_state_of(c, gone):
    """``(member, where, pid)`` for every final member still holding RMP,
    fault-detector or departed-member state keyed by a processor that
    left."""
    kept = []
    for p in FINAL:
        g = c.stacks[p].group(1)
        for where, keys in (("rmp", g.rmp.sources()),
                            ("fault_detector", g.fault_detector._last_heard),
                            ("departed", g._departed)):
            kept += [(p, where, pid) for pid in gone if pid in keys]
    return kept


def assert_survived(c, violations):
    assert violations == [], "\n".join(
        f"[{v.oracle}] {v.detail}" for v in violations)
    # scenario-specific: all 900 messages reached every full-run survivor
    orders = c.orders(1)
    for pid in (1, 2, 3, 4, 5, 6):
        assert len(orders[pid]) == 900
    # the joiner holds a strict suffix of the agreed order
    suffix = orders[9]
    assert suffix and suffix == orders[1][-len(suffix):]
    # nobody re-created state for the leaver (it heartbeats on after its
    # removal) or kept the crashed member's
    assert kept_state_of(c, (LEAVER, VICTIM)) == []


def test_soak_mixed_faults_and_churn():
    c, violations = soak(99)
    assert_survived(c, violations)
    # buffers drained (ack GC kept up) at a steady member
    assert len(c.stacks[1].group(1).buffer) < 50


def test_a_leave_survives_the_loss_of_the_heartbeat_covering_it():
    # The leaver orders its own RemoveProcessor once every member is heard
    # past it.  The heartbeat that showed processor 1 the leaver past it
    # is lost: once the leaver had ordered its removal it stopped, nobody
    # else repeats its stream, and the others — the leaver forgotten —
    # could not convict it, so everyone waited behind processor 1 for good.
    dropped = []
    deliver = Network._deliver

    def losing_one(net, pid, data):
        if pid == 1 and not dropped and net.scheduler.now >= 1.0:
            h = peek_header(data)
            if h.source == LEAVER and h.message_type == MessageType.HEARTBEAT:
                dropped.append(h.timestamp)
                return
        deliver(net, pid, data)

    with mock.patch.object(Network, "_deliver", losing_one):
        c, violations = soak(99)
    assert dropped
    assert_survived(c, violations)


def main() -> int:
    failed = []
    for seed in range(40):
        c, violations = soak(seed)
        if violations or kept_state_of(c, (LEAVER, VICTIM)):
            failed.append(seed)
    print(f"soak: {40 - len(failed)} of 40 seeds clean"
          + (f"; failed on {failed}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
