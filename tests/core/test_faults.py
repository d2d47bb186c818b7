"""PGMP §7.2: suspicion, conviction, fault views, virtual synchrony."""

from repro.core import FTMPConfig
from repro.analysis.chaos import chaos_config_for, chaos_plan_for, run_plan
from repro.analysis.harness import make_cluster
from repro.replication.chaos import ChaosEvent


def test_crashed_processor_is_detected_and_removed():
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    c.net.crash(3)
    c.run_for(1.0)
    for pid in (1, 2):
        assert c.listeners[pid].current_membership(1) == (1, 2)
        assert c.listeners[pid].faults
        assert c.listeners[pid].faults[-1].convicted == (3,)


def test_ordering_stalls_then_resumes_after_fault_view():
    # §7: "If one or more processors are faulty, the ordering of messages
    # stops until those processors are removed from the membership."
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    c.net.crash(3)
    c.run_for(0.005)
    c.stacks[1].multicast(1, b"during-fault")
    # shortly after the crash the message cannot be ordered yet
    c.run_for(0.02)
    assert b"during-fault" not in c.listeners[2].payloads(1)
    # after detection + conviction + new view it is delivered
    c.run_for(1.0)
    assert b"during-fault" in c.listeners[2].payloads(1)
    assert b"during-fault" in c.listeners[1].payloads(1)


def test_survivors_agree_on_deliveries_across_crash():
    c = make_cluster((1, 2, 3, 4, 5), seed=77)
    for i in range(40):
        for pid in (1, 2, 3, 4, 5):
            c.net.scheduler.at(0.0013 * i, c.stacks[pid].multicast, 1,
                               f"{pid}:{i}".encode())
    c.net.scheduler.at(0.020, c.net.crash, 4)
    c.run_for(2.0)
    orders = c.orders(1)
    assert orders[1] == orders[2] == orders[3] == orders[5]
    assert len(orders[1]) > 100


def test_crashed_members_final_messages_delivered_to_all_or_none():
    # virtual synchrony: survivors deliver exactly the same set of the
    # crashed member's messages
    c = make_cluster((1, 2, 3), seed=5)
    for i in range(20):
        c.net.scheduler.at(0.001 * i, c.stacks[3].multicast, 1, f"dying{i}".encode())
    c.net.scheduler.at(0.0105, c.net.crash, 3)
    c.run_for(2.0)
    from3_at_1 = [p for p in c.listeners[1].payloads(1) if p.startswith(b"dying")]
    from3_at_2 = [p for p in c.listeners[2].payloads(1) if p.startswith(b"dying")]
    assert from3_at_1 == from3_at_2


def test_multiple_simultaneous_crashes():
    c = make_cluster((1, 2, 3, 4, 5))
    c.run_for(0.05)
    c.net.crash(4)
    c.net.crash(5)
    c.run_for(2.0)
    for pid in (1, 2, 3):
        assert c.listeners[pid].current_membership(1) == (1, 2, 3)
    convicted = set()
    for f in c.listeners[1].faults:
        convicted |= set(f.convicted)
    assert convicted == {4, 5}


def test_cascading_crash_during_round():
    c = make_cluster((1, 2, 3, 4, 5))
    c.run_for(0.05)
    c.net.crash(4)
    # second crash lands mid-detection of the first
    c.net.scheduler.at(c.net.scheduler.now + 0.07, c.net.crash, 5)
    c.run_for(3.0)
    for pid in (1, 2, 3):
        assert c.listeners[pid].current_membership(1) == (1, 2, 3)


def test_transient_silence_is_not_convicted():
    # a partition shorter than the suspect timeout must not evict anyone
    cfg = FTMPConfig(suspect_timeout=0.200)
    c = make_cluster((1, 2, 3), config=cfg)
    c.run_for(0.05)
    c.net.partition({1, 2}, {3})
    c.run_for(0.08)  # silence < suspect_timeout
    c.net.heal()
    c.run_for(0.5)
    for pid in (1, 2, 3):
        assert c.listeners[pid].current_membership(1) in (None, (1, 2, 3))
        assert not c.listeners[pid].faults
    c.stacks[3].multicast(1, b"alive")
    c.run_for(0.3)
    assert b"alive" in c.listeners[1].payloads(1)


def test_single_false_accuser_cannot_convict_in_larger_group():
    # conviction needs a majority of unsuspected members (DESIGN.md §2)
    c = make_cluster((1, 2, 3, 4))
    c.run_for(0.05)
    g1 = c.stacks[1].group(1)
    g1.pgmp.raise_suspicion(3)  # forged local suspicion at node 1 only
    c.run_for(0.5)
    for pid in (1, 2, 4):
        assert not c.listeners[pid].faults
        assert c.listeners[pid].current_membership(1) in (None, (1, 2, 3, 4))


def test_two_member_group_survivor_excludes_dead_peer():
    c = make_cluster((1, 2))
    c.run_for(0.05)
    c.net.crash(2)
    c.run_for(1.0)
    assert c.listeners[1].current_membership(1) == (1,)
    c.stacks[1].multicast(1, b"alone")
    c.run_for(0.2)
    assert b"alone" in c.listeners[1].payloads(1)


def test_fault_view_timestamp_agrees_across_survivors():
    c = make_cluster((1, 2, 3, 4))
    c.run_for(0.05)
    c.net.crash(4)
    c.run_for(1.5)
    stamps = {
        pid: [v for v in c.listeners[pid].views if v.reason == "fault"][-1].view_timestamp
        for pid in (1, 2, 3)
    }
    assert len(set(stamps.values())) == 1


def test_group_functions_after_fault_view():
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    c.net.crash(2)
    c.run_for(1.0)
    c.stacks[1].multicast(1, b"post-fault-1")
    c.stacks[3].multicast(1, b"post-fault-3")
    c.run_for(0.3)
    assert b"post-fault-1" in c.listeners[3].payloads(1)
    assert b"post-fault-3" in c.listeners[1].payloads(1)
    assert c.orders(1)[1][-2:] == c.orders(1)[3][-2:]


def test_suspicion_withdrawn_when_member_heard_again():
    cfg = FTMPConfig(suspect_timeout=0.080)
    c = make_cluster((1, 2, 3), config=cfg)
    c.run_for(0.05)
    # partition node 3 long enough to be suspected but heal before the
    # (majority) conviction can complete at everyone
    c.net.partition({1, 2}, {3})
    c.run_for(0.095)
    c.net.heal()
    c.run_for(1.0)
    # either nobody was evicted, or the view healed back to full strength
    m = c.listeners[1].current_membership(1)
    fd = c.stacks[1].group(1).fault_detector
    assert fd.stats.suspicions_raised >= 1
    if m == (1, 2, 3):
        assert fd.stats.suspicions_withdrawn >= 1


def test_a_member_back_at_its_conviction_does_not_split_the_old_view():
    # The campaign's combo seed 7, shrunk to two events: 4 pauses for a
    # little longer than the suspect timeout under 5.8 % loss and comes
    # back as the survivors convict it.  A survivor that had multicast
    # its Membership vector went on delivering 4's new messages in the
    # old view; the others, whose vectors all reported less, dropped them
    # as past the synced prefix, and member 2 missed (4, 23)…(4, 27)
    plan = chaos_plan_for("active", "combo", 7)
    plan.events = [ChaosEvent("loss", 0.5213484883113587, 0.7670405562224121,
                              value=0.058265697824308335),
                   ChaosEvent("crash_restart", 0.544, pids=(4,), value=0.160)]
    result = run_plan(plan, chaos_config_for("active", "combo"))
    assert result.violations == []
    assert result.final_members == (1, 2, 3, 5)


def test_a_view_ordered_inside_a_drain_does_not_reorder_the_convicted():
    # The campaign's combo seed 7, shrunk to three events: 4 pauses past
    # the suspect timeout under 5.8 % loss while 6 joins.  The survivors
    # convict 4 and their drain delivers 1's and 2's messages past 4's
    # synced prefix; the AddProcessor of 6, ordered inside the drain,
    # installs a view that ends it with 4 still a member.  4 is heard
    # again, and its messages below the drained ones were delivered after
    # them, (136, 2) then (120, 4), and never by 6
    import os

    from repro.analysis.chaos import replay

    path = os.path.join(os.path.dirname(__file__), "..", "data", "explore",
                        "active-combo-7-s7000.json")
    result = replay(path)
    assert result.violations == []
    assert result.final_members == (1, 2, 3, 5, 6)
