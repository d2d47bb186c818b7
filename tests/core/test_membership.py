"""PGMP §7.1: AddProcessor / RemoveProcessor for non-faulty processors."""

import pytest

from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.core.romp import DEPARTED, LEAVING
from repro.analysis.harness import make_cluster


def add_member(cluster, new_pid, group=1, address=5001, initiator=None):
    """Bring a fresh processor into an existing cluster's group."""
    lst = RecordingListener()
    st = FTMPStack(cluster.net.endpoint(new_pid), FTMPConfig(), lst)
    cluster.stacks[new_pid] = st
    cluster.listeners[new_pid] = lst
    st.join_as_new_member(group, address)
    init = initiator if initiator is not None else min(
        p for p in cluster.stacks if p != new_pid
    )
    cluster.stacks[init].add_processor(group, new_pid)
    return st, lst


def test_add_processor_installs_view_everywhere():
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    add_member(c, 4)
    c.run_for(0.3)
    for pid in (1, 2, 3, 4):
        assert c.listeners[pid].current_membership(1) == (1, 2, 3, 4)


def test_new_member_participates_in_total_order():
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    add_member(c, 4)
    c.run_for(0.3)
    c.stacks[4].multicast(1, b"from-4")
    c.stacks[1].multicast(1, b"from-1")
    c.run_for(0.3)
    orders = c.orders(1)
    assert orders[1] == orders[2] == orders[3]
    for pid in (1, 2, 3):
        assert b"from-4" in c.listeners[pid].payloads(1)
    assert b"from-4" in c.listeners[4].payloads(1)


def test_new_member_delivery_is_suffix_of_old_members():
    c = make_cluster((1, 2, 3))
    for i in range(10):
        c.net.scheduler.at(0.002 * i, c.stacks[1].multicast, 1, f"pre{i}".encode())
    c.net.scheduler.at(0.008, lambda: add_member(c, 4))
    for i in range(10):
        c.net.scheduler.at(0.05 + 0.002 * i, c.stacks[2].multicast, 1, f"post{i}".encode())
    c.run_for(1.0)
    full = c.orders(1)[1]
    suffix = c.orders(1)[4]
    assert len(suffix) > 0
    assert suffix == full[-len(suffix):]
    # everything after the join point was delivered to the new member
    assert all(f"post{i}".encode() in c.listeners[4].payloads(1) for i in range(10))


def test_ordering_continues_during_add():
    # §7.1: ordering "continues unaffected" by non-faulty changes.
    c = make_cluster((1, 2, 3))
    for i in range(30):
        c.net.scheduler.at(0.001 * i, c.stacks[3].multicast, 1, f"m{i}".encode())
    c.net.scheduler.at(0.012, lambda: add_member(c, 4))
    c.run_for(1.0)
    assert [p for p in c.listeners[1].payloads(1)] == [f"m{i}".encode() for i in range(30)]
    orders = c.orders(1)
    assert orders[1] == orders[2] == orders[3]
    # the joiner's history is a suffix of the full order
    assert orders[4] == orders[1][-len(orders[4]):]


def test_remove_processor_shrinks_view_and_evicts():
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    c.stacks[1].remove_processor(1, 3)
    c.run_for(0.3)
    assert c.listeners[1].current_membership(1) == (1, 2)
    assert c.listeners[2].current_membership(1) == (1, 2)
    # the removed processor saw its own eviction and dropped the group
    evicted_views = [v for v in c.listeners[3].views if v.reason == "remove"]
    assert evicted_views and evicted_views[-1].removed == (3,)
    assert c.stacks[3].group(1) is None


def test_removed_processor_messages_after_remove_are_not_delivered():
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    c.stacks[1].remove_processor(1, 3)
    c.run_for(0.3)
    # node 3 is gone; survivors keep exchanging messages consistently
    c.stacks[1].multicast(1, b"after")
    c.run_for(0.2)
    assert c.listeners[1].payloads(1) == [b"after"]
    assert c.listeners[2].payloads(1) == [b"after"]


def test_self_leave_via_remove():
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    c.stacks[2].leave_group(1)
    c.run_for(0.3)
    assert c.stacks[2].group(1) is None
    assert c.listeners[1].current_membership(1) == (1, 3)


def test_add_then_remove_round_trip():
    c = make_cluster((1, 2))
    c.run_for(0.05)
    add_member(c, 3)
    c.run_for(0.3)
    assert c.listeners[1].current_membership(1) == (1, 2, 3)
    c.stacks[1].remove_processor(1, 3)
    c.run_for(0.3)
    assert c.listeners[1].current_membership(1) == (1, 2)
    c.stacks[1].multicast(1, b"still-works")
    c.run_for(0.2)
    assert c.listeners[2].payloads(1)[-1] == b"still-works"


def test_add_retransmits_until_new_member_heard():
    # Start the new member's stack *late*: the initiator must keep
    # retransmitting the AddProcessor (§7.1, unreliable to the new member).
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    lst = RecordingListener()
    st = FTMPStack(c.net.endpoint(4), FTMPConfig(), lst)
    c.stacks[4] = st
    c.listeners[4] = lst
    # initiator announces the add before the new member starts listening
    c.stacks[1].add_processor(1, 4)
    c.net.scheduler.at(c.net.scheduler.now + 0.1, st.join_as_new_member, 1, 5001)
    c.run_for(0.5)
    assert lst.current_membership(1) == (1, 2, 3, 4)
    st.multicast(1, b"late-joiner")
    c.run_for(0.2)
    assert b"late-joiner" in c.listeners[1].payloads(1)


def test_duplicate_add_is_rejected():
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    import pytest

    with pytest.raises(ValueError):
        c.stacks[1].add_processor(1, 2)  # already a member
    with pytest.raises(ValueError):
        c.stacks[1].remove_processor(1, 99)  # not a member


def test_view_timestamps_agree_across_members():
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    add_member(c, 4)
    c.run_for(0.3)
    stamps = {pid: c.listeners[pid].views[-1].view_timestamp for pid in (1, 2, 3, 4)}
    assert len(set(stamps.values())) == 1


def leave_then_rejoin(gap, sponsor):
    """Processor 3 leaves, then ``gap`` seconds after it ordered its own
    removal (None: at that instant) asks back in under the same pid,
    ``sponsor`` adding it.  Returns the cluster, 3's lifecycle row state
    at the other members when the AddProcessor went out, and whether 3
    still lingered."""
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    seen = {}

    def rejoin():
        seen["rows"] = {p: getattr(c.stacks[p].group(1).peers.get(3), "state", None)
                        for p in (1, 2)}
        seen["lingering"] = c.stacks[3].holds_group(1)
        c.stacks[3].join_as_new_member(1, 5001)
        c.stacks[sponsor].add_processor(1, 3)

    c.stacks[3].leave_group(1)
    with pytest.raises(ValueError):  # its removal is not ordered yet
        c.stacks[3].join_as_new_member(1, 5001)
    if gap is None:
        g = c.stacks[3].group(1)
        linger = g.linger

        def lingering(removal_ts):
            linger(removal_ts)
            c.net.scheduler.at(c.net.scheduler.now, rejoin)

        g.linger = lingering
    else:
        while c.stacks[3].group(1) is not None:
            c.run_for(0.0005)
        c.run_for(gap)
        rejoin()
    c.run_for(0.3)
    return c, seen["rows"], seen["lingering"]


def assert_rejoined(c):
    """Every member holds (1, 2, 3), each one's next multicast reaches
    all three in one order, and no lifecycle row is left anywhere."""
    for p in (1, 2, 3):
        assert c.listeners[p].current_membership(1) == (1, 2, 3)
    for p in (1, 2, 3):
        c.stacks[p].multicast(1, f"back-{p}".encode())
    c.run_for(0.3)
    for p in (1, 2, 3):
        payloads = c.listeners[p].payloads(1)
        assert all(f"back-{q}".encode() in payloads for q in (1, 2, 3))
        assert not c.stacks[p].group(1).peers
    assert c.orders(1)[1][-3:] == c.orders(1)[2][-3:] == c.orders(1)[3][-3:]


@pytest.mark.parametrize("sponsor", [1, 2])
@pytest.mark.parametrize("gap", [0.0, 0.020, 0.300])
def test_a_leaver_rejoins_under_its_own_pid(gap, sponsor):
    # Right after ordering its removal, 3 still lingers: joining ends
    # that.  Within suspect_timeout the others still hold 3 as departed:
    # the AddProcessor naming it ends that row; later the row has
    # expired.  Each way the group ends as (1, 2, 3), each member's next
    # multicast reaches all three, and no lifecycle row is left anywhere
    c, rows, lingering = leave_then_rejoin(gap, sponsor)
    assert lingering == (gap == 0.0)
    departed = gap < FTMPConfig().suspect_timeout
    assert rows == ({1: DEPARTED, 2: DEPARTED} if departed else {1: None, 2: None})
    assert_rejoined(c)


def test_a_rejoin_at_once_ends_the_leaving_rows():
    # 3 asks back in the instant it orders its removal: the others have
    # not heard its ack past the removal yet, so it is leaving there.
    # The AddProcessor naming it ends those rows; a leaver hold kept past
    # it held stability below 3's old RemoveProcessor, whose retained
    # copy then answered a NACK of 3's new stream and removed 3 again at
    # 1 and 2 but not at 3
    c, rows, lingering = leave_then_rejoin(None, 2)
    assert lingering and rows == {1: LEAVING, 2: LEAVING}
    assert_rejoined(c)
