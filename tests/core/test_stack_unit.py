"""FTMPStack unit behaviour: routing, heartbeats, stats, lifecycle."""

import pytest

from repro.analysis import make_cluster
from repro.core import (
    ConnectionId,
    FTMPConfig,
    FTMPStack,
    HeartbeatMessage,
    RecordingListener,
)
from repro.simnet import Network, lan


def test_heartbeats_suppressed_by_application_traffic():
    # §5: a Heartbeat is sent only "if the processor has not multicast a
    # Regular message ... within a specified period of time"
    c = make_cluster((1, 2), config=FTMPConfig(heartbeat_interval=0.01))
    # node 1 sends Regulars faster than the heartbeat interval
    for i in range(100):
        c.net.scheduler.at(0.004 * i, c.stacks[1].multicast, 1, b"busy")
    c.run_for(0.4)
    g1 = c.stacks[1].group(1)
    g2 = c.stacks[2].group(1)
    assert g1.stats.heartbeats_sent <= 2  # quiet start only
    assert g2.stats.heartbeats_sent >= 30  # the quiet node heartbeats


def test_heartbeat_carries_latest_seq_and_ack():
    c = make_cluster((1, 2))
    c.stacks[1].multicast(1, b"one")
    c.stacks[1].multicast(1, b"two")
    c.run_for(0.2)
    g1 = c.stacks[1].group(1)
    # a heartbeat's header reuses the last reliable seq
    h = g1.send(HeartbeatMessage).header
    assert h.sequence_number == 2
    assert h.ack_timestamp == g1.romp.ack_timestamp > 0


def test_unknown_group_datagrams_dropped_and_counted():
    net = Network(lan(), seed=0)
    a = FTMPStack(net.endpoint(1), FTMPConfig())
    b = FTMPStack(net.endpoint(2), FTMPConfig())
    a.create_group(1, 5001, (1, 2))
    # b joins the address at the IP level but has no group state
    net.endpoint(2).join(5001)
    b_receiver_installed = True
    a.multicast(1, b"x")
    net.run_for(0.1)
    assert b.stats.unknown_group_drops > 0


def test_decode_errors_counted_not_fatal():
    net = Network(lan(), seed=0)
    a = FTMPStack(net.endpoint(1), FTMPConfig())
    a.create_group(1, 5001, (1,))
    net.endpoint(2).join(5001)
    net.endpoint(2).set_receiver(lambda d: None)
    # inject garbage onto the group address
    garbage_sender = net.endpoint(3)
    garbage_sender.multicast(5001, b"not ftmp at all")
    net.run_for(0.05)
    assert a.stats.decode_errors == 1
    # the stack still works
    a.multicast(1, b"fine")
    net.run_for(0.1)


def test_stack_in_multiple_groups_simultaneously():
    # §2: "Each processor can be a member of several processor groups at
    # the same time."
    net = Network(lan(), seed=1)
    listeners, stacks = {}, {}
    for pid in (1, 2, 3):
        lst = RecordingListener()
        st = FTMPStack(net.endpoint(pid), FTMPConfig(), lst)
        listeners[pid], stacks[pid] = lst, st
    # group A: {1,2}; group B: {2,3}; group C: {1,2,3}
    for pid in (1, 2):
        stacks[pid].create_group(10, 6010, (1, 2))
    for pid in (2, 3):
        stacks[pid].create_group(20, 6020, (2, 3))
    for pid in (1, 2, 3):
        stacks[pid].create_group(30, 6030, (1, 2, 3))
    stacks[1].multicast(10, b"A")
    stacks[3].multicast(20, b"B")
    # node 2 sends in group C only after delivering in groups A and B, so
    # its (single, per-processor) Lamport clock carries causality across
    # groups
    net.run_for(0.1)
    stacks[2].multicast(30, b"C")
    net.run_for(0.3)
    assert listeners[2].payloads(10) == [b"A"]
    assert listeners[2].payloads(20) == [b"B"]
    assert listeners[2].payloads(30) == [b"C"]
    assert listeners[1].payloads(20) == []  # not a member of B
    assert listeners[3].payloads(10) == []
    # one Lamport clock per processor spans its groups: a send in group C
    # after receiving in group A carries a larger timestamp
    a_ts = listeners[2].deliveries[0].timestamp
    assert any(d.timestamp > a_ts for d in listeners[2].deliveries)


def test_stop_cancels_everything_idempotently():
    c = make_cluster((1, 2, 3))
    c.run_for(0.05)
    c.stacks[1].stop()
    c.stacks[1].stop()  # idempotent
    before = c.net.scheduler.events_processed
    c.run_for(0.2)
    # nodes 2,3 keep running; node 1 neither sends nor crashes the run
    assert c.stacks[1].group(1) is None
    with pytest.raises(KeyError):
        c.stacks[1].multicast(1, b"x")


def test_multicast_to_unknown_group_raises():
    c = make_cluster((1, 2))
    with pytest.raises(KeyError):
        c.stacks[1].multicast(99, b"x")


def test_create_group_validations():
    c = make_cluster((1, 2))
    with pytest.raises(ValueError):
        c.stacks[1].create_group(1, 5001, (1, 2))  # already exists
    with pytest.raises(ValueError):
        c.stacks[1].create_group(2, 5002, (2, 3))  # not a member
    with pytest.raises(ValueError):
        c.stacks[1].join_as_new_member(1, 5001)  # group already exists


def test_big_endian_stack_interops_with_little_endian():
    # §3.2: the byte-order header flag lets mixed-endian stacks interop
    net = Network(lan(), seed=0)
    lst1, lst2 = RecordingListener(), RecordingListener()
    a = FTMPStack(net.endpoint(1), FTMPConfig(little_endian=False), lst1)
    b = FTMPStack(net.endpoint(2), FTMPConfig(little_endian=True), lst2)
    a.create_group(1, 5001, (1, 2))
    b.create_group(1, 5001, (1, 2))
    a.multicast(1, b"from-big-endian")
    b.multicast(1, b"from-little-endian")
    net.run_for(0.3)
    assert lst1.payloads(1) == lst2.payloads(1)
    assert len(lst1.payloads(1)) == 2


def test_datagram_stats_counted():
    c = make_cluster((1, 2))
    c.stacks[1].multicast(1, b"x")
    c.run_for(0.2)
    assert c.stacks[1].stats.datagrams_sent > 0
    assert c.stacks[2].stats.datagrams_received > 0


def test_custom_allocator_used_for_connections():
    net = Network(lan(), seed=0)
    calls = []

    def allocator(membership):
        calls.append(membership)
        return 777, 8888

    server = FTMPStack(net.endpoint(1), FTMPConfig(), allocator=allocator)
    client = FTMPStack(net.endpoint(8), FTMPConfig())
    server.serve(domain=7, object_group=100, server_pids=(1,))
    cid = ConnectionId(3, 200, 7, 100)
    client.request_connection(cid, client_pids=(8,))
    net.run_for(0.3)
    assert calls == [(1, 8)]
    assert client.connection_binding(cid).group_id == 777
    assert client.connection_binding(cid).address == 8888
