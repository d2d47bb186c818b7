"""ConnectionManager internals."""

from repro.core import ConnectionId, ConnectMessage, FTMPConfig, FTMPStack, RecordingListener
from repro.core.connection import domain_multicast_address
from repro.simnet import Network, lan

CID = ConnectionId(3, 200, 7, 100)
CID2 = ConnectionId(3, 201, 7, 100)


def build():
    net = Network(lan(), seed=0)
    stacks = {}
    for pid in (1, 2, 8):
        stacks[pid] = FTMPStack(net.endpoint(pid), FTMPConfig(),
                                RecordingListener())
    for pid in (1, 2):
        stacks[pid].serve(domain=7, object_group=100, server_pids=(1, 2))
    return net, stacks


def establish(net, stacks, cid=CID):
    stacks[8].request_connection(cid, client_pids=(8,))
    net.run_for(0.3)


def test_drop_unknown_connection_is_noop():
    net, stacks = build()
    assert stacks[8].connections.drop(CID) is None


def test_drop_returns_group_when_last_reference():
    net, stacks = build()
    establish(net, stacks)
    binding = stacks[8].connection_binding(CID)
    assert stacks[8].connections.drop(CID) == binding.group_id
    assert stacks[8].connection_binding(CID) is None


def test_drop_keeps_group_while_shared():
    net, stacks = build()
    establish(net, stacks, CID)
    establish(net, stacks, CID2)
    b1 = stacks[8].connection_binding(CID)
    b2 = stacks[8].connection_binding(CID2)
    assert b1.group_id == b2.group_id
    assert stacks[8].connections.drop(CID) is None  # still shared
    assert stacks[8].connections.drop(CID2) == b2.group_id


def test_release_connection_local_removes_orphan_group():
    net, stacks = build()
    establish(net, stacks)
    gid = stacks[8].connection_binding(CID).group_id
    stacks[8].release_connection_local(CID)
    assert stacks[8].group(gid) is None


def test_request_is_idempotent():
    net, stacks = build()
    stacks[8].request_connection(CID, client_pids=(8,))
    stacks[8].request_connection(CID, client_pids=(8,))  # no double pending
    net.run_for(0.3)
    assert stacks[8].connection_binding(CID).established


def test_connect_request_for_foreign_group_ignored():
    net, stacks = build()
    foreign = ConnectionId(3, 200, 9, 999)  # domain we do not serve
    stacks[8].request_connection(foreign, client_pids=(8,))
    net.run_for(0.3)
    assert stacks[8].connection_binding(foreign) is None


def test_open_release_cycles_leave_the_duplicate_tables_empty():
    # one watermark per (connection, kind) lives only as long as the
    # connection: 10**4 handshakes of one cid, each recording an
    # in-order request and an out-of-order reply at both ends
    net = Network(lan(), seed=0)
    server = FTMPStack(net.endpoint(1), FTMPConfig())
    client = FTMPStack(net.endpoint(8), FTMPConfig())
    server.serve(domain=7, object_group=100, server_pids=(1,))
    for i in range(10**4):
        client.request_connection(CID, client_pids=(8,))
        net.run_for(0.002)
        assert client.connection_binding(CID) is not None, i
        for stack in (server, client):
            assert not stack.duplicates.is_duplicate(CID, 1, "request")
            assert not stack.duplicates.is_duplicate(CID, 3, "reply")
            stack.release_connection_local(CID)
    for stack in (server, client):
        assert stack.duplicates._watermark == {} and stack.duplicates._sparse == {}
        assert stack.groups() == {} and stack.connection_binding(CID) is None
    assert client.duplicates.duplicates_suppressed == 0


def test_a_connection_shares_the_group_while_any_sharer_is_left():
    # the membership's group is found by lookup, not by a scan of the
    # bindings: it must stay found after the connection that created it
    # is released, while another still uses it
    net, stacks = build()
    establish(net, stacks, CID)
    establish(net, stacks, CID2)
    gid = stacks[8].connection_binding(CID).group_id
    for pid in (1, 2, 8):
        stacks[pid].release_connection_local(CID)
    cid3 = ConnectionId(3, 202, 7, 100)
    establish(net, stacks, cid3)
    assert {stacks[p].connection_binding(cid3).group_id for p in (1, 2, 8)} == {gid}


def test_an_ordered_connect_for_another_membership_binds_nothing():
    # a group's own stream can carry a Connect for a new connection only
    # over the membership of the connections it already serves (§7
    # sharing); one listing another membership is counted, not bound
    net, stacks = build()
    establish(net, stacks)
    gid = stacks[8].connection_binding(CID).group_id
    g = stacks[1].group(gid)
    g.send(ConnectMessage, CID2, gid, g.address, g.view_timestamp, (1, 2, 8, 9))
    net.run_for(0.3)
    for pid in (2, 8):
        assert stacks[pid].connection_binding(CID2) is None
        assert stacks[pid].snapshot()["connections.id_collisions"] == 1
        assert stacks[pid].connection_binding(CID).group_id == gid


def test_a_released_server_refuses_a_resend_of_the_old_connect():
    # a resend of the Connect that bound a connection, reaching a server
    # after it released it, must not bootstrap the group again
    net, stacks = build()
    establish(net, stacks)
    connect = stacks[1].connection_binding(CID).connect
    gid = stacks[2].connection_binding(CID).group_id
    stacks[2].release_connection_local(CID)
    stacks[1].group(gid).retransmit(connect, address=domain_multicast_address(7))
    net.run_for(0.01)
    assert stacks[2].connection_binding(CID) is None
    assert not stacks[2].holds_group(gid)
