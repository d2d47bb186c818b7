"""Ranked responder failover for connection establishment, and the
connection group ids both responders allocate."""

import itertools

import pytest

from repro.core import ConnectionId, FTMPConfig, FTMPStack, RecordingListener
from repro.core.connection import default_allocator, probe_group_id
from repro.core.constants import MessageType
from repro.core.wire import peek_header
from repro.simnet import LinkModel, Network, lan

CID = ConnectionId(3, 200, 7, 100)


def colliding_clients():
    """The first two client pids whose connections to servers (1, 2)
    hash to one 15-bit slot."""
    first = {}
    for client in itertools.count(3):
        group_id, _ = default_allocator((1, 2, client))
        if group_id in first:
            return first[group_id], client
        first[group_id] = client


def build(seed=0, clients=(8,), topology=None):
    net = Network(topology or lan(), seed=seed)
    stacks = {}
    for pid in (1, 2) + clients:
        stacks[pid] = FTMPStack(net.endpoint(pid), FTMPConfig(),
                                RecordingListener())
    for pid in (1, 2):
        stacks[pid].serve(domain=7, object_group=100, server_pids=(1, 2))
    return net, stacks


def test_default_allocation_is_deterministic_in_membership():
    a = default_allocator((1, 2, 8))
    b = default_allocator((8, 2, 1))  # order-insensitive
    assert a == b
    assert a != default_allocator((1, 2, 9))
    # a u16 id in the connection range: its datagrams fit the 21 B header
    assert 0x8000 <= a[0] <= 0xFFFF


def test_standby_answers_when_primary_responder_is_dead():
    net, stacks = build()
    net.crash(1)  # the would-be responder is gone before any request
    stacks[8].request_connection(CID, client_pids=(8,))
    net.run_for(1.0)
    b8 = stacks[8].connection_binding(CID)
    b2 = stacks[2].connection_binding(CID)
    assert b8 is not None and b8.established
    assert b2 is not None and b2.responder  # the standby stepped in
    # and the connection actually works
    stacks[8].send_on_connection(CID, b"via-standby", 1)
    net.run_for(0.3)
    payloads = [d.payload for d in stacks[2].listener.deliveries]
    assert b"via-standby" in payloads


def test_standby_does_not_answer_when_primary_is_alive():
    net, stacks = build()
    stacks[8].request_connection(CID, client_pids=(8,))
    net.run_for(1.0)
    b1 = stacks[1].connection_binding(CID)
    b2 = stacks[2].connection_binding(CID)
    assert b1 is not None and b1.responder
    # the standby adopted the primary's Connect rather than answering
    assert b2 is not None and not b2.responder


def test_concurrent_answers_converge_on_one_group():
    # even if primary and standby both answer (slow primary), the
    # deterministic allocation makes their Connects identical
    net, stacks = build()
    g1 = stacks[1].allocate_connection_group((1, 2, 8))
    g2 = stacks[2].allocate_connection_group((1, 2, 8))
    assert g1 == g2
    stacks[8].request_connection(CID, client_pids=(8,))
    net.run_for(1.0)
    gids = {stacks[p].connection_binding(CID).group_id for p in (1, 2, 8)}
    assert len(gids) == 1


def connect_colliding(crash_primary):
    """Client a connects to servers (1, 2), then client b, whose
    membership shares a's slot; the primary responder is alive or is
    crashed once a's connection is up.  Returns (a's id, b's id, stacks)."""
    a, b = colliding_clients()
    net, stacks = build(clients=(a, b))
    cid_a, cid_b = ConnectionId(3, a, 7, 100), ConnectionId(3, b, 7, 100)
    stacks[a].request_connection(cid_a, client_pids=(a,))
    net.run_for(0.5)
    if crash_primary:
        net.crash(1)
    stacks[b].request_connection(cid_b, client_pids=(b,))
    net.run_for(1.0)
    gid_a = stacks[a].connection_binding(cid_a).group_id
    gid_b = {stacks[p].connection_binding(cid_b).group_id for p in (2, b)}
    assert len(gid_b) == 1
    stacks[b].send_on_connection(cid_b, b"on-b", 1)
    net.run_for(0.3)
    assert b"on-b" in [d.payload for d in stacks[2].listener.deliveries]
    assert b"on-b" not in [d.payload for d in stacks[a].listener.deliveries]
    return gid_a, gid_b.pop(), stacks


def test_a_colliding_membership_gets_the_next_free_id():
    gid_a, gid_b, stacks = connect_colliding(crash_primary=False)
    a, b = colliding_clients()
    assert gid_a == default_allocator((1, 2, a))[0] == default_allocator((1, 2, b))[0]
    assert gid_b == probe_group_id(gid_a, 1) != gid_a
    assert 0x8000 <= gid_b <= 0xFFFF
    assert stacks[1].snapshot()["connections.id_collisions"] == 1
    assert stacks[2].group(gid_a).membership == (1, 2, a)
    assert stacks[2].group(gid_b).membership == (1, 2, b)


def test_primary_and_standby_probe_to_the_same_id():
    # the standby holds the same colliding group, so it probes as the
    # primary would have: its Connect names the same id
    _, by_primary, _ = connect_colliding(crash_primary=False)
    gid_a, by_standby, stacks = connect_colliding(crash_primary=True)
    assert by_standby == by_primary != gid_a
    assert stacks[2].connection_binding(ConnectionId(3, colliding_clients()[1], 7, 100)).responder


def count_connects(stacks):
    """Connect datagrams each stack sends from now on, resends included."""
    sent = {p: 0 for p in stacks}
    for p, stack in stacks.items():
        def transmit(address, raw, p=p, inner=stack.transmit):
            sent[p] += peek_header(raw).message_type == MessageType.CONNECT
            inner(address, raw)
        stack.transmit = transmit
    return sent


def drop_connects_from(stack, source, while_unbound):
    """``stack`` loses every Connect from ``source`` while it has no
    binding for CID (``while_unbound``), else only the first one."""
    lost = []

    def receive(raw):
        h = peek_header(raw)
        if (h.message_type == MessageType.CONNECT and h.source == source
                and (stack.connection_binding(CID) is None if while_unbound
                     else not lost)):
            lost.append(raw)
            return
        stack._on_datagram(raw)
    stack.endpoint.set_receiver(receive)
    return lost


def request_on_binding(net, stacks, payload=b"req"):
    """Open CID from client 8 and send on it the moment it is bound
    (the send is held at the §7 barrier)."""
    stacks[8].request_connection(CID, client_pids=(8,))
    for _ in range(200):
        if stacks[8].connection_binding(CID) is not None:
            break
        net.run_for(0.0005)
    stacks[8].send_on_connection(CID, payload, 1)
    return stacks[8].connection_binding(CID).group_id


def delivered(stack, payload):
    return [d.payload for d in stack.listener.deliveries].count(payload)


@pytest.mark.parametrize("dead", [1, 8])
def test_the_responder_stops_resending_once_a_dead_member_is_convicted(dead):
    # the Connect goes out until every *current* member is heard: the
    # primary responder crashed (the standby answers), or the client did
    # right after asking — the group convicts it, and the resends stop
    net, stacks = build()
    connects = count_connects(stacks)
    if dead == 1:
        net.crash(1)
    stacks[8].request_connection(CID, client_pids=(8,))
    if dead == 8:
        net.run_for(0.0001)
        net.crash(8)
    net.run_for(1.0)
    if dead == 1:
        binding = stacks[2].connection_binding(CID)
        assert binding.responder
        assert 1 not in stacks[2].group(binding.group_id).membership
    else:  # its last client gone, the servers released the connection
        assert stacks[1].connection_binding(CID) is None
    settled = dict(connects)
    net.run_for(1.0)
    assert connects == settled


def crash_the_client_in_the_handshake(topology=None):
    """The client crashes right after asking; a second later neither
    server holds the connection or its group, and nothing more goes on
    the wire."""
    net, stacks = build(topology=topology)
    stacks[8].request_connection(CID, client_pids=(8,))
    net.run_for(0.0001)
    net.crash(8)
    net.run_for(1.0)
    for pid in (1, 2):
        assert stacks[pid].connection_binding(CID) is None
        assert stacks[pid].groups() == {}
    sent = [stacks[pid].stats.datagrams_sent for pid in (1, 2)]
    net.run_for(1.0)
    assert [stacks[pid].stats.datagrams_sent for pid in (1, 2)] == sent


def test_a_connection_whose_client_crashed_in_the_handshake_is_released():
    # the servers bind the connection, bootstrap its group and convict
    # the client.  The view that removes the connection's last client
    # processor releases it at every server, as an ordered release would
    crash_the_client_in_the_handshake()


@pytest.mark.parametrize("latency", [0.010, 0.020])
def test_a_server_that_released_first_stays_released(latency):
    # a slow link between the servers: 2 hears the Connect, and the
    # client's silence starts, ``latency`` after 1, and the two convict
    # it at different instants.  The first to install the view releases
    # the connection while the other still drains; a resend of the old
    # Connect must not bootstrap the group again, and the released
    # server lingers until the other has heard it past the view's cut
    topology = lan()
    topology.set_link(1, 2, LinkModel(latency=latency, jitter=0.00005))
    crash_the_client_in_the_handshake(topology)


@pytest.mark.parametrize("primary", ["crashed", "alive"])
def test_responders_that_probe_apart_settle_on_the_later_id(primary):
    # only the primary holds the membership's first id (an application
    # group), so it answers with the second; the standby never hears
    # that Connect and answers with the first.  The members settle on
    # the later id: the client echoes its Connect to the standby
    net, stacks = build()
    gid, _ = default_allocator((1, 2, 8))
    stacks[1].create_group(gid, 5001, (1,))
    lost = drop_connects_from(stacks[2], source=1, while_unbound=primary == "alive")
    request_on_binding(net, stacks)
    assert stacks[8].connection_binding(CID).group_id == probe_group_id(gid, 1)
    if primary == "crashed":
        net.crash(1)
    net.run_for(1.0)
    # the standby answered on its own with the first id, then moved
    assert lost
    assert [e.processor_group for e in stacks[2].listener.connections] == [
        gid, probe_group_id(gid, 1)]
    live = (2, 8) if primary == "crashed" else (1, 2, 8)
    assert {stacks[p].connection_binding(CID).group_id for p in live} == {probe_group_id(gid, 1)}
    assert stacks[2].group(gid) is None
    assert delivered(stacks[2], b"req") == 1
    if primary == "alive":
        assert delivered(stacks[1], b"req") == 1
        assert stacks[1].group(gid).membership == (1,)  # untouched


@pytest.mark.parametrize("holder, held", [(8, "live"), (8, "joining"), (2, "live")])
def test_a_member_holding_the_id_refuses_the_connect(holder, held):
    # the client, or the standby server, holds the id the responder
    # allocates: it refuses the Connect, never merging it, and the
    # connection moves to the next id — a server answers past it, a
    # client names it in a ConnectRequest to the responder.  The standby
    # misses the first Connect, so a client that bound the first id has
    # sent on it before the standby refuses: the send moves along
    net, stacks = build()
    connects = count_connects(stacks)
    gid, address = default_allocator((1, 2, 8))
    if held == "live":
        app = stacks[holder].create_group(gid, 5001, (holder,))
    else:
        app = stacks[holder].join_as_new_member(gid, 5001)
    drop_connects_from(stacks[2], source=1, while_unbound=False)
    first = request_on_binding(net, stacks)
    assert first == (probe_group_id(gid, 1) if holder == 8 else gid)
    net.run_for(0.2)
    # the holder's group is left as it was ...
    assert stacks[holder].group(gid) is app and app.address == 5001
    assert app.membership == ((holder,) if held == "live" else ())
    assert stacks[holder].snapshot()["connections.id_collisions"] >= 1
    # ... and every member is on the next id, the request executed once
    moved = probe_group_id(gid, 1)
    assert {stacks[p].connection_binding(CID).group_id for p in (1, 2, 8)} == {moved}
    assert stacks[2].group(moved).membership == (1, 2, 8)
    assert delivered(stacks[1], b"req") == delivered(stacks[2], b"req") == 1
    # the handshake is over: no Connect is sent any more
    settled = dict(connects)
    net.run_for(0.5)
    assert connects == settled
