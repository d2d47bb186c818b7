"""PGMP §7 / §4: logical connections between object groups."""

import pytest

from repro.core import (
    ConnectionId,
    DuplicateDetector,
    FTMPConfig,
    FTMPStack,
    RecordingListener,
    RequestNumbering,
)
from repro.simnet import Network, lan

CID = ConnectionId(client_domain=3, client_group=200, server_domain=7, server_group=100)


def build(pids=(1, 2, 8, 9), topology=None, seed=0, config=None):
    net = Network(topology if topology is not None else lan(), seed=seed)
    cfg = config if config is not None else FTMPConfig()
    stacks, listeners = {}, {}
    for pid in pids:
        lst = RecordingListener()
        stacks[pid] = FTMPStack(net.endpoint(pid), cfg, lst)
        listeners[pid] = lst
    return net, stacks, listeners


def establish(net, stacks, servers=(1, 2), clients=(8, 9), settle=0.3):
    for pid in servers:
        stacks[pid].serve(domain=CID.server_domain, object_group=CID.server_group,
                          server_pids=tuple(servers))
    for pid in clients:
        stacks[pid].request_connection(CID, client_pids=tuple(clients))
    net.run_for(settle)


def test_connect_handshake_establishes_shared_group():
    net, stacks, listeners = build()
    establish(net, stacks)
    bindings = {pid: stacks[pid].connection_binding(CID) for pid in (1, 2, 8, 9)}
    assert all(b is not None and b.established for b in bindings.values())
    gids = {b.group_id for b in bindings.values()}
    assert len(gids) == 1
    assert bindings[1].membership == (1, 2, 8, 9)


def test_messages_on_connection_delivered_to_both_groups():
    # §4: "Each message sent by a client (server) object group ... is
    # delivered to both groups, which enables duplicate detection."
    net, stacks, listeners = build()
    establish(net, stacks)
    stacks[8].send_on_connection(CID, b"REQ", request_num=1)
    net.run_for(0.2)
    for pid in (1, 2, 8, 9):
        assert [d.payload for d in listeners[pid].deliveries] == [b"REQ"]
        assert listeners[pid].deliveries[0].connection_id == CID
        assert listeners[pid].deliveries[0].request_num == 1


def test_handshake_survives_loss():
    net, stacks, listeners = build(topology=lan(loss=0.3), seed=3,
                                   config=FTMPConfig(suspect_timeout=10.0))
    establish(net, stacks, settle=2.0)
    assert stacks[8].connection_binding(CID).established


def test_duplicate_connect_requests_ignored():
    net, stacks, listeners = build()
    establish(net, stacks)
    binding_before = stacks[1].connection_binding(CID)
    # clients keep re-requesting (crossed retransmissions, §7)
    stacks[8].connections.request(CID, (8, 9))
    net.run_for(0.2)
    binding_after = stacks[1].connection_binding(CID)
    assert binding_after.group_id == binding_before.group_id


def test_connections_with_same_processors_share_group():
    net, stacks, listeners = build()
    establish(net, stacks)
    cid2 = ConnectionId(client_domain=3, client_group=201,
                        server_domain=7, server_group=100)
    for pid in (8, 9):
        stacks[pid].request_connection(cid2, client_pids=(8, 9))
    net.run_for(0.3)
    b1 = stacks[8].connection_binding(CID)
    b2 = stacks[8].connection_binding(cid2)
    assert b2 is not None and b2.established
    assert b1.group_id == b2.group_id  # shared processor group (§7)


def test_total_order_across_client_and_server_sends():
    net, stacks, listeners = build()
    establish(net, stacks)
    stacks[8].send_on_connection(CID, b"req-a", 1)
    stacks[1].send_on_connection(CID, b"rep-a", 1)
    stacks[9].send_on_connection(CID, b"req-b", 2)
    net.run_for(0.3)
    orders = {
        pid: [(d.timestamp, d.source) for d in listeners[pid].deliveries]
        for pid in (1, 2, 8, 9)
    }
    assert orders[1] == orders[2] == orders[8] == orders[9]
    assert len(orders[1]) == 3


def test_send_on_unestablished_connection_raises():
    net, stacks, listeners = build()
    with pytest.raises(RuntimeError):
        stacks[8].send_on_connection(CID, b"x", 1)


def test_migration_moves_group_to_new_address():
    net, stacks, listeners = build()
    establish(net, stacks)
    binding = stacks[1].connection_binding(CID)
    old_addr = binding.address
    new_addr = old_addr + 1
    stacks[1].migrate_connection(CID, new_addr)
    net.run_for(0.5)
    for pid in (1, 2, 8, 9):
        b = stacks[pid].connection_binding(CID)
        assert b.address == new_addr
        g = stacks[pid].group(b.group_id)
        assert g.address == new_addr
    # traffic still flows after migration
    stacks[9].send_on_connection(CID, b"after-migration", 5)
    net.run_for(0.3)
    for pid in (1, 2, 8, 9):
        assert b"after-migration" in [d.payload for d in listeners[pid].deliveries]


def test_migration_quiescence_defers_ordered_sends():
    # §7: after a Connect, no ordered transmissions until every member is
    # heard past its timestamp.
    net, stacks, listeners = build()
    establish(net, stacks)
    binding = stacks[1].connection_binding(CID)
    g = stacks[8].group(binding.group_id)
    stacks[1].migrate_connection(CID, binding.address + 1)
    net.run_for(0.002)  # Connect ordered, barrier not yet cleared everywhere
    if not g.romp.can_send_ordered():
        stacks[8].send_on_connection(CID, b"deferred", 9)
        assert g.stats.ordered_sends_deferred >= 1
    net.run_for(0.5)
    if g.stats.ordered_sends_deferred:
        assert b"deferred" in [d.payload for d in listeners[1].deliveries]


def test_request_numbering_monotonic_and_shared():
    n = RequestNumbering()
    assert [n.next() for _ in range(3)] == [1, 2, 3]
    n.observe(10)
    assert n.next() == 11
    n.observe(5)  # smaller: no effect
    assert n.next() == 12


def test_duplicate_detector_suppresses_repeats():
    d = DuplicateDetector()
    assert d.is_duplicate(CID, 1, "request") is False
    assert d.is_duplicate(CID, 1, "request") is True
    assert d.is_duplicate(CID, 1, "reply") is False  # different kind
    assert d.is_duplicate(CID.reversed(), 1, "request") is False  # different cid
    assert d.duplicates_suppressed == 1


def test_duplicate_detector_out_of_order_watermark():
    d = DuplicateDetector()
    assert not d.is_duplicate(CID, 3, "request")
    assert not d.is_duplicate(CID, 1, "request")
    assert not d.is_duplicate(CID, 2, "request")
    # watermark advanced to 3; all repeats detected
    for n in (1, 2, 3):
        assert d.is_duplicate(CID, n, "request")
    assert d.seen_count(CID, "request") == 3
