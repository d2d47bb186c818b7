"""The cover heartbeat: a connection Regular is acknowledged at once.

A member that receives a Regular on a §4 logical connection, and has
stamped nothing since that Regular's timestamp, sends one §5 Heartbeat on
the next scheduler turn instead of one heartbeat interval later
(``SendPath.cover``).  A Regular outside any connection takes the late
cover instead (``SendPath.cover_late``, pinned in ``test_head_cover.py``).
These tests pin when it does and when it does not.
"""

import pytest

from repro.core import ConnectionId, FTMPConfig, FTMPStack, RecordingListener
from repro.core.constants import MessageType
from repro.core.datapath import SendPath
from repro.simnet import LinkModel, Network, Topology

CID = ConnectionId(client_domain=3, client_group=200, server_domain=7, server_group=100)
SERVERS, CLIENTS = (1, 2), (8, 9)
PIDS = SERVERS + CLIENTS
#: a jitter-free LAN: back-to-back sends arrive in one instant
STEADY_LAN = Topology(default=LinkModel(latency=0.0001, jitter=0.0, loss=0.0))


def build(config=None, topology=STEADY_LAN):
    net = Network(topology, seed=0)
    cfg = config if config is not None else FTMPConfig(heartbeat_interval=0.02)
    stacks = {p: FTMPStack(net.endpoint(p), cfg, RecordingListener()) for p in PIDS}
    for p in SERVERS:
        stacks[p].serve(domain=CID.server_domain, object_group=CID.server_group,
                        server_pids=SERVERS)
    for p in CLIENTS:
        stacks[p].request_connection(CID, client_pids=CLIENTS)
    # settle, then stop a quarter interval past the 0.3 s mark
    net.run_for(0.305)
    assert all(stacks[p].connection_binding(CID).established for p in PIDS)
    gid = stacks[8].connection_binding(CID).group_id
    groups = {p: stacks[p].group(gid) for p in PIDS}
    return net, stacks, groups


def record(net, group):
    """Wrap ``group``'s send and receive entries: (time, type) of every
    message it stamps, and the times at which Regulars reach RMP."""
    sent, arrived = [], []
    send, on_message, on_run = group.send_path.send, group.rmp.on_message, group.rmp.on_run

    def sending(msg, address=None):
        sent.append((net.scheduler.now, msg.header.message_type))
        return send(msg, address)

    def receiving(msg):
        if msg.header.message_type == MessageType.REGULAR:
            arrived.append(net.scheduler.now)
        on_message(msg)

    def receiving_run(run):
        arrived.extend(net.scheduler.now for _ in run)
        return on_run(run)

    group.send_path.send = sending
    group.rmp.on_message = receiving
    group.rmp.on_run = receiving_run
    return sent, arrived


def heartbeats_at(sent, t):
    return [m for when, m in sent if when == t and m == MessageType.HEARTBEAT]


def covers(groups):
    return {p: g.stats.cover_heartbeats for p, g in groups.items()}


def test_an_idle_member_covers_a_connection_regular_in_the_same_instant():
    net, stacks, groups = build()
    logs = {p: record(net, groups[p]) for p in (1, 2, 9)}
    beats = {p: groups[p].stats.heartbeats_sent for p in PIDS}
    stacks[8].send_on_connection(CID, b"REQ", request_num=1)
    net.run_for(0.001)  # well inside one heartbeat interval
    for p, (sent, arrived) in logs.items():
        assert len(arrived) == 1
        assert len(heartbeats_at(sent, arrived[0])) == 1
        assert [m for _, m in sent] == [MessageType.HEARTBEAT]
        # a cover still counts as a heartbeat
        assert groups[p].stats.heartbeats_sent == beats[p] + 1
    assert covers(groups) == {1: 1, 2: 1, 8: 0, 9: 1}
    # every member delivered it one hop after the covers, not at a tick
    assert all(len(stacks[p].listener.deliveries) == 1 for p in PIDS)


@pytest.mark.parametrize("deferred", [False, True], ids=["at-once", "next-turn"])
def test_no_cover_when_the_member_sent_since(deferred):
    net, stacks, groups = build()
    sent, arrived = record(net, groups[1])
    on_message = groups[1].rmp.on_message

    def reply():
        stacks[1].send_on_connection(CID, b"REPLY", request_num=1)

    def answering(msg):
        # a server answering in the same instant, before the cover's turn
        # comes: its Reply is stamped past the Request, which is all a
        # cover would have said
        on_message(msg)
        if msg.header.message_type == MessageType.REGULAR and msg.header.source == 8:
            if deferred:
                net.scheduler.schedule(0.0, reply)
            else:
                reply()

    groups[1].rmp.on_message = answering
    stacks[8].send_on_connection(CID, b"REQ", request_num=1)
    net.run_for(0.001)
    assert arrived
    assert [m for _, m in sent] == [MessageType.REGULAR]
    assert groups[1].stats.cover_heartbeats == 0
    assert covers(groups)[2] == 1  # the idle server still covers


def test_only_late_covers_outside_a_connection(monkeypatch):
    called, immediate = [], []
    monkeypatch.setattr(SendPath, "cover", lambda self, msg: called.append(msg))
    tick = SendPath._tick

    def ticking(self):
        # the connection and head covers share one deadline; the late
        # cover is the idle clock's rule with an earlier deadline
        if self._cover_at <= self._ctx.now():
            immediate.append(self)
        tick(self)

    monkeypatch.setattr(SendPath, "_tick", ticking)
    net, stacks, groups = build()
    gid = stacks[8].connection_binding(CID).group_id
    beats = {p: groups[p].stats.heartbeats_sent for p in PIDS}
    for i in range(5):
        net.scheduler.schedule(0.0013 * i, stacks[8].multicast, gid, b"raw")
    net.run_for(0.1)
    # ConnectionId.none() is an identity test: the rule is never entered
    assert not called
    assert not immediate
    # one late cover for the five Regulars at each member that received them
    assert covers(groups) == {1: 1, 2: 1, 8: 0, 9: 1}
    assert all(len(stacks[p].listener.deliveries) == 5 for p in PIDS)
    # the idle clock is all there is besides: 0.1 s of 0.02 s intervals
    assert all(groups[p].stats.heartbeats_sent - beats[p] <= 5 for p in PIDS)


def test_a_connection_regular_takes_the_connection_cover_only(monkeypatch):
    late = []
    monkeypatch.setattr(SendPath, "cover_late", lambda self, ts: late.append(ts))
    net, stacks, groups = build()
    stacks[8].send_on_connection(CID, b"REQ", request_num=1)
    net.run_for(0.1)
    assert not late
    assert covers(groups) == {1: 1, 2: 1, 8: 0, 9: 1}
    assert all(len(stacks[p].listener.deliveries) == 1 for p in PIDS)


def test_no_cover_for_a_connection_this_stack_does_not_hold():
    net, stacks, groups = build()
    gid = stacks[8].connection_binding(CID).group_id
    stacks[8].multicast(gid, b"stray", connection_id=ConnectionId(1, 2, 3, 4))
    net.run_for(0.001)
    assert covers(groups) == dict.fromkeys(PIDS, 0)


@pytest.mark.parametrize("config", [
    FTMPConfig(heartbeat_interval=0.02, ordering="leader"),
    FTMPConfig(heartbeat_interval=0.02, dissemination="tree"),
], ids=["leader", "tree"])
def test_no_cover_in_a_discipline_where_it_gates_nothing(config):
    net, stacks, groups = build(config)
    stacks[8].send_on_connection(CID, b"REQ", request_num=1)
    net.run_for(0.1)
    assert all(len(stacks[p].listener.deliveries) == 1 for p in PIDS)
    assert covers(groups) == dict.fromkeys(PIDS, 0)


def test_no_cover_while_joining():
    net, stacks, groups = build()
    sent, arrived = record(net, groups[1])
    # as between a provisional seed and the ordered AddProcessor
    groups[1].joining, groups[1].join_barrier = True, (0, 0)
    stacks[8].send_on_connection(CID, b"REQ", request_num=1)
    net.run_for(0.001)
    groups[1].joining, groups[1].join_barrier = False, None
    assert arrived
    assert not sent
    assert groups[1].stats.cover_heartbeats == 0


@pytest.mark.parametrize("batch_window", [0.0, 0.0005], ids=["datagrams", "batch"])
def test_regulars_arriving_in_one_instant_cost_one_cover(batch_window):
    net, stacks, groups = build(FTMPConfig(heartbeat_interval=0.02,
                                           batch_window=batch_window))
    burst = range(1, 6)
    if batch_window:
        # the first send of a burst goes alone (test_adaptive_batching.py);
        # the five after it engage the window and arrive as one BATCH,
        # after the members covered the lone one
        burst = range(1, 7)
    for n in burst:
        stacks[8].send_on_connection(CID, b"REQ", request_num=n)
    if batch_window:
        net.run_for(batch_window / 2)
    before = covers(groups)
    logs = {p: record(net, groups[p]) for p in (1, 2, 9)}
    net.run_for(0.003)
    for p, (sent, arrived) in logs.items():
        assert len(arrived) == 5 and len(set(arrived)) == 1
        assert len(heartbeats_at(sent, arrived[0])) == 1
    assert {p: n - before[p] for p, n in covers(groups).items()} == {1: 1, 2: 1, 8: 0, 9: 1}
    if batch_window:
        assert groups[1].batch_stats.batches_received >= 1
