"""The head cover: the sole member the ordering queue's head waits for.

§6 delivers the head of the ordering queue once every member has been
heard at or past its timestamp; a member's own stream is past it by its
ordering clock.  When every member but this one has been heard past
it, this one delivers it at once, and if it has stamped nothing at or
past it, the whole group waits for its §5 null message.  It sends one
after ``heartbeat_interval * HEAD_COVER_DELAY`` (``SendPath.cover_head``,
asked once per received datagram whether its ack has passed its last
stamp) unless it stamps something first.  With two laggards or more,
each sends it ``heartbeat_interval * LATE_COVER_DELAY`` after the head
arrived (``SendPath.cover_late``), unless it stamps something first.
These tests pin when they do and when they do not.
"""

import pytest

from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.core.constants import MessageType
from repro.core.datapath import HEAD_COVER_DELAY, LATE_COVER_DELAY
from repro.simnet import LinkModel, Network, Topology

GROUP, ADDRESS = 1, 5001
PIDS = (1, 2, 3, 4)
INTERVAL = 0.02
HOP = 0.0001
#: a jitter-free LAN: a datagram arrives exactly one hop after its send
STEADY_LAN = Topology(default=LinkModel(latency=HOP, jitter=0.0, loss=0.0))
#: a quarter interval past the last idle-clock tick of the settled group
T0 = 0.305


def build(config=None):
    net = Network(STEADY_LAN, seed=0)
    cfg = config if config is not None else FTMPConfig(heartbeat_interval=INTERVAL)
    stacks = {p: FTMPStack(net.endpoint(p), cfg, RecordingListener()) for p in PIDS}
    for s in stacks.values():
        s.create_group(GROUP, ADDRESS, PIDS)
    net.scheduler.run_until(T0)
    return net, stacks, {p: stacks[p].group(GROUP) for p in PIDS}


def record(net, group):
    """(time, type) of every message ``group`` stamps from now on."""
    sent = []
    send = group.send_path.send

    def sending(msg, address=None):
        sent.append((net.scheduler.now, msg.header.message_type))
        return send(msg, address)

    group.send_path.send = sending
    return sent


def covers(groups):
    return {p: g.stats.cover_heartbeats for p, g in groups.items()}


def member_1_sends_then(net, stacks, others):
    """Member 1 multicasts at T0; ``others`` each multicast one hop after
    it arrived, so that they are heard past its timestamp.  Returns when
    the last of them reaches everyone."""
    stacks[1].multicast(GROUP, b"head")
    for p in others:
        net.scheduler.at(T0 + 2 * HOP, stacks[p].multicast, GROUP, b"after %d" % p)
    return T0 + 3 * HOP


def test_the_sole_laggard_heartbeats_an_eighth_of_an_interval_after():
    net, stacks, groups = build()
    sent = record(net, groups[4])
    heard = member_1_sends_then(net, stacks, (2, 3))
    net.scheduler.run_until(heard + INTERVAL / 4)
    beats = [t for t, m in sent if m == MessageType.HEARTBEAT]
    assert len(beats) == 1
    assert beats[0] == pytest.approx(heard + INTERVAL * HEAD_COVER_DELAY, abs=1e-6)
    assert INTERVAL * HEAD_COVER_DELAY == INTERVAL / 8
    assert groups[4].stats.cover_heartbeats == 1
    # 4 delivered the head the moment the others were heard past it —
    # its own cover is its clock — and every other member one hop after
    # the cover, not at an idle-clock tick
    assert stacks[4].listener.deliveries[0].payload == b"head"
    assert stacks[4].listener.deliveries[0].delivered_at == pytest.approx(heard, abs=1e-9)
    for p in (1, 2, 3):
        first = stacks[p].listener.deliveries[0]
        assert first.payload == b"head"
        assert beats[0] < first.delivered_at <= beats[0] + HOP + 1e-9


def test_no_head_cover_when_the_laggard_stamps_first():
    net, stacks, groups = build()
    sent = record(net, groups[4])
    heard = member_1_sends_then(net, stacks, (2, 3))
    net.scheduler.at(heard + INTERVAL / 16, stacks[4].multicast, GROUP, b"mine")
    net.scheduler.run_until(heard + INTERVAL / 4)
    assert sent == [(heard + INTERVAL / 16, MessageType.REGULAR)]
    assert groups[4].stats.cover_heartbeats == 0
    assert [d.payload for d in stacks[4].listener.deliveries][:1] == [b"head"]


def test_two_laggards_cover_late():
    net, stacks, groups = build()
    logs = {p: record(net, groups[p]) for p in (3, 4)}
    member_1_sends_then(net, stacks, (2,))
    late = T0 + HOP + INTERVAL * LATE_COVER_DELAY  # after the head arrived
    net.scheduler.run_until(late - HOP)
    # 3 and 4 each hold the head back: no head cover, the sole laggard's
    assert covers(groups)[3] == covers(groups)[4] == 0
    assert all(not sent for sent in logs.values())
    assert all(not stacks[p].listener.deliveries for p in PIDS)
    # the late cover: 5/8 of an interval after the arrival, not a whole
    # one after the last idle-clock tick
    net.scheduler.run_until(late + 2 * HOP)
    for p in (3, 4):
        assert [t for t, _ in logs[p]] == [pytest.approx(late, abs=1e-9)]
        assert [m for _, m in logs[p]] == [MessageType.HEARTBEAT]
    assert covers(groups)[3] == covers(groups)[4] == 1
    assert LATE_COVER_DELAY == 5 / 8
    for p in PIDS:
        first = stacks[p].listener.deliveries[0]
        assert first.payload == b"head"
        assert late < first.delivered_at <= late + HOP + 1e-9


def test_no_late_cover_when_a_laggard_stamps_first():
    net, stacks, groups = build()
    logs = {p: record(net, groups[p]) for p in (3, 4)}
    member_1_sends_then(net, stacks, (2,))
    late = T0 + HOP + INTERVAL * LATE_COVER_DELAY
    net.scheduler.at(T0 + INTERVAL / 4, stacks[4].multicast, GROUP, b"mine")
    net.scheduler.run_until(late + 2 * HOP)
    # 4's own Regular covered the head: its idle clock is back to a
    # whole interval after that send
    assert logs[4] == [(T0 + INTERVAL / 4, MessageType.REGULAR)]
    assert covers(groups)[4] == 0
    assert [m for _, m in logs[3]] == [MessageType.HEARTBEAT]
    assert covers(groups)[3] == 1


@pytest.mark.parametrize("config", [
    FTMPConfig(heartbeat_interval=INTERVAL, ordering="leader"),
    FTMPConfig(heartbeat_interval=INTERVAL, dissemination="tree"),
], ids=["leader", "tree"])
def test_no_head_cover_in_a_discipline_where_covers_are_off(config):
    net, stacks, groups = build(config)
    heard = member_1_sends_then(net, stacks, (2, 3))
    net.scheduler.run_until(heard + INTERVAL / 4)
    assert covers(groups) == dict.fromkeys(PIDS, 0)


def test_no_head_cover_while_joining():
    net, stacks, groups = build()
    sent = record(net, groups[4])
    # as between a provisional seed and the ordered AddProcessor
    groups[4].joining, groups[4].join_barrier = True, (0, 0)
    heard = member_1_sends_then(net, stacks, (2, 3))
    net.scheduler.run_until(heard + INTERVAL / 4)
    groups[4].joining, groups[4].join_barrier = False, None
    assert not sent
    assert groups[4].stats.cover_heartbeats == 0


@pytest.mark.parametrize("config", [
    FTMPConfig(heartbeat_interval=INTERVAL, ordering="leader"),
    FTMPConfig(heartbeat_interval=INTERVAL, dissemination="tree"),
], ids=["leader", "tree"])
def test_no_late_cover_in_a_discipline_where_covers_are_off(config):
    net, stacks, groups = build(config)
    member_1_sends_then(net, stacks, (2,))
    net.scheduler.run_until(T0 + HOP + INTERVAL * 3 / 4)
    assert covers(groups) == dict.fromkeys(PIDS, 0)


def test_no_late_cover_while_joining():
    net, stacks, groups = build()
    sent = record(net, groups[4])
    groups[4].joining, groups[4].join_barrier = True, (0, 0)
    member_1_sends_then(net, stacks, (2,))
    # past 3's late cover, short of the idle clock's next tick
    net.scheduler.run_until(T0 + 3 * HOP + INTERVAL * LATE_COVER_DELAY)
    groups[4].joining, groups[4].join_barrier = False, None
    assert not sent
    assert groups[4].stats.cover_heartbeats == 0
    assert groups[3].stats.cover_heartbeats == 1
