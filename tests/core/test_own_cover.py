"""The own cover: a member's own stream in its §6 gate.

§6 delivers a message once a message timestamped past it has been
received from every member.  For its own stream a member needs none: its
ordering clock never stamps at or below what it has observed, so once no
ordered message of its own is still on its way back (in the batch window
or on the loopback), the clock itself says that it is past every queued
message (``ROMP._cover_own``).  These tests pin that a member delivers
without a stamp of its own, that an own message still on its way back
holds a later head under both clock modes, and that the head cover still
tells the others, 1/8 interval after the member delivered
(``SendPath.cover_head``, asked from the ack).
"""

import pytest
from test_romp_unit import MockGroup, heartbeat, regular

from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.core.constants import MessageType
from repro.core.datapath import HEAD_COVER_DELAY
from repro.core.romp import ROMP
from repro.simnet import LinkModel, Network, Topology

GROUP, ADDRESS = 1, 5001
PIDS = (1, 2, 3)
INTERVAL = 0.02
HOP = 0.0001
#: a quarter interval past the last idle-clock tick of the settled group
T0 = 0.305
CLOCKS = ("lamport", "synchronized")


def build(config, self_delay=0.000001, first=None):
    """Three members on a jitter-free LAN: a datagram arrives exactly one
    hop after its send, our own copy ``self_delay`` after it.  Member 1
    runs ``first`` when given, the others ``config``."""
    topology = Topology(default=LinkModel(latency=HOP, jitter=0.0, loss=0.0),
                        self_delay=self_delay)
    net = Network(topology, seed=0)
    stacks = {p: FTMPStack(net.endpoint(p), first if p == 1 and first else config,
                           RecordingListener()) for p in PIDS}
    for s in stacks.values():
        s.create_group(GROUP, ADDRESS, PIDS)
    net.scheduler.run_until(T0)
    return net, stacks


def stamps(net, stacks, pid):
    """(time, type) of every message ``pid`` stamps from now on."""
    sent = []
    path = stacks[pid].group(GROUP).send_path
    send = path.send

    def sending(msg, address=None):
        sent.append((net.scheduler.now, msg.header.message_type))
        return send(msg, address)

    path.send = sending
    return sent


def order(stacks, pid):
    return [d.payload for d in stacks[pid].listener.deliveries]


def test_a_member_is_past_what_it_queued_without_a_stamp_of_its_own():
    g = MockGroup()
    r = ROMP(g)
    r.receive(regular(2, ts=5))
    r.receive_heartbeat(heartbeat(3, ts=6))
    assert [m.header.source for m in g.delivered] == [2]
    # our entry rose to the clock, 5 then, when it was the minimum
    assert r.order_ts(1) == 5


def test_a_member_delivers_once_every_other_member_is_heard_past():
    net, stacks = build(FTMPConfig(heartbeat_interval=INTERVAL))
    sent = stamps(net, stacks, 3)
    stacks[1].multicast(GROUP, b"m")
    # 2 is heard past m one hop after m reached it
    net.scheduler.at(T0 + HOP, stacks[2].multicast, GROUP, b"past")
    heard = T0 + 2 * HOP
    net.scheduler.run_until(heard)
    assert not sent  # 3 stamped nothing
    assert order(stacks, 3)[0] == b"m"
    assert stacks[3].listener.deliveries[0].delivered_at == pytest.approx(heard, abs=1e-9)


def test_a_joining_member_waits_for_its_own_loopback():
    g = MockGroup()
    g.joining = True
    r = ROMP(g)
    r.receive(regular(2, ts=5))
    r.receive_heartbeat(heartbeat(3, ts=6))
    assert g.delivered == []  # a joiner's own stream moves by its loopback


@pytest.mark.parametrize("clock", CLOCKS)
def test_an_own_message_in_the_batch_window_holds_a_later_head(clock):
    window = 0.005
    net, stacks = build(FTMPConfig(heartbeat_interval=INTERVAL, clock_mode=clock),
                        first=FTMPConfig(heartbeat_interval=INTERVAL, clock_mode=clock,
                                         batch_window=window))
    # a burst: ``alone`` bypasses the adaptive window, ``own`` engages it
    # and is held in 1's window until T0 + window
    stacks[1].multicast(GROUP, b"alone")
    stacks[1].multicast(GROUP, b"own")
    assert stacks[1].group(GROUP).send_path.pending_batch == 1
    net.scheduler.at(T0 + 1.5 * HOP, stacks[2].multicast, GROUP, b"later")
    net.scheduler.at(T0 + 3 * HOP, stacks[3].multicast, GROUP, b"past")
    own = stacks[1].group(GROUP).romp._own_sent[-1]
    net.scheduler.run_until(T0 + window / 2)
    # 1 has heard 2 and 3 past ``later``, ordered after ``own`` (by its
    # source on a timestamp tie): it holds ``later`` while its own
    # message waits in the window
    assert stacks[1].group(GROUP).romp.order_ts(2) >= own
    assert order(stacks, 1) == [b"alone"]
    net.scheduler.run_until(T0 + window + 3 * HOP)
    assert order(stacks, 1)[:3] == [b"alone", b"own", b"later"]
    net.scheduler.run_until(T0 + INTERVAL)
    assert order(stacks, 1) == order(stacks, 2) == order(stacks, 3)


@pytest.mark.parametrize("clock", CLOCKS)
def test_an_own_message_on_the_loopback_holds_a_later_head(clock):
    # our own copy comes back after the others' later messages
    net, stacks = build(FTMPConfig(heartbeat_interval=INTERVAL, clock_mode=clock),
                        self_delay=5 * HOP)
    stacks[1].multicast(GROUP, b"own")
    net.scheduler.at(T0 + HOP / 2, stacks[2].multicast, GROUP, b"later")
    net.scheduler.at(T0 + HOP, stacks[3].multicast, GROUP, b"past")
    net.scheduler.run_until(T0 + 4 * HOP)
    assert stacks[1].group(GROUP).romp.order_ts(3) >= stacks[1].group(GROUP).romp._own_sent[0]
    assert order(stacks, 1) == []
    net.scheduler.run_until(T0 + 5 * HOP)
    assert order(stacks, 1)[:2] == [b"own", b"later"]
    net.scheduler.run_until(T0 + INTERVAL)
    assert order(stacks, 1) == order(stacks, 2) == order(stacks, 3)


def test_the_sole_laggard_heartbeats_an_eighth_of_an_interval_after_it_delivers():
    net, stacks = build(FTMPConfig(heartbeat_interval=INTERVAL))
    sent = stamps(net, stacks, 3)
    stacks[1].multicast(GROUP, b"m")
    net.scheduler.at(T0 + HOP, stacks[2].multicast, GROUP, b"past")
    net.scheduler.run_until(T0 + INTERVAL / 2)
    delivered = stacks[3].listener.deliveries[0].delivered_at
    beats = [t for t, m in sent if m == MessageType.HEARTBEAT]
    assert beats[0] == pytest.approx(delivered + INTERVAL * HEAD_COVER_DELAY, abs=1e-9)
    assert stacks[3].group(GROUP).stats.cover_heartbeats == 1
    # 1 and 2 waited on 3 alone: each delivers m one hop after its beat
    for p in (1, 2):
        assert order(stacks, p)[0] == b"m"
        first = stacks[p].listener.deliveries[0].delivered_at
        assert beats[0] < first <= beats[0] + HOP + 1e-9
