"""The §5 idle clock: a Heartbeat one interval after the last stamped send.

§5: a processor that has sent nothing for one heartbeat interval sends a
Heartbeat.  ``SendPath._tick`` re-arms for the rest of the interval when
it finds the member idle for less, so the Heartbeat follows the last
stamped datagram (a reliable message or a Heartbeat) by exactly one
interval, wherever that send fell; sends never touch the timer.  These
tests pin the rule, that an open batch window does not move it, its
reach over a loaded group, and that a cover heartbeat
(``SendPath.cover``) restarts the clock like any other stamped send.
"""

import random

import pytest
from test_cover_heartbeat import CID, build

from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.core.constants import RELIABLE_TYPES, MessageType
from repro.simnet import LinkModel, Network, Topology, lan

GROUP, ADDRESS = 1, 5001
INTERVAL = 0.002
#: a jitter-free LAN
STEADY_LAN = Topology(default=LinkModel(latency=0.0001, jitter=0.0, loss=0.0))


def stamped_sends(net, group):
    """(time, type) of every reliable message or Heartbeat ``group``
    stamps from now on: what restarts its idle clock."""
    log = []
    send = group.send_path.send

    def sending(msg, address=None):
        mtype = msg.header.message_type
        if mtype in RELIABLE_TYPES or mtype == MessageType.HEARTBEAT:
            log.append((net.scheduler.now, mtype))
        return send(msg, address)

    group.send_path.send = sending
    return log


def founders(pids, config, topology=STEADY_LAN, seed=0):
    net = Network(topology, seed=seed)
    stacks = {p: FTMPStack(net.endpoint(p), config, RecordingListener()) for p in pids}
    for s in stacks.values():
        s.create_group(GROUP, ADDRESS, pids)
    return net, stacks


#: where in the interval the send falls, against the heartbeat timer's
#: start: just after a tick of a fixed grid, mid-way, just before one
@pytest.mark.parametrize("phase", [0.05, 0.5, 0.95])
def test_a_member_heartbeats_one_interval_after_its_last_send(phase):
    net, stacks = founders((1, 2, 3), FTMPConfig(heartbeat_interval=INTERVAL))
    net.run_for(0.1)
    log = stamped_sends(net, stacks[1].group(GROUP))
    t = 0.1 + phase * INTERVAL
    net.scheduler.at(t, stacks[1].multicast, GROUP, b"m")
    net.run_for(phase * INTERVAL + 3.5 * INTERVAL)
    after = [(when, m) for when, m in log if when >= t]
    assert after[0] == (t, MessageType.REGULAR)
    # then a Heartbeat every interval, counted from the send, not a grid
    for k, (when, mtype) in enumerate(after[1:4], start=1):
        assert mtype == MessageType.HEARTBEAT
        assert when == pytest.approx(t + k * INTERVAL, abs=1e-6)


def test_a_stale_tick_over_an_open_batch_window_keeps_the_idle_clock():
    # a Regular stamped into the batch window just before the idle tick it
    # makes stale: the tick finds the window open, but no Heartbeat is
    # due; the window flushes on its own timer and the next Heartbeat
    # follows the stamp by exactly one interval, not one from the tick.
    # The Regular is the second of a burst: the first goes alone and the
    # second, within a quarter window, engages the adaptive window.
    net, stacks = founders((1, 2, 3), FTMPConfig(heartbeat_interval=INTERVAL,
                                                 batch_window=INTERVAL / 2))
    group = stacks[1].group(GROUP)
    log = stamped_sends(net, group)
    net.run_for(0.101)
    beat, mtype = log[-1]
    assert mtype == MessageType.HEARTBEAT
    t = beat + 0.9 * INTERVAL  # the window is open until past beat + INTERVAL
    assert t - INTERVAL / 16 > net.scheduler.now
    net.scheduler.at(t - INTERVAL / 16, stacks[1].multicast, GROUP, b"alone")
    net.scheduler.at(t, stacks[1].multicast, GROUP, b"m")
    net.run_for(t - net.scheduler.now + 1.5 * INTERVAL)
    after = [(when, m) for when, m in log if when >= t]
    assert after[0] == (t, MessageType.REGULAR)
    assert after[1][1] == MessageType.HEARTBEAT
    assert after[1][0] == pytest.approx(t + INTERVAL, abs=1e-9)
    assert group.batch_stats.flushes_on_timer == 1


def test_no_live_member_is_silent_for_more_than_one_interval():
    # steady5 in small: five members on a LAN, each sending on its own
    # Poisson schedule at half the heartbeat rate, batching and flow
    # control off — so no send is ever held and no window pends
    pids = (1, 2, 3, 4, 5)
    net, stacks = founders(pids, FTMPConfig(heartbeat_interval=INTERVAL, suspect_timeout=30.0),
                           topology=lan(), seed=3)
    net.run_for(0.05)
    logs = {p: stamped_sends(net, stacks[p].group(GROUP)) for p in pids}
    start = net.scheduler.now
    rng = random.Random(7)
    for p in pids:
        t = start
        while (t := t + rng.expovariate(250.0)) < start + 0.5:
            net.scheduler.at(t, stacks[p].multicast, GROUP, b"x" * 64)
    net.run_for(0.5)
    for p in pids:
        times = [start] + [when for when, _ in logs[p]]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) <= INTERVAL + 1e-6, p
        assert any(m == MessageType.HEARTBEAT for _, m in logs[p])
    assert all(len(s.listener.deliveries) == len(stacks[1].listener.deliveries)
               for s in stacks.values())


def test_a_cover_heartbeat_restarts_the_idle_clock():
    net, stacks, groups = build(FTMPConfig(heartbeat_interval=0.02))
    log = stamped_sends(net, groups[1])
    stacks[8].send_on_connection(CID, b"REQ", request_num=1)
    net.run_for(0.05)
    assert groups[1].stats.cover_heartbeats == 1
    (cover, first), (periodic, second) = log[:2]
    assert first == second == MessageType.HEARTBEAT
    # the cover went out on the Request's arrival; the next Heartbeat one
    # interval after it, not at the timer armed before it
    assert periodic == pytest.approx(cover + 0.02, abs=1e-6)


def test_the_heartbeat_timer_cancels_nothing():
    # every rule only ever moves the deadline earlier: an earlier one
    # rides a second event, the one it supersedes fires as a no-op, and
    # each live firing arms the next — no event is cancelled
    pids = (1, 2, 3)
    net, stacks = founders(pids, FTMPConfig(heartbeat_interval=INTERVAL, suspect_timeout=30.0),
                           topology=lan(), seed=3)
    g = stacks[1].group(GROUP)
    armed = []
    schedule = g.schedule

    def scheduling(delay, fn, *args):
        event = schedule(delay, fn, *args)
        if fn == g.send_path._fire:
            armed.append(event)
        return event

    g.schedule = scheduling
    ticks = []
    tick = g.send_path._tick
    g.send_path._tick = lambda: (ticks.append(net.scheduler.now), tick())
    rng = random.Random(5)
    for p in (2, 3):
        t = 0.0
        while (t := t + rng.expovariate(250.0)) < 0.2:
            net.scheduler.at(t, stacks[p].multicast, GROUP, b"x" * 64)
    net.run_for(0.2)
    assert not any(event.cancelled for event in armed)
    # one arm per live firing, plus one per deadline moved earlier: the
    # late cover of the Regulars that 2 and 3 send (the first arm is
    # the start's)
    assert len(ticks) < len(armed) <= 2 * len(ticks) + 1
    assert g.stats.heartbeats_sent > 0
