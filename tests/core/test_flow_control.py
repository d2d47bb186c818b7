"""Stability-driven flow control (FTMPConfig.flow_control_window).

The credit window bounds how far a sender's own Regular stream may run
ahead of the group-wide *stability timestamp* (ROMP's §6 positive-ack
minimum).  Sends beyond the window queue at the sender — backpressure —
and drain as stability advances.  The same queue holds sends at a §7
quiescence barrier.  Off by default; with the window at 0 no send waits
on credits and the datapath is bit-identical to the legacy stack (the
legacy suites assert that side).
"""

import random
from unittest import mock

import pytest

from repro.analysis.harness import make_cluster
from repro.core import FlowControlSaturated, FTMPConfig, MessageType
from repro.core.datapath import FlowController
from repro.simnet import LinkModel, Topology, lan


def fc_cluster(window: int, seed: int = 3, loss: float = 0.0, **cfg):
    topo = (
        lan(loss=loss)
        if loss
        else Topology(default=LinkModel(latency=0.0001, jitter=0.00002))
    )
    return make_cluster(
        (1, 2, 3),
        topology=topo,
        seed=seed,
        config=FTMPConfig(heartbeat_interval=0.002, suspect_timeout=10.0,
                          flow_control_window=window, **cfg),
    )


def test_flow_control_off_by_default_inert():
    c = fc_cluster(window=0)
    for i in range(50):
        c.stacks[1].multicast(1, f"1:{i}".encode())
    g = c.stacks[1].group(1)
    assert g.flow.queue_depth == 0  # nothing ever queues
    assert g.flow.credits == 0  # gauge reads 0 when disabled
    c.run_for(1.0)
    snap = c.stacks[1].snapshot()
    assert snap["group.1.flow.sends_admitted"] == 0
    assert snap["group.1.flow.sends_queued"] == 0
    c.assert_agreement()
    c.stop()


def test_burst_beyond_window_queues_then_drains_in_order():
    c = fc_cluster(window=8)
    g = c.stacks[1].group(1)
    for i in range(100):
        c.stacks[1].multicast(1, f"1:{i}".encode())
    # only the window's worth went out; the rest are backpressured
    assert g.flow.inflight == 8
    assert g.flow.queue_depth == 92
    assert g.flow.blocked
    c.run_for(2.0)
    # stability advances released everything, in submission order
    assert g.flow.queue_depth == 0
    expected = [f"1:{i}".encode() for i in range(100)]
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == expected
    snap = c.stacks[1].snapshot()
    assert snap["group.1.flow.sends_queued"] == 92
    assert snap["group.1.flow.sends_released"] == 92
    assert snap["group.1.flow.sends_admitted"] == 100
    assert snap["group.1.flow.credit_stalls"] >= 1
    assert snap["group.1.flow.max_queue_depth"] == 92
    c.assert_agreement()
    c.stop()


def test_inflight_tracks_stability_not_wire():
    c = fc_cluster(window=8)
    g = c.stacks[1].group(1)
    c.stacks[1].multicast(1, b"one")
    assert g.flow.inflight == 1
    assert g.flow.credits == 7
    c.run_for(0.5)  # acked by everyone -> stable -> credit recycled
    assert g.flow.inflight == 0
    assert g.flow.credits == 8
    c.stop()


def test_flow_control_survives_loss():
    c = fc_cluster(window=8, loss=0.15, seed=11)
    for i in range(60):
        c.net.scheduler.at(0.0004 * i, c.stacks[1].multicast, 1,
                           f"1:{i}".encode())
    c.run_for(3.0)
    expected = [f"1:{i}".encode() for i in range(60)]
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == expected
    assert c.stacks[1].group(1).flow.queue_depth == 0
    c.assert_agreement()
    c.stop()


def test_multiple_flow_controlled_senders():
    c = fc_cluster(window=4)
    for i in range(40):
        for s in (1, 2, 3):
            c.net.scheduler.at(0.0002 * i, c.stacks[s].multicast, 1,
                               f"{s}:{i}".encode())
    c.run_for(2.0)
    c.assert_agreement()
    for pid in (1, 2, 3):
        payloads = c.listeners[pid].payloads(1)
        for s in (1, 2, 3):
            own = [p for p in payloads if p.startswith(f"{s}:".encode())]
            assert own == [f"{s}:{i}".encode() for i in range(40)]
    c.stop()


def test_a_stability_advance_releases_queued_sends_on_the_next_turn():
    c = fc_cluster(window=1)
    c.run_for(0.05)
    g = c.stacks[1].group(1)
    for i in range(3):
        c.stacks[1].multicast(1, f"1:{i}".encode())
    g.flow.on_stability(g.clock.time)
    assert (g.flow.inflight, g.flow.queue_depth) == (0, 2)  # credit back only
    c.net.run_for(0.0)
    assert (g.flow.inflight, g.flow.queue_depth) == (1, 1)
    # a group stopped before the release fires sends nothing more
    g.flow.on_stability(g.clock.time)
    c.stacks[1].remove_group(1)
    c.net.run_for(0.0)
    assert g.flow.queue_depth == 1
    c.stop()


def test_released_sends_carry_the_ack_of_the_datagram_that_freed_them():
    # A stability advance is read off a datagram's header before that
    # datagram's messages are delivered.  Under saturation the datagram
    # that frees credits usually lets its receiver deliver more too: a
    # send released at once would carry the acknowledgement from before
    # those deliveries, and its peers' credits would wait for the next.
    # A window of 40 keeps the senders credit-blocked at 10,500 msg/s
    # each (141 blocked releases; with 48, delta-coded BATCH records
    # leave 11); released at once, 117 of them carry a stale ack.
    pids = (1, 2, 3, 4, 5)
    topo = Topology(default=LinkModel(latency=0.0001, jitter=0.00002),
                    egress_bandwidth=1_000_000, packet_overhead=66)
    c = make_cluster(pids, topology=topo, seed=1, config=FTMPConfig(
        heartbeat_interval=0.002, suspect_timeout=10.0, batch_window=0.001,
        flow_control_window=40))
    c.run_for(0.05)
    releases = []
    drain = FlowController.drain

    def watched(flow):
        if flow.blocked:
            romp = flow._g.romp
            release = [romp.ack_timestamp, None]
            releases.append(release)
            # the member's acknowledgement once this instant is processed
            flow._g.schedule(0.0, lambda: release.__setitem__(1, romp.ack_timestamp))
        drain(flow)

    with mock.patch.object(FlowController, "drain", watched):
        for p in pids:
            rng = random.Random(1009 + p)
            t, i = 0.0, 0
            while (t := t + rng.expovariate(10_500.0)) < 0.1:
                c.net.scheduler.schedule(t, c.stacks[p].multicast, 1, b"%d:%d" % (p, i))
                i += 1
        c.run_for(0.6)
    c.assert_agreement()
    c.stop()
    assert len(releases) > 20
    assert [r for r in releases if r[1] != r[0]] == []


def test_control_traffic_not_subject_to_credits():
    # A membership change must go through while the sender is fully
    # backpressured: credits gate only application Regulars.
    c = fc_cluster(window=2)
    g1 = c.stacks[1].group(1)
    for i in range(30):
        c.stacks[1].multicast(1, f"1:{i}".encode())
    assert g1.flow.blocked
    c.stacks[4] = type(c.stacks[1])(c.net.endpoint(4), c.stacks[1].config)
    c.stacks[4].join_as_new_member(1, 5001)
    c.stacks[1].add_processor(1, 4)  # control send despite zero credits
    c.run_for(2.0)
    assert 4 in g1.membership
    for pid in (1, 2, 3, 4):
        assert 4 in c.stacks[pid].group(1).membership
    c.stop()


# ----------------------------------------------------------------------
# the heartbeat-liveness regression (satellite fix)
# ----------------------------------------------------------------------
def test_heartbeats_not_suppressed_while_credit_blocked():
    # Regression: a heartbeat suppression under batching once keyed only
    # on a non-empty batch window.  A sender blocked on credits with a
    # pending window then went silent — but its heartbeats are exactly
    # what advances the peers' stability view and refills its credits.
    c = fc_cluster(window=2, batch_window=0.004)
    g = c.stacks[1].group(1)
    for i in range(50):
        c.stacks[1].multicast(1, f"1:{i}".encode())
    assert g.flow.blocked
    hb_before = g.stats.heartbeats_sent
    c.run_for(2.0)
    # everything drained (liveness held: stability kept advancing)...
    assert g.flow.queue_depth == 0
    expected = [f"1:{i}".encode() for i in range(50)]
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == expected
    # ...and nobody suspected the backpressured sender
    for pid in (1, 2, 3):
        assert not c.stacks[pid].group(1).fault_detector.suspected
    assert g.stats.heartbeats_sent > hb_before
    c.stop()


def test_heartbeat_tick_fires_despite_pending_window_when_blocked():
    # SendPath._tick reads neither the batch window nor the flow
    # controller: a due Heartbeat goes out while sends are held and the
    # window holds a Regular, and the window is flushed ahead of it.
    c = fc_cluster(window=2, batch_window=0.050)
    g = c.stacks[1].group(1)
    wire = []
    transmit = g.send_path._transmit
    g.send_path._transmit = lambda address, raw: (wire.append(raw[7]),
                                                  transmit(address, raw))
    c.stacks[1].multicast(1, b"a")  # alone: the first send after a lull
    c.stacks[1].multicast(1, b"b")  # the burst engages the window
    c.stacks[1].multicast(1, b"c")  # both credits spent: held
    assert g.flow.blocked and g.send_path.pending_batch == 1
    hb_before = g.stats.heartbeats_sent
    g.send_path._last_send_time = -1.0  # look idle to the heartbeat check
    g.send_path._tick()
    assert g.stats.heartbeats_sent == hb_before + 1
    assert g.send_path.pending_batch == 0
    assert g.batch_stats.flushes_on_order == 1
    assert wire == [MessageType.REGULAR, MessageType.REGULAR, MessageType.HEARTBEAT]
    c.stop()


def test_stability_advance_does_not_breach_quiescence_barrier():
    # The other direction of the barrier/credits composition: a stability
    # advance while a §7 Connect barrier is pending (heartbeats keep
    # flowing exactly so a blocked sender's credits refill) must NOT
    # release credit-queued Regulars past the barrier — and the queue
    # must drain once the barrier clears, even without a further
    # stability advance.
    c = fc_cluster(window=2)
    c.run_for(0.1)  # let clocks advance so the barrier can clear later
    g = c.stacks[1].group(1)
    for i in range(10):
        c.stacks[1].multicast(1, f"1:{i}".encode())
    assert g.flow.inflight == 2 and g.flow.queue_depth == 8
    g.romp.set_send_barrier(g.clock.time + 5000)
    sent_before = g.stats.regulars_sent
    c.run_for(0.2)  # stability covers the 2 in-flight; barrier still up
    assert not g.romp.can_send_ordered()
    assert g.flow.inflight == 0  # credits recycled by stability...
    assert g.flow.queue_depth == 8  # ...but the queue held at the barrier
    assert g.stats.regulars_sent == sent_before
    c.run_for(10.0)  # heartbeats clear the barrier; everything drains
    assert g.romp.can_send_ordered()
    assert g.flow.queue_depth == 0
    expected = [f"1:{i}".encode() for i in range(10)]
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == expected
    c.assert_agreement()
    c.stop()


def test_quiescence_barrier_and_credits_compose():
    # Sends held at the §7 quiescence barrier stay in the one hold queue
    # when it clears and leave as credits allow: a window's worth at a
    # time, in order, each counted once.
    c = fc_cluster(window=4)
    c.run_for(0.1)  # let clocks advance so a low barrier can clear
    g = c.stacks[1].group(1)
    barrier = g.clock.time + 2  # just ahead: heartbeats clear it soon
    g.romp.set_send_barrier(barrier)
    for i in range(12):
        c.stacks[1].multicast(1, f"1:{i}".encode())
    assert g.stats.ordered_sends_deferred == 12
    assert g.flow.inflight == 0  # nothing reached the wire
    note_sent = FlowController.note_sent
    inflight = []

    def watched(flow, timestamp):
        note_sent(flow, timestamp)
        inflight.append(flow.inflight)

    with mock.patch.object(FlowController, "note_sent", watched):
        c.run_for(2.0)
    assert len(inflight) == 12 and max(inflight) <= 4
    snap = c.stacks[1].snapshot()
    assert snap["group.1.send.ordered_sends_deferred"] == 12
    assert snap["group.1.flow.sends_queued"] == 0
    assert snap["group.1.flow.sends_released"] == 12
    assert snap["group.1.flow.sends_admitted"] == 12
    expected = [f"1:{i}".encode() for i in range(12)]
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == expected
    c.stop()


@pytest.mark.parametrize("window", [0, 4])
def test_a_send_made_during_the_release_queues_behind_the_held_sends(window):
    # The LLFT leader delivers its own send on the spot.  When the
    # barrier clears, the release of A runs the listener, which sends D:
    # D was accepted after B and C, so it must not overtake them.
    c = fc_cluster(window=window, ordering="leader", llft_leader_pid=1)
    c.run_for(0.1)  # let clocks advance so a low barrier can clear
    g = c.stacks[1].group(1)
    listener = c.listeners[1]
    record = listener.on_deliver

    def on_deliver(delivery):
        record(delivery)
        if delivery.source == 1 and delivery.payload == b"A":
            c.stacks[1].multicast(1, b"D")

    listener.on_deliver = on_deliver
    g.romp.set_send_barrier(g.clock.time + 2)
    assert [c.stacks[1].multicast(1, p) for p in (b"A", b"B", b"C")] == [False] * 3
    c.run_for(2.0)
    for pid in (1, 2, 3):
        own = [d.payload for d in c.listeners[pid].deliveries if d.source == 1]
        assert own == [b"A", b"B", b"C", b"D"]
    snap = c.stacks[1].snapshot()
    # every hold, at the barrier or behind it, released exactly once
    assert snap["group.1.flow.sends_released"] == 4 == (
        snap["group.1.flow.sends_queued"] + snap["group.1.send.ordered_sends_deferred"])
    c.assert_agreement()
    c.stop()


# ----------------------------------------------------------------------
# synchronous backpressure surface: admission signal + queue cap
# ----------------------------------------------------------------------
def test_multicast_returns_admission():
    c = fc_cluster(window=1)
    assert c.stacks[1].multicast(1, b"a") is True  # consumed the credit
    assert c.stacks[1].multicast(1, b"b") is False  # queued: backpressure
    c.run_for(1.0)
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == [b"a", b"b"]
    c.stop()


def test_flow_queue_limit_rejects_with_explicit_error():
    c = fc_cluster(window=2, flow_queue_limit=5)
    g = c.stacks[1].group(1)
    admitted = [c.stacks[1].multicast(1, f"1:{i}".encode()) for i in range(7)]
    assert admitted == [True] * 2 + [False] * 5
    with pytest.raises(FlowControlSaturated):
        c.stacks[1].multicast(1, b"overflow")
    assert g.flow.queue_depth == 5  # the rejected send was not queued
    assert g.flow.stats.sends_rejected == 1
    c.run_for(2.0)
    # accepted sends all drain and deliver; the rejected one never does
    expected = [f"1:{i}".encode() for i in range(7)]
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == expected
    c.assert_agreement()
    c.stop()


@pytest.mark.parametrize("window", [2, 0])
def test_flow_queue_limit_counts_barrier_deferrals(window):
    # The cap bounds everything held at the sender, including sends
    # deferred by a §7 quiescence barrier, with or without a credit
    # window — otherwise the barrier would be the unbounded loophole.
    c = fc_cluster(window=window, flow_queue_limit=3)
    c.run_for(0.05)
    g = c.stacks[1].group(1)
    g.romp.set_send_barrier(g.clock.time + 100000)
    for i in range(3):
        assert c.stacks[1].multicast(1, f"1:{i}".encode()) is False
    with pytest.raises(FlowControlSaturated):
        c.stacks[1].multicast(1, b"overflow")
    assert g.flow.stats.sends_rejected == 1
    c.stop()


def test_flow_queue_unbounded_by_default():
    c = fc_cluster(window=1)
    for i in range(500):
        c.stacks[1].multicast(1, f"1:{i}".encode())  # never raises
    assert c.stacks[1].group(1).flow.queue_depth == 499
    c.stop()
