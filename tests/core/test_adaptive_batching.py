"""The adaptive batching window (FTMPConfig.batch_window).

An EWMA of the gap between eligible sends estimates how many messages
the next window would coalesce.  Below ``BATCH_MIN_FILL`` the send
bypasses the window (low-load latency returns to unbatched); above it
the window coalesces up to ``batch_window`` / ``batch_max_bytes``.
Every window adapts: the fixed one is retired, and asking for it
(``batch_adaptive=False``) is refused.
"""

from unittest import mock

import pytest

from repro.analysis.harness import make_cluster
from repro.core import FTMPConfig, FTMPStack, MessageType
from repro.simnet import LinkModel, Topology


def adaptive_cluster(gap: float, n_msgs: int, seed: int = 3, window: float = 0.001):
    c = make_cluster(
        (1, 2, 3),
        topology=Topology(default=LinkModel(latency=0.0001, jitter=0.00002)),
        seed=seed,
        config=FTMPConfig(heartbeat_interval=0.002, suspect_timeout=10.0,
                          batch_window=window),
    )
    for i in range(n_msgs):
        c.net.scheduler.at(gap * i, c.stacks[1].multicast, 1,
                           f"1:{i}".encode())
    c.run_for(gap * n_msgs + 1.0)
    return c


def test_low_rate_bypasses_window():
    # 100 msg/s against a 1 ms window: a window would coalesce exactly one
    # message, so every send should go straight to the wire
    c = adaptive_cluster(gap=0.010, n_msgs=50)
    snap = c.stacks[1].snapshot()
    assert snap["group.1.batch.adaptive_bypasses"] == 50
    assert snap["group.1.batch.batches_sent"] == 0
    c.assert_agreement()
    c.stop()


def test_high_rate_engages_coalescing():
    # 10k msg/s: ~10 messages per window — the window must engage after a
    # short EWMA ramp and carry the overwhelming majority of the traffic
    c = adaptive_cluster(gap=0.0001, n_msgs=400)
    snap = c.stacks[1].snapshot()
    assert snap["group.1.batch.batches_sent"] > 10
    assert snap["group.1.batch.messages_batched"] > 350
    assert snap["group.1.batch.adaptive_bypasses"] < 50  # ramp only
    c.assert_agreement()
    c.stop()


def test_adaptive_off_means_fixed_window():
    # the fixed window is retired: the field accepts only True, until
    # the last caller that names it stops
    with pytest.raises(ValueError, match="fixed batch window, which is retired"):
        FTMPConfig(batch_window=0.001, batch_adaptive=False)
    assert FTMPConfig(batch_window=0.001).batch_adaptive is True


def test_adaptive_low_rate_latency_near_unbatched():
    from repro.analysis.harness import TimedWorkload

    def mean_low_rate_latency(window: float) -> float:
        c = make_cluster(
            (1, 2, 3),
            topology=Topology(default=LinkModel(latency=0.0001,
                                                jitter=0.00002)),
            seed=3,
            # tight heartbeats so the ordering gate's wait (~one heartbeat
            # interval) does not mask the batch window's latency tax
            config=FTMPConfig(heartbeat_interval=0.0003, suspect_timeout=10.0,
                              batch_window=window),
        )
        w = TimedWorkload(c)
        w.uniform(senders=(1,), start=0.05, stop=0.55, interval=0.010)
        c.run_for(1.0)
        lat = w.latencies((2, 3))
        c.stop()
        return sum(lat) / len(lat)

    # at 100 msg/s a 1 ms window would hold one message: every send
    # bypasses it, and the latency is the unbatched stack's
    lat_unbatched = mean_low_rate_latency(0.0)
    lat_adapt = mean_low_rate_latency(0.001)
    assert lat_adapt == pytest.approx(lat_unbatched, abs=1e-6), (lat_unbatched, lat_adapt)


def test_rate_transition_quiet_burst_quiet():
    c = make_cluster(
        (1, 2, 3),
        topology=Topology(default=LinkModel(latency=0.0001, jitter=0.00002)),
        seed=3,
        config=FTMPConfig(heartbeat_interval=0.002, suspect_timeout=10.0,
                          batch_window=0.001),
    )
    n = 0
    # quiet phase: 20 sends at 100/s
    for i in range(20):
        c.net.scheduler.at(0.010 * i, c.stacks[1].multicast, 1,
                           f"1:{n + i}".encode())
    n += 20
    # burst phase: 300 sends at 10k/s
    for i in range(300):
        c.net.scheduler.at(0.5 + 0.0001 * i, c.stacks[1].multicast, 1,
                           f"1:{n + i}".encode())
    n += 300
    # quiet again: the idle hard-reset must restore bypassing at once
    for i in range(20):
        c.net.scheduler.at(1.0 + 0.010 * i, c.stacks[1].multicast, 1,
                           f"1:{n + i}".encode())
    n += 20
    c.run_for(2.0)
    snap = c.stacks[1].snapshot()
    # the two quiet phases bypass (40 sends) plus a short burst ramp
    assert snap["group.1.batch.adaptive_bypasses"] >= 40
    assert snap["group.1.batch.adaptive_bypasses"] <= 70
    # the burst still coalesced heavily
    assert snap["group.1.batch.messages_batched"] > 250
    expected = [f"1:{i}".encode() for i in range(n)]
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == expected
    c.assert_agreement()
    c.stop()


def test_a_burst_after_a_lull_sends_only_its_first_message_alone():
    # After a lull the gap estimate restarts at the engage threshold:
    # the burst's first send bypasses the window and the next one, 50 us
    # later, engages it.  A restart at four windows took ~10 EWMA steps
    # to come down, and the first ~10 sends of every burst went alone.
    wire = []
    transmit = FTMPStack.transmit

    def tap(self, address, raw):
        if self.pid == 1:
            wire.append((self.endpoint.now, raw[7]))
        transmit(self, address, raw)

    with mock.patch.object(FTMPStack, "transmit", tap):
        c = make_cluster(
            (1, 2, 3),
            topology=Topology(default=LinkModel(latency=0.0001, jitter=0.00002)),
            seed=3,
            config=FTMPConfig(heartbeat_interval=0.002, suspect_timeout=10.0,
                              batch_window=0.001),
        )
        for i in range(5):  # quiet sends, then a lull of 0.26 s
            c.net.scheduler.at(0.2 + 0.01 * i, c.stacks[1].multicast, 1, b"q%d" % i)
        for i in range(60):
            c.net.scheduler.at(0.5 + 0.00005 * i, c.stacks[1].multicast, 1, b"b%d" % i)
        c.run_for(1.0)
    burst = [t for t, mtype in wire if 0.5 <= t < 0.51]
    alone = [t for t, mtype in wire if 0.5 <= t < 0.51 and mtype == MessageType.REGULAR]
    assert alone == [0.5]
    assert len(burst) - len(alone) >= 60 // 8  # the rest in BATCH datagrams and heartbeats
    assert c.stacks[1].snapshot()["group.1.batch.messages_batched"] == 59
    c.assert_agreement()
    c.stop()


def test_bypass_never_reorders_past_pending_window():
    # A send while the window is non-empty must never bypass it — that
    # would put the sender's reliable stream out of order on the wire.
    c = make_cluster(
        (1, 2),
        seed=2,
        config=FTMPConfig(heartbeat_interval=0.002, suspect_timeout=10.0,
                          batch_window=0.050),
    )
    g = c.stacks[1].group(1)
    # prime the EWMA into "bypass" territory with slow sends
    for i in range(5):
        c.net.scheduler.at(0.3 * i, c.stacks[1].multicast, 1, b"slow%d" % i)
    c.run_for(1.6)
    # two back-to-back sends: the first may bypass, but once something
    # sits in the window the second must join it, not jump the queue
    c.stacks[1].multicast(1, b"first")
    if g.send_path.pending_batch == 0:
        # first bypassed (EWMA still slow); force one into the window by
        # sending again within the same instant until one is pending
        c.stacks[1].multicast(1, b"second")
    pending_before = g.send_path.pending_batch
    c.stacks[1].multicast(1, b"third")
    assert g.send_path.pending_batch >= pending_before  # joined, no bypass
    c.run_for(1.0)
    payloads = c.listeners[2].payloads(1)
    mine = [p for p in payloads if not p.startswith(b"slow")]
    assert mine == [b"first", b"second", b"third"][:len(mine)]
    c.assert_agreement()
    c.stop()
