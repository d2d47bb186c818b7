"""ROMP behaviour: total order, causal order, acks, buffer management."""

from repro.core import ClockMode, FTMPConfig
from repro.simnet import lan, two_site_wan

from repro.analysis.harness import make_cluster


def test_total_order_identical_across_members():
    c = make_cluster((1, 2, 3, 4, 5), seed=8)
    for i in range(20):
        for pid in (1, 2, 3, 4, 5):
            c.net.scheduler.at(0.0009 * i + 0.00005 * pid,
                               c.stacks[pid].multicast, 1, f"{pid}:{i}".encode())
    c.run_for(2.0)
    orders = c.orders(1)
    reference = orders[1]
    assert len(reference) == 100
    for pid in (2, 3, 4, 5):
        assert orders[pid] == reference


def test_total_order_identical_under_loss_and_jitter():
    c = make_cluster((1, 2, 3), topology=lan(loss=0.15), seed=13,
                     config=FTMPConfig(suspect_timeout=10.0))
    for i in range(30):
        for pid in (1, 2, 3):
            c.net.scheduler.at(0.0011 * i, c.stacks[pid].multicast, 1, f"{pid}:{i}".encode())
    c.run_for(4.0)
    orders = c.orders(1)
    assert len(orders[1]) == 90
    assert orders[1] == orders[2] == orders[3]


def test_delivery_respects_timestamp_then_source_rule():
    c = make_cluster((1, 2, 3), seed=1)
    # all three send "simultaneously": identical Lamport ts, tie by pid
    for pid in (1, 2, 3):
        c.stacks[pid].multicast(1, str(pid).encode())
    c.run_for(0.5)
    order = c.orders(1)[1]
    keys = order
    assert keys == sorted(keys)  # (timestamp, source) ascending


def test_causal_order_request_before_reply():
    c = make_cluster((1, 2, 3), seed=2)
    # node 1 sends a request; node 2 replies only after delivering it.
    replied = []

    orig = c.listeners[2].on_deliver

    def reply_on_delivery(d):
        orig(d)
        if d.payload == b"request" and not replied:
            replied.append(True)
            c.stacks[2].multicast(1, b"reply")

    c.listeners[2].on_deliver = reply_on_delivery
    c.stacks[1].multicast(1, b"request")
    c.run_for(0.5)
    for pid in (1, 2, 3):
        payloads = c.listeners[pid].payloads(1)
        assert payloads.index(b"request") < payloads.index(b"reply")


def test_quiet_processor_does_not_stall_ordering():
    # nodes 2,3 never send application messages; heartbeats must keep the
    # order advancing (§5: liveness via Heartbeat messages).
    c = make_cluster((1, 2, 3), seed=3)
    c.stacks[1].multicast(1, b"solo")
    c.run_for(0.5)
    assert c.listeners[3].payloads(1) == [b"solo"]


def test_latency_bounded_by_heartbeat_interval():
    cfg = FTMPConfig(heartbeat_interval=0.010)
    c = make_cluster((1, 2, 3), config=cfg, seed=4)
    c.run_for(0.1)  # let heartbeats settle
    t0 = c.net.scheduler.now
    c.stacks[1].multicast(1, b"x")
    c.run_for(0.2)
    d = [d for d in c.listeners[2].deliveries if d.payload == b"x"][0]
    latency = d.delivered_at - t0
    assert latency <= 2 * cfg.heartbeat_interval + 0.005


def test_ack_timestamps_advance_and_buffers_drain():
    c = make_cluster((1, 2, 3), seed=5)
    for i in range(20):
        c.net.scheduler.at(0.001 * i, c.stacks[1].multicast, 1, b"payload")
    c.run_for(1.0)
    for pid in (1, 2, 3):
        g = c.stacks[pid].group(1)
        assert g.romp.ack_timestamp > 0
        assert g.romp.stability_timestamp() > 0
        assert len(g.buffer) == 0  # everything stable and reclaimed
        assert g.buffer.total_reclaimed > 0


def test_buffer_gc_disabled_retains_everything():
    cfg = FTMPConfig(buffer_gc_enabled=False)
    c = make_cluster((1, 2, 3), config=cfg, seed=5)
    for i in range(20):
        c.net.scheduler.at(0.001 * i, c.stacks[1].multicast, 1, b"payload")
    c.run_for(1.0)
    g = c.stacks[2].group(1)
    assert len(g.buffer) >= 20
    assert g.buffer.total_reclaimed == 0


def test_synchronized_clocks_also_totally_order():
    cfg = FTMPConfig(clock_mode=ClockMode.SYNCHRONIZED)
    c = make_cluster((1, 2, 3), config=cfg, seed=6)
    for i in range(15):
        for pid in (1, 2, 3):
            c.net.scheduler.at(0.001 * i, c.stacks[pid].multicast, 1, f"{pid}:{i}".encode())
    c.run_for(2.0)
    orders = c.orders(1)
    assert len(orders[1]) == 45
    assert orders[1] == orders[2] == orders[3]


def test_synchronized_clocks_cut_wan_ordering_latency():
    # E2's mechanism at unit scale.  A busy sender's Lamport clock runs
    # ahead of the quiet remote site's (which catches up only on receipt,
    # one WAN hop later), so ordering a local message waits a WAN round
    # trip for the remote site's covering heartbeat.  Synchronized clocks
    # keep remote heartbeat timestamps current, cutting that to one hop.
    results = {}
    for mode in (ClockMode.LAMPORT, ClockMode.SYNCHRONIZED):
        cfg = FTMPConfig(heartbeat_interval=0.005, clock_mode=mode,
                         suspect_timeout=5.0)
        topo = two_site_wan((1, 2), (3, 4), wan_latency=0.040)
        c = make_cluster((1, 2, 3, 4), topology=topo, config=cfg, seed=7)
        # busy sender at site A inflates its logical clock
        sent_at = {}
        for i in range(200):
            t = 0.1 + 0.001 * i
            payload = f"s{i}".encode()
            sent_at[payload] = t
            c.net.scheduler.at(t, c.stacks[1].multicast, 1, payload)
        c.run_for(1.0)
        lat = [
            d.delivered_at - sent_at[d.payload]
            for d in c.listeners[2].deliveries
            if d.payload in sent_at
        ]
        assert len(lat) == 200
        results[mode] = sum(lat) / len(lat)
    # synchronized clocks should save roughly one WAN one-way delay
    assert results[ClockMode.SYNCHRONIZED] < results[ClockMode.LAMPORT] - 0.010


def test_deliveries_report_metadata():
    c = make_cluster((1, 2), seed=1)
    c.stacks[1].multicast(1, b"meta")
    c.run_for(0.5)
    d = c.listeners[2].deliveries[0]
    assert d.group == 1
    assert d.source == 1
    assert d.sequence_number == 1
    assert d.timestamp >= 1
    assert d.payload == b"meta"
