"""Batched / piggybacked send path (FTMPConfig.batch_window) and the
unified stats registry.

Batching is a transport-level extension: small Regulars bound for the
same group address coalesce into one Batch datagram for up to
``batch_window`` seconds.  The protocol layers are batch-oblivious — the
receive path unpacks before RMP — so ordering, reliability and agreement
must be unaffected, only the datagram count changes.
"""

from repro.analysis.harness import make_cluster
from repro.core import FTMPConfig
from repro.simnet import LinkModel, Topology, lan


def loaded_cluster(batch_window: float, seed: int = 3, loss: float = 0.0,
                   n_msgs: int = 100, senders=(1,)):
    topo = (
        lan(loss=loss)
        if loss
        else Topology(default=LinkModel(latency=0.0001, jitter=0.00002))
    )
    c = make_cluster(
        (1, 2, 3),
        topology=topo,
        seed=seed,
        config=FTMPConfig(heartbeat_interval=0.002, suspect_timeout=10.0,
                          batch_window=batch_window),
    )
    # 10,000 msg/s per sender: about ten sends per 1 ms window, enough
    # to engage the adaptive window (test_adaptive_batching.py)
    for i in range(n_msgs):
        for s in senders:
            c.net.scheduler.at(0.0001 * i, c.stacks[s].multicast, 1,
                               f"{s}:{i}".encode())
    c.run_for(1.0)
    return c


def test_batching_off_by_default_no_batch_traffic():
    c = loaded_cluster(batch_window=0.0)
    for pid in (1, 2, 3):
        snap = c.stacks[pid].snapshot()
        assert snap["group.1.batch.batches_sent"] == 0
        assert snap["group.1.batch.batches_received"] == 0
        assert snap["group.1.batch.flushes_on_order"] == 0
    c.assert_agreement()
    c.stop()


def test_batching_preserves_delivery_and_agreement():
    c = loaded_cluster(batch_window=0.001)
    expected = [f"1:{i}".encode() for i in range(100)]
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == expected
    c.assert_agreement()
    snap = c.stacks[1].snapshot()
    assert snap["group.1.batch.batches_sent"] > 0
    assert snap["group.1.batch.messages_batched"] > snap["group.1.batch.batches_sent"]
    c.stop()


def test_batching_reduces_datagrams_at_equal_load():
    off = loaded_cluster(batch_window=0.0)
    on = loaded_cluster(batch_window=0.001)
    eff_off = off.batch_efficiency()
    eff_on = on.batch_efficiency()
    # same delivered work...
    assert eff_on["ordered_deliveries"] == eff_off["ordered_deliveries"]
    # ...with measurably fewer datagrams per delivered message
    assert eff_on["datagrams_per_delivery"] < eff_off["datagrams_per_delivery"]
    off.stop()
    on.stop()


def test_batching_survives_loss():
    c = loaded_cluster(batch_window=0.001, loss=0.15, seed=11, n_msgs=40)
    expected = [f"1:{i}".encode() for i in range(40)]
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == expected
    c.assert_agreement()
    c.stop()


def test_multiple_senders_batch_independently():
    c = loaded_cluster(batch_window=0.001, senders=(1, 2, 3), n_msgs=50)
    c.assert_agreement()
    for pid in (1, 2, 3):
        payloads = c.listeners[pid].payloads(1)
        for s in (1, 2, 3):
            own = [p for p in payloads if p.startswith(f"{s}:".encode())]
            assert own == [f"{s}:{i}".encode() for i in range(50)]
    c.stop()


def test_control_messages_flush_pending_window_first():
    # An AddProcessor (non-batchable) while Regulars sit in the window
    # must drain the window first, or receivers would see the sender's
    # reliable stream out of order on the wire.
    c = make_cluster((1, 2, 3), seed=5,
                     config=FTMPConfig(heartbeat_interval=0.002,
                                       suspect_timeout=10.0,
                                       batch_window=0.005))
    g1 = c.stacks[1].group(1)
    # a burst: its first send goes alone, the next one engages the window
    c.stacks[1].multicast(1, b"alone")
    c.stacks[1].multicast(1, b"queued-behind-window")
    assert g1.send_path.pending_batch == 1
    c.stacks[4] = type(c.stacks[1])(c.net.endpoint(4), c.stacks[1].config)
    c.stacks[4].join_as_new_member(1, 5001)
    c.stacks[1].add_processor(1, 4)  # reliable control message
    assert g1.send_path.pending_batch == 0  # window drained first
    assert g1.batch_stats.flushes_on_order >= 1
    c.run_for(1.0)
    assert b"queued-behind-window" in c.listeners[2].payloads(1)
    assert 4 in g1.membership
    c.stop()


def test_window_flushes_on_size_threshold():
    c = make_cluster((1, 2), seed=2,
                     config=FTMPConfig(suspect_timeout=10.0, batch_window=10.0,
                                       batch_max_bytes=400))
    g1 = c.stacks[1].group(1)
    # window time is huge; only the byte cap can flush
    for _ in range(20):
        c.stacks[1].multicast(1, b"x" * 80)
    assert g1.batch_stats.flushes_on_size > 0
    c.run_for(0.5)
    c.stop()


def test_snapshot_exposes_layer_counters():
    c = loaded_cluster(batch_window=0.0)
    snap = c.stacks[1].snapshot()
    for key in (
        "stack.datagrams_sent",
        "stack.datagrams_received",
        "group.1.send.regulars_sent",
        "group.1.rmp.delivered",
        "group.1.romp.ordered_deliveries",
        "group.1.pgmp.views_installed",
        "group.1.fault_detector.suspicions_raised",
        "group.1.gauges.queue_depth",
        "connections.duplicates_suppressed",
    ):
        assert key in snap, key
    assert snap["group.1.send.regulars_sent"] == 100
    # snapshot agrees with the legacy per-object counters
    assert snap["stack.datagrams_sent"] == c.stacks[1].stats.datagrams_sent
    assert snap["group.1.rmp.delivered"] == c.stacks[1].group(1).rmp.stats.delivered
    c.stop()


def test_group_counters_unregistered_on_group_stop():
    c = loaded_cluster(batch_window=0.0)
    reg = c.stacks[1].registry
    assert any(n.startswith("group.1.") for n in reg.names())
    c.stacks[1].remove_group(1)
    assert not any(n.startswith("group.1.") for n in reg.names())
    assert "stack" in reg.names()  # stack-level counters survive
    c.stop()


def test_aggregate_snapshot_sums_across_members():
    c = loaded_cluster(batch_window=0.0)
    agg = c.aggregate_snapshot()
    assert agg["stack.datagrams_sent"] == sum(
        st.stats.datagrams_sent for st in c.stacks.values()
    )
    assert agg["group.1.romp.ordered_deliveries"] == 300  # 100 msgs x 3 members
    c.stop()
