"""LLFT leader-follower fast path (PR 7 tentpole).

The leader's reliable FIFO stream is the total order: the leader
delivers its own sends at send time and announces everyone else's via
OrderInfo Regulars; followers replay the stream one hop behind.  These
tests pin the codec, the mode wiring (knob off = legacy), the ordering
semantics under the full oracle battery, leader-crash takeover, and the
congestion-gated announcement coalescing.
"""

from repro.analysis.harness import TimedWorkload, make_cluster
from repro.core import ORDER_INFO_CID, FTMPConfig
from repro.core.llft import decode_order_info, encode_order_info
from repro.core.romp import ROMP
from repro.replication.oracles import run_history_oracles


def _llft_cfg(leader: int = 0, **overrides) -> FTMPConfig:
    base = dict(heartbeat_interval=0.010, suspect_timeout=0.150,
                batch_window=0.001)
    base.update(overrides)
    return FTMPConfig(**base, ordering="leader", llft_leader_pid=leader)


# -- OrderInfo codec ---------------------------------------------------

def test_order_info_codec_roundtrip():
    entries = [(2, 1, 1002), (5, 7, 1005), (3, 2, 1010)]
    assert decode_order_info(encode_order_info(entries)) == entries


def test_order_info_codec_empty():
    assert decode_order_info(encode_order_info([])) == []


def test_order_info_cid_is_reserved_sentinel():
    # the sentinel must never collide with a real connection id
    assert all(part == 0xFFFFFFFF for part in (
        ORDER_INFO_CID.client_domain, ORDER_INFO_CID.client_group,
        ORDER_INFO_CID.server_domain, ORDER_INFO_CID.server_group,
    ))


# -- mode wiring -------------------------------------------------------

def test_knob_off_is_legacy():
    cluster = make_cluster((1, 2, 3))
    try:
        for pid in (1, 2, 3):
            assert type(cluster.stacks[pid].group(1).romp) is ROMP
            assert cluster.stacks[pid].group(1).romp.leader() is None
        cluster.multicast(1, 1, b"legacy")
        cluster.run_for(0.3)
        cluster.assert_agreement()
        # no llft stats subtree is registered in legacy mode
        assert not any(".llft." in k for k in cluster.snapshot(1))
    finally:
        cluster.stop()


def test_leader_ordering_elects_deterministic_leader():
    cluster = make_cluster((4, 2, 7), config=_llft_cfg())
    try:
        for pid in (4, 2, 7):
            # llft_leader_pid=0 -> smallest member leads, everywhere
            assert cluster.stacks[pid].group(1).romp.leader() == 2
        assert any(".llft." in k for k in cluster.snapshot(2))
    finally:
        cluster.stop()


def test_llft_pinned_leader_preferred_while_member():
    cluster = make_cluster((1, 2, 3), config=_llft_cfg(leader=3))
    try:
        for pid in (1, 2, 3):
            assert cluster.stacks[pid].group(1).romp.leader() == 3
    finally:
        cluster.stop()


# -- ordering semantics ------------------------------------------------

def test_llft_multi_sender_agreement_and_oracles():
    pids = (1, 2, 3)
    cluster = make_cluster(pids, config=_llft_cfg(), seed=11)
    try:
        wl = TimedWorkload(cluster)
        wl.uniform(pids, start=0.02, stop=0.50, interval=0.010)
        cluster.run_for(1.2)
        cluster.assert_agreement()
        # every send reached every member
        assert wl.delivered_fraction(pids) == 1.0
        violations = run_history_oracles(cluster.listeners, cluster.group,
                                         final_members=pids)
        assert violations == []

        snap = cluster.aggregate_snapshot()
        # the leader fast-pathed its own sends and announced the others'
        assert snap["group.1.llft.fast_path_deliveries"] > 0
        assert snap["group.1.llft.announced"] > 0
        # followers adopted the leader's announced order
        assert snap["group.1.llft.adopted_deliveries"] > 0
    finally:
        cluster.stop()


def test_llft_leader_delivers_own_send_before_any_follower():
    cluster = make_cluster((1, 2, 3), config=_llft_cfg(), seed=5)
    try:
        wl = TimedWorkload(cluster)
        wl.send_at(0.05, sender=1)  # pid 1 is the leader
        cluster.run_for(0.5)
        lat = {pid: wl.latencies((pid,)) for pid in (1, 2, 3)}
        assert all(len(v) == 1 for v in lat.values())
        # fast path: the leader's own delivery beats both followers'
        assert lat[1][0] < lat[2][0]
        assert lat[1][0] < lat[3][0]
    finally:
        cluster.stop()


# -- leader failure ----------------------------------------------------

def test_leader_crash_failover_preserves_agreement():
    pids = (1, 2, 3, 4, 5)
    cluster = make_cluster(pids, config=_llft_cfg(leader=2), seed=7)
    try:
        wl = TimedWorkload(cluster)
        survivors = (1, 3, 4, 5)
        # everyone (including the doomed leader) sends before the crash;
        # survivors keep sending across and after the takeover
        wl.uniform(pids, start=0.02, stop=0.28, interval=0.010)
        wl.uniform(survivors, start=0.32, stop=0.70, interval=0.010)
        cluster.net.scheduler.at(0.30, cluster.net.crash, 2)
        cluster.run_for(2.0)

        # survivors converged on the successor leader (smallest survivor)
        for pid in survivors:
            assert cluster.stacks[pid].group(1).romp.leader() == 1
        history = {p: cluster.listeners[p] for p in survivors}
        orders = [lst.delivery_order(1) for lst in history.values()]
        assert all(o == orders[0] for o in orders[1:])
        assert run_history_oracles(history, cluster.group,
                                   final_members=survivors) == []
        # post-crash traffic flowed under the new leader
        post = [rec for rec in wl.sends if rec.sent_at > 0.32]
        assert post
        delivered = cluster.listeners[3].payloads(1)
        assert all(rec.payload in delivered for rec in post)
    finally:
        cluster.stop()


# -- congestion-gated announcements ------------------------------------

def test_congestion_coalesces_orderinfo_announcements():
    # a tiny credit window keeps the *sending* leader congested through
    # the burst (OrderInfos themselves are credit-exempt control traffic,
    # so congestion only arises from the leader's own Regulars): parked
    # arrivals must flush as few coalesced OrderInfo datagrams, not one
    # per announced message
    cfg = _llft_cfg(flow_control_window=2, flow_queue_limit=512)
    cluster = make_cluster((1, 2, 3), config=cfg, seed=3)
    try:
        wl = TimedWorkload(cluster)
        # the leader bursts past its window in one instant and stays
        # blocked until stability recycles credits...
        for i in range(10):
            wl.send_at(0.050 + i * 1e-6, 1)
        # ...while follower traffic lands inside that blocked interval
        for i in range(12):
            wl.send_at(0.0505 + i * 1e-6, 2)
            wl.send_at(0.0506 + i * 1e-6, 3)
        cluster.run_for(1.5)
        cluster.assert_agreement()
        snap = cluster.aggregate_snapshot()
        announced = snap["group.1.llft.announced"]
        datagrams = snap["group.1.llft.orderinfos_sent"]
        assert announced > 0
        assert datagrams < announced  # coalescing actually happened
        assert run_history_oracles(cluster.listeners, cluster.group,
                                   final_members=(1, 2, 3)) == []
    finally:
        cluster.stop()
