"""Overlay dissemination + aggregated stability (PR 8 tentpole).

Regulars route over a deterministic k-ary tree derived from the sorted
membership; per-edge AckSummaries aggregate the §6 ack exchange so the
stability frontier converges in O(depth) messages.  These tests pin the
tree math, the mode wiring (knob off = legacy), the end-to-end ordering
semantics, the aggregation-scope gating of the stability floor, and the
entry merge law the cross-node aggregation relies on.
"""

import pytest

from repro.analysis import make_cluster
from repro.core import FTMPConfig
from repro.core.dissemination import Dissemination
from repro.core.overlay import (
    OVERLAY_UNICAST_BASE,
    OverlayDissemination,
    tree_links,
    unicast_address,
)


def _overlay_cfg(**overrides) -> FTMPConfig:
    base = dict(heartbeat_interval=0.010, suspect_timeout=0.150,
                dissemination="tree", overlay_fanout=2,
                overlay_summary_interval=0.010)
    base.update(overrides)
    return FTMPConfig(**base)


# -- tree math ---------------------------------------------------------

def test_tree_links_k2_shape():
    members = (1, 2, 3, 4, 5, 6, 7)
    # sorted index i: parent (i-1)//2, children 2i+1, 2i+2
    assert tree_links(members, 2, 1) == (
        None, (2, 3), {2: 2, 3: 3, 4: 2, 5: 2, 6: 3, 7: 3})
    parent, children, toward = tree_links(members, 2, 2)
    assert parent == 1
    assert children == (4, 5)
    assert toward == {1: 1, 3: 1, 4: 4, 5: 5, 6: 1, 7: 1}
    # leaves route everything through the parent
    parent, children, toward = tree_links(members, 2, 7)
    assert (parent, children) == (3, ())
    assert set(toward.values()) == {3}


def test_tree_links_parent_child_consistency():
    members = tuple(range(1, 14))
    for k in (1, 2, 3, 4):
        for pid in members:
            _, children, _ = tree_links(members, k, pid)
            for c in children:
                parent_of_c, _, _ = tree_links(members, k, c)
                assert parent_of_c == pid
        # exactly n-1 edges: every non-root has one parent
        roots = [p for p in members
                 if tree_links(members, k, p)[0] is None]
        assert roots == [members[0]]


def test_tree_links_degenerate():
    assert tree_links((), 2, 1) == (None, (), {})
    assert tree_links((1,), 2, 1) == (None, (), {})
    assert tree_links((1, 2), 2, 9) == (None, (), {})  # not a member


def test_unicast_address_is_collision_free():
    seen = set()
    for group_addr in (5001, 5002):
        for pid in range(1, 600):
            a = unicast_address(group_addr, pid)
            assert a >= OVERLAY_UNICAST_BASE
            seen.add(a)
    assert len(seen) == 2 * 599


# -- mode wiring -------------------------------------------------------

def test_llft_and_overlay_are_mutually_exclusive():
    with pytest.raises(ValueError):
        FTMPConfig(ordering="leader", dissemination="tree")


def test_knob_off_is_legacy():
    cluster = make_cluster((1, 2, 3))
    try:
        for pid in (1, 2, 3):
            assert type(cluster.stacks[pid].group(1).dissemination) is Dissemination
        cluster.multicast(1, 1, b"legacy")
        cluster.run_for(0.3)
        cluster.assert_agreement()
        # no overlay stats subtree is registered in legacy mode
        assert not any(".overlay." in k for k in cluster.snapshot(1))
    finally:
        cluster.stop()


# -- end-to-end ordering over the tree ---------------------------------

def test_overlay_total_order_and_stability():
    pids = (1, 2, 3, 4, 5, 6, 7)
    cluster = make_cluster(pids, config=_overlay_cfg(), seed=42)
    try:
        cluster.run_for(0.1)
        for i in range(10):
            for pid in (1, 4, 7):  # root, interior, leaf senders
                cluster.multicast(pid, 1, b"m%d-%d" % (pid, i))
        cluster.run_for(0.6)
        cluster.assert_agreement()
        for pid in pids:
            g = cluster.stacks[pid].group(1)
            assert isinstance(g.dissemination, OverlayDissemination)
            assert len(cluster.listeners[pid].deliveries) == 30
        # the tree actually carried the load: the root unicast k copies
        # per send and interior members relayed
        root = cluster.stacks[1].group(1).dissemination
        assert root.stats.regulars_tree_routed > 0
        interior = cluster.stacks[2].group(1).dissemination
        assert interior.stats.relayed_copies > 0
        # aggregated stability advanced past zero on every member
        for pid in pids:
            assert cluster.stacks[pid].group(1).romp.stability_timestamp() > 0
    finally:
        cluster.stop()


# -- aggregation-scope gating ------------------------------------------

def test_stability_floor_zero_until_scope_complete():
    pids = (1, 2, 3, 4, 5)
    cluster = make_cluster(pids, config=_overlay_cfg(), seed=7)
    try:
        # before any summary exchange no neighbour has reported: the
        # floor must refuse to guess and the legacy minimum rules
        for pid in pids:
            overlay = cluster.stacks[pid].group(1).dissemination
            assert overlay.stability_floor() == 0
        cluster.multicast(1, 1, b"payload")
        cluster.run_for(0.5)
        # after a few summary rounds every edge has reported and the
        # aggregated floor covers the delivered message
        for pid in pids:
            g = cluster.stacks[pid].group(1)
            ts = g.dissemination.stability_floor()
            assert ts > 0
            assert ts <= g.romp.ack_timestamp
    finally:
        cluster.stop()


def test_stability_floor_is_monotone_within_view():
    cluster = make_cluster((1, 2, 3), config=_overlay_cfg(), seed=3)
    try:
        seen = []
        for _ in range(20):
            cluster.multicast(1, 1, b"x")
            cluster.run_for(0.05)
            seen.append(cluster.stacks[1].group(1).dissemination
                        .stability_floor())
        assert seen == sorted(seen)
        assert seen[-1] > 0
    finally:
        cluster.stop()


# -- entry merge law ---------------------------------------------------

def test_progress_entries_merge_max_max():
    """Cross-node aggregation takes max(seq), max(ts) per source: both
    halves of an entry are global facts about the source's stream, so
    the pointwise maximum is still a valid claim."""
    from repro.core import FTMPHeader, MessageType
    from repro.core.messages import AckSummaryMessage

    cluster = make_cluster((1, 2, 3, 4, 5), config=_overlay_cfg(), seed=11)
    try:
        cluster.run_for(0.05)
        overlay = cluster.stacks[1].group(1).dissemination

        def summary(src, entries):
            h = FTMPHeader(MessageType.ACK_SUMMARY, source=src, group=1,
                           sequence_number=0, timestamp=0, ack_timestamp=0)
            return AckSummaryMessage(h, AckSummaryMessage.KIND_UP,
                                     cover_ts=0, ack_ts=0,
                                     entries=tuple(entries))

        # one neighbour claims (seq 10, ts 1000), the other (seq 8,
        # ts 2000): the merged vector dominates both claims pointwise
        overlay.on_summary(summary(2, [(5, 10, 1000)]))
        assert overlay._best[5] == (10, 1000)
        overlay.on_summary(summary(3, [(5, 8, 2000)]))
        assert overlay._best[5] == (10, 2000)
        # a stale entry dominated on both axes never regresses the merge
        overlay.on_summary(summary(2, [(5, 4, 500)]))
        assert overlay._best[5] == (10, 2000)
        # entries for non-members are ignored, not merged
        overlay.on_summary(summary(2, [(99, 50, 5000)]))
        assert 99 not in overlay._best
    finally:
        cluster.stop()
