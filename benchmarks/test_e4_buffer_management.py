"""E4 — §6: ack-timestamp buffer management.

"The ROMP layer at a processor determines when the processor no longer
needs to retain a message in its buffer, because all of the processor
group members have received the message ... ROMP then recovers the buffer
space."

Ablation: the same workload with the ack-driven garbage collection on and
off.  With GC the retransmission buffer stays bounded (high-water mark a
small multiple of the in-flight window); without it, occupancy equals the
entire message history.  Also verifies safety: with a slow member, GC
must *not* reclaim messages the slow member may still NACK.
"""

from repro.analysis import Table, make_cluster
from repro.core import FTMPConfig
from repro.simnet import LinkModel, lan

from _report import emit

N_MESSAGES = 300


def run_point(gc_enabled: bool):
    cfg = FTMPConfig(buffer_gc_enabled=gc_enabled)
    cluster = make_cluster((1, 2, 3), config=cfg, seed=2)
    for i in range(N_MESSAGES):
        for s in (1, 2, 3):
            cluster.net.scheduler.at(0.001 * i, cluster.stacks[s].multicast, 1,
                                     b"p" * 64)
    cluster.run_for(1.5)
    g = cluster.stacks[1].group(1)
    return {
        "high_water_msgs": g.buffer.high_water_messages,
        "final_msgs": len(g.buffer),
        "high_water_bytes": g.buffer.high_water_bytes,
        "reclaimed": g.buffer.total_reclaimed,
    }


def run_slow_member_safety():
    # a member on a slow link lags behind: its unacked messages must be
    # retained so it can still recover them by NACK
    topo = lan()
    slow = LinkModel(latency=0.050, jitter=0.0, loss=0.3)
    topo.set_link(1, 3, slow)
    topo.set_link(2, 3, slow)
    cluster = make_cluster((1, 2, 3), topology=topo, seed=3,
                           config=FTMPConfig(suspect_timeout=30.0))
    for i in range(50):
        cluster.net.scheduler.at(0.001 * i, cluster.stacks[1].multicast, 1, b"x")
    cluster.run_for(10.0)
    # after full recovery everyone has everything and agrees
    counts = {p: len(cluster.listeners[p].payloads(1)) for p in (1, 2, 3)}
    cluster.assert_agreement()
    return counts


def test_e4_buffer_management():
    with_gc, without_gc = run_point(True), run_point(False)
    slow_counts = run_slow_member_safety()

    table = Table(
        ["ack-timestamp GC", "buffer high-water (msgs)", "final occupancy",
         "bytes high-water", "reclaimed"],
        title=f"E4 — retransmission buffer occupancy over {3 * N_MESSAGES} messages",
    )
    table.add_row("enabled", with_gc["high_water_msgs"], with_gc["final_msgs"],
                  with_gc["high_water_bytes"], with_gc["reclaimed"])
    table.add_row("disabled", without_gc["high_water_msgs"],
                  without_gc["final_msgs"], without_gc["high_water_bytes"],
                  without_gc["reclaimed"])
    emit("E4_buffer_management", table.render())

    # without GC the buffer retains the whole history
    assert without_gc["high_water_msgs"] == 3 * N_MESSAGES
    assert without_gc["reclaimed"] == 0
    # with GC occupancy is bounded well below the history and drains fully
    assert with_gc["high_water_msgs"] < (3 * N_MESSAGES) / 3
    assert with_gc["final_msgs"] == 0
    assert with_gc["reclaimed"] == 3 * N_MESSAGES
    # safety under a slow member: GC never prevented full recovery
    assert slow_counts == {1: 50, 2: 50, 3: 50}
