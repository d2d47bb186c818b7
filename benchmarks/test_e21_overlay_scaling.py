"""E21 (extension) — overlay dissemination scaling past 10² members.

Flat dissemination in the no-IP-multicast regime (``unicast_fanout``)
serializes every Regular once *per remote receiver* through the sender's
bandwidth-limited egress, so a source's goodput collapses as O(1/n) and
the §6 stability exchange needs O(n) heartbeat streams crossing every
member.  The overlay (``dissemination="tree"``) routes Regulars over a
deterministic k-ary tree — every node, root included, pays at most
``overlay_fanout`` egress copies per message — and folds ack timestamps
into per-edge AckSummaries, so stability converges in O(depth) hops.

Measured per group size, same topology for both modes (1 MB/s egress,
66-byte framing overhead, unicast fan-out):

* **goodput** — messages/s (simulated time) from one source's burst
  being fully delivered at every member;
* **root egress datagrams per delivery** — wire copies charged to the
  source during the burst over total deliveries made of it;
* **stability latency** — last send → the source observing the §6
  stability frontier cover it (what gates buffer GC / flow credits).

The flat legs stop at 100 members: beyond that one burst costs minutes
of simulated serialization and measures nothing new — the O(n) collapse
is already unambiguous at 100 (the skip is logged in the artifact).
"""

from repro.analysis import Table, make_cluster
from repro.core import FTMPConfig
from repro.simnet import Topology

from _report import emit, emit_json

FLAT_SIZES = (50, 100)
OVERLAY_SIZES = (50, 100, 250, 500)
FLAT_SKIPPED = (250, 500)

MESSAGES = 50          #: burst size sent by the root/source
PAYLOAD = b"E" * 120
BANDWIDTH = 1_000_000.0  #: bytes/s per-sender egress
OVERHEAD = 66            #: Ethernet/IP/UDP framing per datagram
FANOUT = 4


def _config(n: int, overlay: bool) -> FTMPConfig:
    # the summary cadence scales with group size: depth grows with
    # log_k(n), and at n=500 a 5 ms exchange along every tree edge would
    # rival the measured traffic for the capped egress
    interval = 0.010 if n <= 100 else 0.025 if n <= 250 else 0.040
    return FTMPConfig(
        heartbeat_interval=0.050,
        # liveness is not under test: generous timeout so queueing delay
        # behind the burst can never convict anyone
        suspect_timeout=1.0,
        dissemination="tree" if overlay else "flat",
        overlay_fanout=FANOUT,
        overlay_summary_interval=interval,
    )


def run_leg(n: int, overlay: bool):
    pids = tuple(range(1, n + 1))
    topo = Topology(egress_bandwidth=BANDWIDTH, packet_overhead=OVERHEAD,
                    unicast_fanout=True)
    c = make_cluster(pids, topology=topo, config=_config(n, overlay),
                     seed=n + (1000 if overlay else 0))
    c.run_for(0.3)  # settle timers / warm the tree
    root = 1
    base_copies = c.net.wire_copies.get(root, 0)
    t0 = c.net.scheduler.now
    for _ in range(MESSAGES):
        c.stacks[root].multicast(1, PAYLOAD)

    def delivered() -> bool:
        return all(
            sum(1 for d in c.listeners[p].deliveries if d.payload == PAYLOAD)
            >= MESSAGES
            for p in pids
        )

    t_done = None
    for _ in range(1200):  # up to 60 simulated seconds
        c.run_for(0.05)
        if delivered():
            t_done = c.net.scheduler.now
            break
    assert t_done is not None, f"burst never fully delivered (n={n})"
    root_copies = c.net.wire_copies.get(root, 0) - base_copies

    # stability: run until the source's §6 frontier covers its own burst
    g = c.stacks[root].group(1)
    ts_last = max(d.timestamp for d in c.listeners[root].deliveries
                  if d.payload == PAYLOAD)
    t_stable = None
    for _ in range(1200):
        if g.romp.stability_timestamp() >= ts_last:
            t_stable = c.net.scheduler.now
            break
        c.run_for(0.05)
    assert t_stable is not None, f"burst never became stable (n={n})"

    result = {
        "goodput_msg_s": MESSAGES / (t_done - t0),
        "root_datagrams_per_delivery": root_copies / (MESSAGES * n),
        "stability_latency_s": t_stable - t0,
    }
    c.stop()
    return result


def test_e21_overlay_scaling():
    flat = {n: run_leg(n, overlay=False) for n in FLAT_SIZES}
    over = {n: run_leg(n, overlay=True) for n in OVERLAY_SIZES}

    table = Table(
        ["n", "mode", "goodput (msg/s)", "root dgrams/delivery",
         "stability latency (ms)"],
        title="E21 — overlay vs flat dissemination at scale "
              "(unicast fan-out, 1 MB/s egress)",
    )
    for n in OVERLAY_SIZES:
        if n in flat:
            r = flat[n]
            table.add_row(n, "flat", round(r["goodput_msg_s"], 1),
                          round(r["root_datagrams_per_delivery"], 4),
                          round(r["stability_latency_s"] * 1e3, 1))
        else:
            table.add_row(n, "flat", "(skipped)", "-", "-")
        r = over[n]
        table.add_row(n, "overlay", round(r["goodput_msg_s"], 1),
                      round(r["root_datagrams_per_delivery"], 4),
                      round(r["stability_latency_s"] * 1e3, 1))
    emit("E21_overlay_scaling", table.render())
    emit_json("e21_overlay_scaling", {
        "flat_skipped_sizes": list(FLAT_SKIPPED),
        "series": [
            {
                "mode": f"{mode}@{n}",
                "group_size": n,
                "goodput_msg_s": round(r["goodput_msg_s"], 2),
                "root_datagrams_per_delivery":
                    round(r["root_datagrams_per_delivery"], 4),
                "stability_latency_ms":
                    round(r["stability_latency_s"] * 1e3, 2),
            }
            for mode, series in (("flat", flat), ("overlay", over))
            for n, r in sorted(series.items())
        ],
    })

    # the overlay must beat flat by 3x+ goodput at 100 members
    assert (over[100]["goodput_msg_s"]
            >= 3 * flat[100]["goodput_msg_s"])
    # the root's egress cost per delivery collapses from ~(n-1)/n to
    # ~fanout/n: allow 2x fanout/(n-1) headroom for summary traffic
    assert (over[100]["root_datagrams_per_delivery"]
            <= flat[100]["root_datagrams_per_delivery"]
            * 2 * FANOUT / (100 - 1))
    # stability latency grows sub-linearly 50 -> 500 (O(depth), not O(n))
    assert (over[500]["stability_latency_s"]
            < over[50]["stability_latency_s"] * (500 / 50))
