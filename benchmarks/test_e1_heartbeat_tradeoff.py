"""E1 — §5 claim: the heartbeat interval trades latency against traffic.

"A shorter heartbeat interval results in lower message latency but
higher network traffic."

Workload: one sparse sender in a 5-processor group (ordering latency is
dominated by waiting for covering heartbeats from the quiet members).
Sweep the interval; the reproduced figure is latency and packets/s per
interval, and the asserted *shape* is: latency increases with the
interval while traffic decreases.  A quiet member heartbeats one
interval after its last send (§5), and :data:`LATE_COVER_DELAY` of one
after a Regular it has not stamped past arrived, so no message waits
longer than that plus two hops with jitter for the covering heartbeats.
"""

from repro.analysis import Table, TimedWorkload, make_cluster, summarize
from repro.core import FTMPConfig
from repro.core.datapath import LATE_COVER_DELAY

from _report import emit

INTERVALS_MS = (1, 2, 5, 10, 20, 50)


def run_point(hb_s: float):
    cfg = FTMPConfig(heartbeat_interval=hb_s,
                     suspect_timeout=max(10 * hb_s, 0.2))
    cluster = make_cluster((1, 2, 3, 4, 5), config=cfg, seed=1)
    w = TimedWorkload(cluster)
    for i in range(20):
        w.send_at(0.1 + 0.05 * i, sender=1)
    duration = 1.4
    cluster.run_for(duration)
    lat = summarize(w.latencies(receivers=(2, 3, 4, 5)))
    pps = cluster.net.trace.sends / duration
    return lat, pps


def test_e1_heartbeat_tradeoff():
    results = {ms: run_point(ms / 1e3) for ms in INTERVALS_MS}

    table = Table(
        ["heartbeat interval (ms)", "mean latency (ms)", "p99 latency (ms)",
         "packets/s"],
        title="E1 — heartbeat interval: ordering latency vs network traffic",
    )
    for ms in INTERVALS_MS:
        lat, pps = results[ms]
        table.add_row(ms, lat.mean * 1e3, lat.p99 * 1e3, round(pps))
    emit("E1_heartbeat_tradeoff", table.render())

    means = [results[ms][0].mean for ms in INTERVALS_MS]
    packets = [results[ms][1] for ms in INTERVALS_MS]
    # shape: latency bounded by the late cover and clearly larger at the
    # largest interval than the smallest
    assert means[-1] > means[0]
    assert means[-1] > 5 * means[1]
    for ms, (lat, _pps) in results.items():
        assert lat.mean <= ms / 1e3 + 0.002
        assert lat.p99 <= LATE_COVER_DELAY * ms / 1e3 + 0.0003
    # shape: traffic strictly decreases as the interval grows
    assert all(a > b for a, b in zip(packets, packets[1:]))
    # endpoints differ by roughly the interval ratio (50x) — allow slack
    assert packets[0] > 10 * packets[-1]
