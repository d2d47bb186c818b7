"""E3 — §5: NACK-based reliable delivery under packet loss.

Sweep the uniform loss rate; FTMP must deliver 100% of application
messages at every member (reliability), with retransmission traffic and
delivery latency growing with the loss rate (the recovery cost curve).
"""

from repro.analysis import Table, TimedWorkload, make_cluster, summarize
from repro.core import FTMPConfig
from repro.simnet import lossy_lan

from _report import emit

LOSS_RATES = (0.0, 0.02, 0.05, 0.10, 0.20)
LENIENT = FTMPConfig(suspect_timeout=30.0)


def run_point(loss: float):
    cluster = make_cluster((1, 2, 3), topology=lossy_lan(loss),
                           config=LENIENT, seed=13)
    w = TimedWorkload(cluster)
    for i in range(60):
        for s in (1, 2, 3):
            w.send_at(0.002 * i + 0.0001 * s, sender=s)
    cluster.run_for(6.0)
    delivered = w.delivered_fraction(receivers=(1, 2, 3))
    lat = summarize(w.latencies(receivers=(1, 2, 3)))
    nacks = sum(cluster.stacks[p].group(1).rmp.stats.nacks_sent for p in (1, 2, 3))
    retrans = sum(
        cluster.stacks[p].group(1).rmp.stats.retransmissions_sent for p in (1, 2, 3)
    )
    cluster.assert_agreement()
    return delivered, lat, nacks, retrans


def test_e3_loss_recovery():
    results = {loss: run_point(loss) for loss in LOSS_RATES}

    table = Table(
        ["loss rate", "delivered", "mean latency (ms)", "p99 latency (ms)",
         "NACKs", "retransmissions"],
        title="E3 — reliable delivery under loss (3 processors, 180 msgs)",
    )
    for loss in LOSS_RATES:
        delivered, lat, nacks, retrans = results[loss]
        table.add_row(f"{loss:.0%}", f"{delivered:.0%}", lat.mean * 1e3,
                      lat.p99 * 1e3, nacks, retrans)
    emit("E3_loss_recovery", table.render())

    # reliability: every message delivered everywhere, at every loss rate
    for loss in LOSS_RATES:
        assert results[loss][0] == 1.0, f"lost messages at loss={loss}"
    # recovery cost: no recovery traffic without loss; it grows with loss
    assert results[0.0][3] == 0
    assert results[0.20][3] > results[0.02][3] > 0
    # latency: tail latency grows with loss (retransmission round trips)
    assert results[0.20][1].p99 > results[0.0][1].p99
