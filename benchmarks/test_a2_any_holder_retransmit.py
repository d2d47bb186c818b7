"""A2 — ablation: "any processor ... may retransmit" (§5).

With a degraded source→receiver link, recovery from the source alone is
slow (most of its retransmissions are lost on the same bad link); letting
any holder answer routes the repair around the damage.  The ablation
turns off non-source retransmission and measures recovery latency.
"""

from repro.analysis import Table, make_cluster, summarize
from repro.core import FTMPConfig
from repro.simnet import LinkModel, lan

from _report import emit


def run_point(any_holder: bool, seed: int = 3):
    topo = lan()
    # source 1 -> receiver 3 badly degraded; 1->2 and 2->3 are clean
    topo.set_link(1, 3, LinkModel(latency=0.0001, jitter=0, loss=0.9),
                  symmetric=False)
    cfg = FTMPConfig(suspect_timeout=30.0, retransmit_any_holder=any_holder)
    c = make_cluster((1, 2, 3), topology=topo, config=cfg, seed=seed)
    sent_at = {}
    for i in range(20):
        payload = f"m{i}".encode()

        def fire(payload=payload):
            sent_at[payload] = c.net.scheduler.now
            c.stacks[1].multicast(1, payload)

        c.net.scheduler.at(0.002 * i, fire)
    c.run_for(20.0)
    deliveries = {
        d.payload: d.delivered_at for d in c.listeners[3].deliveries
    }
    complete = len(deliveries) == 20
    lats = [deliveries[p] - t for p, t in sent_at.items() if p in deliveries]
    helper_retrans = c.stacks[2].group(1).rmp.stats.retransmissions_sent
    return complete, summarize(lats), helper_retrans


def test_a2_any_holder_retransmit():
    with_any, source_only = run_point(True), run_point(False)

    table = Table(
        ["retransmission policy", "complete", "mean recovery latency (ms)",
         "p99 (ms)", "helper retransmissions"],
        title="A2 — any-holder retransmission vs source-only "
              "(source→receiver link at 90% loss)",
    )
    for name, (complete, lat, helper) in (
        ("any holder (paper)", with_any),
        ("source only", source_only),
    ):
        table.add_row(name, complete, lat.mean * 1e3, lat.p99 * 1e3, helper)
    emit("A2_any_holder_retransmit", table.render())

    assert with_any[0], "any-holder run must recover everything"
    assert with_any[2] > 0  # the helper actually carried repairs
    # the paper's design recovers markedly faster through the clean path
    if source_only[0]:
        assert with_any[1].mean < source_only[1].mean
    # and its tail latency is far better
    if source_only[0]:
        assert with_any[1].p99 < source_only[1].p99
