"""A3 (extension) — agreed vs safe delivery.

Totem's famous distinction, realized on FTMP's ack machinery: *agreed*
delivery hands a message up as soon as its position in the total order is
decided; *safe* delivery additionally waits until the ack timestamps show
every member holds the message, so no survivor can ever have delivered
something a crashed member's application never saw.

Cost: one extra ack round trip, dominated by the slowest member and the
heartbeat interval.  This experiment measures that premium on a LAN and
with one slow member, and verifies the safety semantics under a crash.
"""

from repro.analysis import Table, TimedWorkload, make_cluster, summarize
from repro.core import FTMPConfig
from repro.simnet import LinkModel, lan

from _report import emit


def run_latency(mode: str, slow_member: bool):
    topo = lan()
    if slow_member:
        slow = LinkModel(latency=0.010, jitter=0.001, loss=0)
        topo.set_link(1, 4, slow)
        topo.set_link(2, 4, slow)
        topo.set_link(3, 4, slow)
    cfg = FTMPConfig(delivery_mode=mode, heartbeat_interval=0.002,
                     suspect_timeout=5.0)
    c = make_cluster((1, 2, 3, 4), topology=topo, config=cfg, seed=4)
    w = TimedWorkload(c)
    for i in range(60):
        w.send_at(0.1 + 0.005 * i, sender=1)
    c.run_for(1.2)
    return summarize(w.latencies(receivers=(2, 3)))


def run_crash_semantics(mode: str):
    cfg = FTMPConfig(delivery_mode=mode, suspect_timeout=0.060)
    c = make_cluster((1, 2, 3), config=cfg, seed=5)
    c.run_for(0.05)
    c.net.crash(3)
    c.run_for(0.005)
    c.stacks[1].multicast(1, b"during-fault")
    c.run_for(2.0)
    delivered = (b"during-fault" in c.listeners[1].payloads(1)
                 and b"during-fault" in c.listeners[2].payloads(1))
    agree = c.orders(1)[1] == c.orders(1)[2]
    return delivered and agree


def test_a3_agreed_vs_safe():
    results = {}
    for mode in ("agreed", "safe"):
        results[(mode, "lan")] = run_latency(mode, slow_member=False)
        results[(mode, "slow member")] = run_latency(mode, slow_member=True)
        results[(mode, "crash ok")] = run_crash_semantics(mode)

    table = Table(
        ["delivery", "topology", "mean latency (ms)", "p99 (ms)"],
        title="A3 — agreed vs safe delivery (4 processors, one sender)",
    )
    for mode in ("agreed", "safe"):
        for topo in ("lan", "slow member"):
            lat = results[(mode, topo)]
            table.add_row(mode, topo, lat.mean * 1e3, lat.p99 * 1e3)
    emit("A3_agreed_vs_safe", table.render())

    # the safety premium exists on a LAN and grows with a slow member
    lan_premium = (results[("safe", "lan")].mean
                   - results[("agreed", "lan")].mean)
    slow_premium = (results[("safe", "slow member")].mean
                    - results[("agreed", "slow member")].mean)
    assert lan_premium > 0
    assert slow_premium > lan_premium
    # ~the slow member's ack propagation (one way + a heartbeat, partially
    # overlapped with the ordering wait agreed mode already pays)
    assert slow_premium > 0.002
    # both modes keep liveness and agreement across a crash
    assert results[("agreed", "crash ok")]
    assert results[("safe", "crash ok")]
