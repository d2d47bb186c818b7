"""E2 — §6 claim: synchronized clocks beat Lamport clocks over a WAN.

("particularly over wide-area networks")

Two sites joined by a WAN link; a busy sender at site A.  With Lamport
clocks the quiet remote site's timestamps lag (they advance on receipt,
one WAN hop late), so ordering waits ~a WAN round trip; synchronized
clocks keep remote heartbeats current, cutting it to ~one hop.  On a LAN
the difference should be negligible — that's the paper's "particularly
over wide-area networks" qualifier, asserted both ways.
"""

from repro.analysis import Table, TimedWorkload, make_cluster, summarize
from repro.core import ClockMode, FTMPConfig
from repro.simnet import lan, two_site_wan

from _report import emit

WAN_MS = (10, 20, 40, 80)


def run_point(mode: str, topology, seed=11):
    cfg = FTMPConfig(heartbeat_interval=0.005, clock_mode=mode,
                     suspect_timeout=5.0)
    cluster = make_cluster((1, 2, 3, 4), topology=topology, config=cfg, seed=seed)
    w = TimedWorkload(cluster)
    for i in range(200):
        w.send_at(0.1 + 0.001 * i, sender=1)
    cluster.run_for(1.2)
    return summarize(w.latencies(receivers=(2,))).mean


def test_e2_clock_modes():
    results = {"lan": {}}
    for mode in (ClockMode.LAMPORT, ClockMode.SYNCHRONIZED):
        results["lan"][mode] = run_point(mode, lan())
    for ms in WAN_MS:
        topo = two_site_wan((1, 2), (3, 4), wan_latency=ms / 1e3)
        results[ms] = {
            mode: run_point(mode, topo)
            for mode in (ClockMode.LAMPORT, ClockMode.SYNCHRONIZED)
        }

    table = Table(
        ["topology", "lamport mean (ms)", "synchronized mean (ms)",
         "saving (ms)"],
        title="E2 — ordering latency at a same-site receiver, by clock mode",
    )
    for key in ["lan"] + list(WAN_MS):
        lam = results[key][ClockMode.LAMPORT] * 1e3
        syn = results[key][ClockMode.SYNCHRONIZED] * 1e3
        label = "LAN" if key == "lan" else f"WAN {key} ms"
        table.add_row(label, lam, syn, lam - syn)
    emit("E2_clock_modes", table.render())

    # shape: no meaningful difference on the LAN...
    lan_gap = abs(results["lan"][ClockMode.LAMPORT]
                  - results["lan"][ClockMode.SYNCHRONIZED])
    assert lan_gap < 0.002
    # ...but a saving that grows with WAN delay (≈ one one-way hop)
    prev_saving = 0.0
    for ms in WAN_MS:
        saving = (results[ms][ClockMode.LAMPORT]
                  - results[ms][ClockMode.SYNCHRONIZED])
        assert saving > 0.4 * ms / 1e3, f"WAN {ms} ms: saving {saving}"
        assert saving >= prev_saving * 0.8  # monotone-ish growth
        prev_saving = saving
