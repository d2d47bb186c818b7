"""E11 (extension) — the price of each ordering guarantee.

The paper's §8 walks the related-work ladder: unordered transports,
causal broadcast (Trans), totally ordered multicast (Total, Totem, FTMP).
This experiment quantifies the ladder on a workload where the guarantees
actually bind: node 1's requests reach observer node 3 over a *slow* link
while node 2's causally-dependent replies race ahead over fast links.

* unordered delivery hands the reply to the application immediately —
  fast, but it arrives *before its own cause* (the consistency violation
  replication cannot absorb);
* causal (Trans-style) delivery holds the reply until the request it
  depends on arrives — one slow-link delay;
* total order (FTMP) additionally waits for timestamp coverage from every
  member, which also serializes concurrent messages identically everywhere.

Expected shape: latency(unordered) < latency(causal) <= latency(total),
and only the unordered transport ever delivers effect-before-cause.
"""

from repro.analysis import Table, summarize
from repro.baselines import CausalProtocol, FTMPProtocol, PtpMeshProtocol
from repro.core import FTMPConfig
from repro.simnet import LinkModel, Network, lan

from _report import emit

LADDER = (
    ("none (ptp-mesh)", PtpMeshProtocol),
    ("causal (Trans-style)", CausalProtocol),
    ("total (FTMP)", FTMPProtocol),
)
N_ROUNDS = 25


def asymmetric_topology():
    topo = lan()
    # node 1's multicasts reach observer 3 slowly; everything else is fast
    topo.set_link(1, 3, LinkModel(latency=0.003, jitter=0.0005, loss=0),
                  symmetric=False)
    return topo


def run_point(cls):
    pids = (1, 2, 3)
    net = Network(asymmetric_topology(), seed=3)
    sent_at = {}
    reply_arrivals = {}
    inversions = 0
    seen_at_3 = []

    protos = {}

    def deliver_3(d):
        nonlocal inversions
        seen_at_3.append(d.payload)
        if d.payload.startswith(b"rep"):
            i = int(d.payload[3:])
            reply_arrivals.setdefault(i, net.scheduler.now)
            if f"req{i}".encode() not in seen_at_3:
                inversions += 1  # effect delivered before its cause

    def deliver_2(d):
        # node 2 replies causally to every request it delivers
        if d.payload.startswith(b"req"):
            i = int(d.payload[3:])
            reply = f"rep{i}".encode()
            sent_at[reply] = net.scheduler.now
            protos[2].multicast(reply)

    handlers = {1: lambda d: None, 2: deliver_2, 3: deliver_3}
    for p in pids:
        if cls is FTMPProtocol:
            protos[p] = cls(net.endpoint(p), 700, pids, handlers[p],
                            config=FTMPConfig(heartbeat_interval=0.002,
                                              suspect_timeout=10.0))
        else:
            protos[p] = cls(net.endpoint(p), 700, pids, handlers[p])

    for i in range(N_ROUNDS):
        net.scheduler.at(0.05 + 0.010 * i, protos[1].multicast,
                         f"req{i}".encode())
    net.run_for(3.0)

    lats = [reply_arrivals[i] - sent_at[f"rep{i}".encode()]
            for i in range(N_ROUNDS) if i in reply_arrivals]
    complete = len(lats) == N_ROUNDS
    for pr in protos.values():
        if hasattr(pr, "stack"):
            pr.stack.stop()
    return summarize(lats), complete, inversions


def test_e11_ordering_ladder():
    results = {name: run_point(cls) for name, cls in LADDER}

    table = Table(
        ["ordering guarantee", "reply latency mean (ms)", "p99 (ms)",
         "cause/effect inversions"],
        title="E11 — the ordering-guarantee ladder "
              "(causally dependent replies racing a slow request link)",
    )
    for name, _cls in LADDER:
        lat, complete, inversions = results[name]
        assert complete, f"{name} lost replies"
        table.add_row(name, lat.mean * 1e3, lat.p99 * 1e3, inversions)
    emit("E11_ordering_ladder", table.render())

    unordered = results["none (ptp-mesh)"][0].mean
    causal = results["causal (Trans-style)"][0].mean
    total = results["total (FTMP)"][0].mean
    # the ladder: each guarantee costs latency
    assert unordered < causal <= total * 1.05
    # only the unordered transport violates causality
    assert results["none (ptp-mesh)"][2] > 0
    assert results["causal (Trans-style)"][2] == 0
    assert results["total (FTMP)"][2] == 0
    # the causal cost here is about one slow-link delay (~3 ms)
    assert 0.002 < causal - unordered < 0.006
