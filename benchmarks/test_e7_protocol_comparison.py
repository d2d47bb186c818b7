"""E7 — §1/§8 positioning: FTMP vs sequencer vs token ring vs mesh.

FTMP's symmetric Lamport ordering against the related-work ordering
disciplines (fixed sequencer / rotating token), and the unordered
point-to-point mesh, across group sizes.

Expected shapes (classical results the paper's related work discusses):

* sequencer latency is ~flat in group size (1.5 multicast rounds) but all
  ordering work funnels through one node;
* token-ring sender latency grows with the ring size (half-rotation wait);
* FTMP latency is bounded by its heartbeat interval, independent of who
  else is sending — symmetric, no hotspot;
* the unordered mesh is the latency floor (no ordering wait at all).
"""

from repro.analysis import Table, summarize
from repro.baselines import (
    FTMPProtocol,
    PtpMeshProtocol,
    SequencerProtocol,
    TokenRingProtocol,
)
from repro.core import FTMPConfig
from repro.simnet import Network, lan

from _report import emit

GROUP_SIZES = (2, 4, 6, 8)
PROTOCOLS = (FTMPProtocol, SequencerProtocol, TokenRingProtocol, PtpMeshProtocol)


def make_protocol(cls, endpoint, addr, pids, deliver):
    if cls is FTMPProtocol:
        return cls(endpoint, addr, pids, deliver,
                   config=FTMPConfig(heartbeat_interval=0.002,
                                     suspect_timeout=10.0))
    return cls(endpoint, addr, pids, deliver)


def run_point(cls, n: int, msgs_per_sender: int = 15):
    pids = tuple(range(1, n + 1))
    net = Network(lan(), seed=7)
    sent_at = {}
    arrivals = {p: {} for p in pids}

    protos = {}
    for p in pids:
        def deliver(d, p=p):
            arrivals[p].setdefault(d.payload, net.scheduler.now)

        protos[p] = make_protocol(cls, net.endpoint(p), 700, pids, deliver)

    for i in range(msgs_per_sender):
        for s in pids:
            payload = f"{s}:{i}".encode()

            def fire(s=s, payload=payload):
                sent_at[payload] = net.scheduler.now
                protos[s].multicast(payload)

            net.scheduler.at(0.05 + 0.003 * i + 0.0001 * s, fire)
    net.run_for(3.0)

    lats = [
        arrivals[p][payload] - t0
        for p in pids
        for payload, t0 in sent_at.items()
        if payload in arrivals[p]
    ]
    complete = all(len(arrivals[p]) == len(sent_at) for p in pids)
    data_packets = sum(pr.messages_sent for pr in protos.values())
    control_packets = sum(pr.control_sent for pr in protos.values())
    for pr in protos.values():
        if hasattr(pr, "stack"):
            pr.stack.stop()
    return summarize(lats), complete, data_packets, control_packets


def test_e7_protocol_comparison():
    results = {
        (cls.name, n): run_point(cls, n)
        for cls in PROTOCOLS
        for n in GROUP_SIZES
    }

    table = Table(
        ["protocol", "group size", "mean latency (ms)", "p99 (ms)",
         "control msgs"],
        title="E7 — ordering protocols vs group size (uniform senders)",
    )
    for (name, n), (lat, complete, _d, ctrl) in results.items():
        table.add_row(name, n, lat.mean * 1e3, lat.p99 * 1e3, ctrl)
        assert complete, f"{name} at n={n} lost messages"
    emit("E7_protocol_comparison", table.render())

    for n in GROUP_SIZES:
        ftmp = results[("ftmp", n)][0].mean
        seq = results[("sequencer", n)][0].mean
        token = results[("token-ring", n)][0].mean
        mesh = results[("ptp-mesh", n)][0].mean
        # the unordered mesh is the latency floor
        assert mesh < ftmp and mesh < seq and mesh < token
        # FTMP's ordering wait is bounded by (twice) its heartbeat interval
        assert ftmp < 2 * 0.002 + 0.001
    # token-ring sender latency grows with the ring size (half-rotation
    # wait), the classical Totem profile
    token_series = [results[("token-ring", n)][0].mean for n in GROUP_SIZES]
    assert all(a < b for a, b in zip(token_series, token_series[1:]))
    assert token_series[-1] > 2 * token_series[0]
    # FTMP's latency saturates at its heartbeat bound instead of growing
    ftmp_series = [results[("ftmp", n)][0].mean for n in GROUP_SIZES]
    assert ftmp_series[-1] < 1.6 * ftmp_series[1]
    # the sequencer's latency stays roughly flat in group size
    seq_series = [results[("sequencer", n)][0].mean for n in GROUP_SIZES]
    assert max(seq_series) < 3 * min(seq_series)
    # control-traffic profile: the idle token keeps rotating (large control
    # cost), the sequencer pays one ORDER per message, FTMP piggybacks
    # ordering on timestamps (its "control" cost is heartbeats, not counted
    # per message)
    assert results[("token-ring", 8)][3] > 50 * results[("sequencer", 8)][3]
    assert results[("sequencer", 8)][3] == 8 * 15
