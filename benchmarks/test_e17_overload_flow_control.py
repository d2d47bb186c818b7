"""E17 (extension) — overload behaviour with stability-driven flow control.

E12 finds the batched datapath's knee (5 senders, 64 B messages, 1 MB/s
egress each) at :data:`BATCHED_KNEE_RATE` per sender: past it goodput
pins while delivery latency grows without bound, because every message
admitted beyond the egress bandwidth just waits in the NIC queue.

This experiment offers 1.5×, 2× and 3× the knee's load and measures the
closed-loop datapath against the same adaptive 1 ms batch window
without credits:

* ``flow_control_window`` bounds each sender's in-flight (sent but not
  yet stable) Regulars; offered load beyond it queues at the *sender*
  (visible backpressure) instead of inside the network, so the delivery
  latency of everything actually admitted stays bounded;
* the batch window, adaptive in both arms, is bypassed when the recent
  send rate would not fill it, so low-load latency is the unbatched one;
* the NACK dedupe window (``nack_dedupe_window``) drops a repeated
  request for a message answered moments ago (inert here — zero loss —
  but enabled to show it costs nothing on the happy path).

Two latency views are reported: *service* latency (admission to the wire
path → ordered delivery at the observer — the protocol's own latency) and
*end-to-end* latency (application submit → delivery, which under
sustained overload necessarily grows with the backpressure queue; that
queue is the feature, not a defect: the application can see it and shed
load, where the E12 baseline silently floods the network).
"""

from repro.analysis import Table, summarize
from repro.baselines import FTMPProtocol
from repro.core import FTMPConfig
from repro.simnet import LinkModel, Network, Topology

from _report import emit, emit_json
from test_e12_throughput_saturation import BATCHED_KNEE_RATE

PIDS = (1, 2, 3, 4, 5)
MSG_SIZE = 64
BANDWIDTH = 1_000_000  # 1 MB/s egress per processor
PACKET_OVERHEAD = 66  # UDP + IP + Ethernet framing per datagram
SATURATION_RATE = BATCHED_KNEE_RATE  # per-sender msgs/s at the E12 knee
WINDOW = 0.25
BATCH_WINDOW = 0.001
FC_WINDOW = 48  # in-flight Regulars per sender before backpressure

#: (mode, per-sender rate); the "batch" baseline is E12's batched
#: configuration (the adaptive window, no credits), re-run at 2× as the
#: overload contrast point
POINTS = (
    ("batch", 1000),
    ("batch", SATURATION_RATE),
    ("batch", 2 * SATURATION_RATE),
    ("fc-adaptive", 1000),
    ("fc-adaptive", SATURATION_RATE),
    ("fc-adaptive", int(1.5 * SATURATION_RATE)),
    ("fc-adaptive", 2 * SATURATION_RATE),
    ("fc-adaptive", 3 * SATURATION_RATE),
)


def topology():
    return Topology(default=LinkModel(latency=0.0001, jitter=0.00002, loss=0),
                    egress_bandwidth=BANDWIDTH,
                    packet_overhead=PACKET_OVERHEAD)


def config(mode: str) -> FTMPConfig:
    if mode == "batch":
        return FTMPConfig(heartbeat_interval=0.002, suspect_timeout=30.0,
                          batch_window=BATCH_WINDOW)
    return FTMPConfig(heartbeat_interval=0.002, suspect_timeout=30.0,
                      batch_window=BATCH_WINDOW, flow_control_window=FC_WINDOW,
                      nack_dedupe_window=0.005)


def run_point(mode: str, rate: int, drain: float = 0.6):
    net = Network(topology(), seed=5)
    sent_at = {}
    admitted_at = {}
    arrivals = {}
    protos = {}
    observer = PIDS[-1]

    def deliver(d):
        tag = d.payload[:8]
        if tag in sent_at:
            arrivals[tag] = net.scheduler.now

    for p in PIDS:
        handler = deliver if p == observer else (lambda d: None)
        protos[p] = FTMPProtocol(net.endpoint(p), 700, PIDS, handler,
                                 config=config(mode))
        # record *admission* time: when the send actually enters the wire
        # path (immediately, or later when backpressure releases it)
        g = protos[p].group
        orig = g._send_regular

        def wrapped(payload, cid, rn, _orig=orig):
            tag = payload[:8]
            if tag in sent_at and tag not in admitted_at:
                admitted_at[tag] = net.scheduler.now
            _orig(payload, cid, rn)

        g._send_regular = wrapped

    interval = 1.0 / rate
    counter = [0]

    def send(s):
        tag = f"{s}:{counter[0]:05d}".encode()[:8].ljust(8, b".")
        counter[0] += 1
        payload = bytes(tag) + b"." * (MSG_SIZE - 8)
        sent_at[bytes(tag)] = net.scheduler.now
        protos[s].multicast(payload)

    t = 0.05
    load_end = 0.05 + WINDOW
    while t < load_end:
        for s in PIDS:
            net.scheduler.at(t, send, s)
        t += interval
    net.run_for(load_end + drain)

    in_window = sum(1 for at in arrivals.values() if at <= load_end)
    e2e = [arrivals[k] - t0 for k, t0 in sent_at.items() if k in arrivals]
    svc = [arrivals[k] - t0 for k, t0 in admitted_at.items() if k in arrivals]

    agg = {}
    for pr in protos.values():
        for k, v in pr.snapshot().items():
            if isinstance(v, (int, float)):
                agg[k] = agg.get(k, 0.0) + v
    for pr in protos.values():
        pr.stop()
    return {
        "offered": len(sent_at) / WINDOW,
        "goodput": in_window / WINDOW,
        "e2e": summarize(e2e) if e2e else None,
        "svc": summarize(svc) if svc else None,
        "complete": len(e2e) == len(sent_at),
        "max_queue_depth": agg.get("group.700.flow.max_queue_depth", 0.0),
        "sends_queued": agg.get("group.700.flow.sends_queued", 0.0),
        "adaptive_bypasses": agg.get("group.700.batch.adaptive_bypasses", 0.0),
    }


def test_e17_overload_flow_control():
    results = {(mode, rate): run_point(mode, rate) for mode, rate in POINTS}

    table = Table(
        ["mode", "offered (msg/s)", "goodput (msg/s)", "service mean (ms)",
         "service p99 (ms)", "e2e p99 (ms)", "max sender queue"],
        title=f"E17 — overload with stability-driven flow control "
              f"(window {FC_WINDOW}, adaptive {BATCH_WINDOW * 1e3:g} ms "
              f"batching; saturation ≈ {len(PIDS) * SATURATION_RATE} msg/s)",
    )
    for (mode, rate), r in results.items():
        svc, e2e = r["svc"], r["e2e"]
        table.add_row(mode, round(r["offered"]), round(r["goodput"]),
                      round(svc.mean * 1e3, 3), round(svc.p99 * 1e3, 3),
                      round(e2e.p99 * 1e3, 3), round(r["max_queue_depth"]))
    emit("E17_overload_flow_control", table.render())

    fc_sat = results[("fc-adaptive", SATURATION_RATE)]
    fc_2x = results[("fc-adaptive", 2 * SATURATION_RATE)]
    emit_json("e17_overload_flow_control", {
        "senders": len(PIDS),
        "msg_size_bytes": MSG_SIZE,
        "egress_bandwidth_bytes_s": BANDWIDTH,
        "packet_overhead_bytes": PACKET_OVERHEAD,
        "flow_control_window": FC_WINDOW,
        "batch_window_s": BATCH_WINDOW,
        "series": [
            {
                "mode": mode,
                "offered_msg_s": round(r["offered"]),
                "goodput_msg_s": round(r["goodput"]),
                "service_mean_latency_ms": round(r["svc"].mean * 1e3, 3),
                "service_p99_latency_ms": round(r["svc"].p99 * 1e3, 3),
                "e2e_mean_latency_ms": round(r["e2e"].mean * 1e3, 3),
                "e2e_p99_latency_ms": round(r["e2e"].p99 * 1e3, 3),
                "max_sender_queue": round(r["max_queue_depth"]),
            }
            for (mode, rate), r in results.items()
        ],
        "low_load_mean_latency_adaptive_ms": round(
            results[("fc-adaptive", 1000)]["e2e"].mean * 1e3, 3),
        "saturation_goodput_fc_msg_s": round(fc_sat["goodput"]),
        "overload_2x_p99_service_latency_fc_ms": round(
            fc_2x["svc"].p99 * 1e3, 3),
        "overload_2x_p99_latency_no_fc_ms": round(
            results[("batch", 2 * SATURATION_RATE)]["svc"].p99 * 1e3, 3),
    })

    # reliability: nothing is lost anywhere (overload points drain after
    # the window; backpressure defers, it never drops)
    for r in results.values():
        assert r["complete"]

    # low load: adaptive batching restores near-unbatched latency
    low_fc = results[("fc-adaptive", 1000)]
    assert low_fc["e2e"].mean <= 0.0005, low_fc["e2e"].mean
    assert low_fc["adaptive_bypasses"] > 0

    # saturation: flow control does not regress the batched goodput knee
    batch_sat = results[("batch", SATURATION_RATE)]
    assert fc_sat["goodput"] >= 0.99 * batch_sat["goodput"]

    # the headline: bounded service latency at every overload point, and
    # goodput held at the knee instead of collapsing
    for factor in (1.5, 2, 3):
        r = results[("fc-adaptive", int(factor * SATURATION_RATE))]
        assert r["svc"].p99 < 0.010, (factor, r["svc"].p99)
        assert r["goodput"] >= 0.95 * batch_sat["goodput"], (factor, r["goodput"])
        # overload actually engaged the backpressure queue
        assert r["max_queue_depth"] > 0

    # contrast: without flow control the same 2× overload blows p99 out
    no_fc_2x = results[("batch", 2 * SATURATION_RATE)]
    assert no_fc_2x["svc"].p99 > 10 * fc_2x["svc"].p99
