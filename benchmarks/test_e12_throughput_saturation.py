"""E12 (extension) — throughput saturation, batching off vs on.

With finite NIC bandwidth and realistic per-datagram framing overhead
(~66 B of UDP/IP/Ethernet on the wire), many small ordered multicasts
saturate a sender's egress long before the payload bytes do: each
message pays the header + framing price alone.  The batched send path
(``FTMPConfig.batch_window``) coalesces small Regulars bound for the
same group address into one Batch datagram, paying the framing once per
window instead of once per message.  The window adapts: below about four
sends per window a send bypasses it, so at the lowest rates the batched
path is the unbatched one.

Sweep the offered load with batching off and on, past both knees, and
measure in-window goodput (deliveries during the loaded interval only,
not the drain) plus datagrams per delivered message from the unified
stats registry.  At saturation the batched path must deliver at least
20% more and put measurably fewer datagrams on the wire per delivered
message.  The batched knee — the highest offered load whose goodput
still tracks it within 1 % — is :data:`BATCHED_KNEE_RATE`, which E17
takes its overload factors from.
"""

from repro.analysis import Table, summarize
from repro.baselines import FTMPProtocol
from repro.core import FTMPConfig
from repro.simnet import LinkModel, Network, Topology

from _report import emit, emit_json

PIDS = (1, 2, 3, 4, 5)
MSG_SIZE = 64  # small payloads: framing overhead dominates unbatched
BANDWIDTH = 1_000_000  # 1 MB/s egress per processor
PACKET_OVERHEAD = 66  # UDP + IP + Ethernet framing per datagram
#: offered msgs/s per sender, on past the batched knee
RATES = (1000, 2500, 4000, 5500, 7000, 8500, 10000, 11500, 13000, 14500)
#: goodput at least this share of the offered load: still below the knee
KNEE_SHARE = 0.99
#: per-sender rate of the batched knee this sweep finds (asserted below);
#: the E17 overload points are multiples of it
BATCHED_KNEE_RATE = 11500
WINDOW = 0.25
DRAIN = 0.3
#: past the unbatched knee the backlog outlasts DRAIN: run on, in steps,
#: until the observer has everything or this much time has passed
MAX_DRAIN = 1.5
BATCH_WINDOW = 0.001
#: per-sender rate from which the adaptive window engages: a send every
#: 250 us, a quarter window
ENGAGED_RATE = 4000


def topology():
    return Topology(default=LinkModel(latency=0.0001, jitter=0.00002, loss=0),
                    egress_bandwidth=BANDWIDTH,
                    packet_overhead=PACKET_OVERHEAD)


def config(batch_window: float) -> FTMPConfig:
    return FTMPConfig(heartbeat_interval=0.002, suspect_timeout=30.0,
                      batch_window=batch_window)


def run_point(batch_window: float, rate: int):
    net = Network(topology(), seed=5)
    sent_at = {}
    arrivals = {}

    protos = {}
    observer = PIDS[-1]

    def deliver(d):
        if d.payload[:8] in sent_at:
            arrivals[d.payload[:8]] = net.scheduler.now

    for p in PIDS:
        handler = deliver if p == observer else (lambda d: None)
        protos[p] = FTMPProtocol(net.endpoint(p), 700, PIDS, handler,
                                 config=config(batch_window))

    interval = 1.0 / rate
    counter = [0]

    def send(s):
        tag = f"{s}:{counter[0]:04d}".encode()[:8].ljust(8, b".")
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
    net.run_for(load_end + DRAIN)
    while len(arrivals) < len(sent_at) and net.scheduler.now < load_end + MAX_DRAIN:
        net.run_for(0.05)

    # goodput = deliveries observed *during* the loaded window; the drain
    # only serves reliability (everything is eventually delivered)
    in_window = sum(1 for k, at in arrivals.items()
                    if at <= load_end and k in sent_at)
    goodput = in_window / WINDOW
    lats = [arrivals[k] - t0 for k, t0 in sent_at.items() if k in arrivals]

    # wire efficiency from the unified stats registry
    datagrams = 0.0
    deliveries = 0.0
    batches = 0.0
    for pr in protos.values():
        snap = pr.snapshot()
        datagrams += snap.get("stack.datagrams_sent", 0.0)
        deliveries += snap.get("group.700.romp.ordered_deliveries", 0.0)
        batches += snap.get("group.700.batch.batches_sent", 0.0)
    dpd = datagrams / deliveries if deliveries else float("nan")

    delivered_everywhere = len(lats) == len(sent_at)
    for pr in protos.values():
        pr.stop()
    return {
        "offered": len(sent_at) / WINDOW,
        "goodput": goodput,
        "latency": summarize(lats) if lats else None,
        "datagrams_per_delivery": dpd,
        "batches": batches,
        "complete": delivered_everywhere,
    }


def knee(results, label):
    """The highest per-sender rate whose goodput tracks the offered load."""
    return max(rate for rate in RATES
               if results[(label, rate)]["goodput"]
               >= KNEE_SHARE * results[(label, rate)]["offered"])


def test_e12_throughput_saturation():
    results = {
        (label, rate): run_point(bw, rate)
        for label, bw in (("ftmp", 0.0), ("ftmp-batch", BATCH_WINDOW))
        for rate in RATES
    }

    table = Table(
        ["mode", "offered (msg/s)", "in-window goodput (msg/s)",
         "mean latency (ms)", "p99 (ms)", "datagrams/delivery"],
        title=f"E12 — saturation with {PACKET_OVERHEAD} B/packet framing, "
              f"{BANDWIDTH // 1_000_000} MB/s egress ({len(PIDS)} senders, "
              f"{MSG_SIZE} B messages; batch window {BATCH_WINDOW * 1e3:g} ms)",
    )
    for (label, rate), r in results.items():
        lat = r["latency"]
        table.add_row(label, round(r["offered"]), round(r["goodput"]),
                      lat.mean * 1e3 if lat else float("nan"),
                      lat.p99 * 1e3 if lat else float("nan"),
                      round(r["datagrams_per_delivery"], 3))
    emit("E12_throughput_saturation", table.render())
    emit_json("e12_saturation", {
        "senders": len(PIDS),
        "msg_size_bytes": MSG_SIZE,
        "egress_bandwidth_bytes_s": BANDWIDTH,
        "packet_overhead_bytes": PACKET_OVERHEAD,
        "batch_window_s": BATCH_WINDOW,
        "series": [
            {
                "mode": label,
                "offered_msg_s": round(r["offered"]),
                "goodput_msg_s": round(r["goodput"]),
                "mean_latency_ms": round(r["latency"].mean * 1e3, 3)
                if r["latency"] else None,
                "p99_latency_ms": round(r["latency"].p99 * 1e3, 3)
                if r["latency"] else None,
                "datagrams_per_delivery": round(r["datagrams_per_delivery"], 3),
            }
            for (label, rate), r in results.items()
        ],
        "saturation_goodput_unbatched_msg_s": round(
            results[("ftmp", RATES[-1])]["goodput"]),
        "saturation_goodput_batched_msg_s": round(
            results[("ftmp-batch", RATES[-1])]["goodput"]),
        "knee_offered_unbatched_msg_s": round(
            results[("ftmp", knee(results, "ftmp"))]["offered"]),
        "knee_offered_batched_msg_s": round(
            results[("ftmp-batch", knee(results, "ftmp-batch"))]["offered"]),
    })

    # reliability is never traded away: every message is delivered at the
    # observer at every load, batching on or off
    for r in results.values():
        assert r["complete"]
    low, high = RATES[0], RATES[-1]
    # below saturation batching costs at most the window in latency
    lat_off = results[("ftmp", low)]["latency"]
    lat_on = results[("ftmp-batch", low)]["latency"]
    assert lat_on.mean < lat_off.mean + 2 * BATCH_WINDOW + 0.001
    # batching actually engages under load
    assert results[("ftmp-batch", high)]["batches"] > 0
    # never more datagrams per delivered message, and fewer wherever the
    # adaptive window engages
    for rate in RATES:
        on = results[("ftmp-batch", rate)]["datagrams_per_delivery"]
        off = results[("ftmp", rate)]["datagrams_per_delivery"]
        assert on <= off, rate
        if rate >= ENGAGED_RATE:
            assert on < off, rate
    # the headline: >= 20% more in-window goodput at saturation
    sat_off = results[("ftmp", high)]["goodput"]
    sat_on = results[("ftmp-batch", high)]["goodput"]
    assert sat_on >= 1.2 * sat_off, (sat_off, sat_on)
    # and both knees are real: goodput stops tracking offered load within
    # the grid, the batched one where E17 expects it
    assert sat_off < 0.9 * results[("ftmp", high)]["offered"]
    assert sat_on < 0.9 * results[("ftmp-batch", high)]["offered"]
    assert knee(results, "ftmp") < knee(results, "ftmp-batch") == BATCHED_KNEE_RATE
