"""E20 — LLFT leader-follower fast path vs the symmetric active stack.

Head-to-head on the E17 harness, three axes:

* **Low-load invocation latency.**  The LLFT leader delivers its own
  sends at send time — no all-member ack-stability wait on the critical
  path — so the leader-origin path should sit well under the active
  stack's p50.  Follower-origin messages take one extra hop (source →
  leader → OrderInfo), so the pooled llft p50 is the honest aggregate
  figure, reported alongside.

* **Failover time.**  Crash the pinned leader mid-traffic and measure
  the stall: from the crash instant to the first ordered delivery (at
  the anchor) of a message *sent after* the crash.  The floor is the
  suspect timeout; everything above it is conviction + §7.2 drain +
  takeover.  The active stack's same-shape crash is the contrast point
  (any member crash stalls delivery there too, until the fault view).

* **Paced load.**  The ``steady5`` shape: five members, each sending
  64 B Poisson at 1,000 msg/s on ``lan()`` with 2 ms heartbeats.  Here
  the symmetric gate waits for the member the queue head waits for, and
  LLFT's OrderInfo does not: p50, p99 and wire bytes per delivery
  (framing included) for both, and for the leader sending alone.

* **Overload behaviour.**  The E17 overload point (offered ≈ 1.5× the
  E12 knee on a bandwidth-limited NIC) with flow control on: LLFT's
  OrderInfo control traffic rides the leader's stream with
  congestion-gated coalescing (full batches still go out while the
  leader's own window is blocked).  Nothing may be lost, and goodput
  must stay within the structural cost of the leader relay — follower
  traffic takes one extra queued hop before anyone may deliver it.
"""

import random

from repro.analysis import Table, summarize
from repro.analysis.harness import TimedWorkload, make_cluster
from repro.core import FTMPConfig
from repro.core.tracing import Tracer
from repro.simnet import LinkModel, Topology, lan

from _report import emit, emit_json
from test_e12_throughput_saturation import BATCHED_KNEE_RATE

PIDS = (1, 2, 3, 4, 5)
LOW_LOAD_PIDS = (1, 2, 3)
MSG_SIZE = 64
BANDWIDTH = 1_000_000
PACKET_OVERHEAD = 66
OVERLOAD_RATE = BATCHED_KNEE_RATE * 3 // 2  # per-sender msg/s: 1.5× the E12 knee
SUSPECT_TIMEOUT = 0.150
FAILOVER_HEARTBEAT = 0.010
PACED_RATE = 1_000.0  # per-sender msg/s, Poisson
PACED_WARMUP, PACED_WINDOW = 0.3, 1.0


def _base_config(**overrides) -> FTMPConfig:
    base = dict(heartbeat_interval=0.002, suspect_timeout=30.0,
                batch_window=0.001)
    base.update(overrides)
    return FTMPConfig(**base)


def _config(mode: str, **overrides) -> FTMPConfig:
    ordering = "leader" if mode == "llft" else "symmetric"
    return _base_config(ordering=ordering, **overrides)


def _latencies(wl: TimedWorkload, receivers, senders=None):
    """Pooled send→delivery latencies, optionally filtered by sender."""
    sent = {r.payload: (r.sender, r.sent_at) for r in wl.sends}
    out = []
    for pid in receivers:
        for d in wl.cluster.listeners[pid].deliveries:
            rec = sent.get(d.payload)
            if rec is None or d.group != wl.group:
                continue
            if senders is not None and rec[0] not in senders:
                continue
            out.append(d.delivered_at - rec[1])
    return out


def run_low_load(mode: str):
    cluster = make_cluster(LOW_LOAD_PIDS, config=_config(mode), seed=9)
    try:
        wl = TimedWorkload(cluster)
        wl.uniform(LOW_LOAD_PIDS, start=0.05, stop=0.55, interval=0.005)
        cluster.run_for(1.0)
        cluster.assert_agreement()
        assert wl.delivered_fraction(LOW_LOAD_PIDS) == 1.0
        # pid 1 leads in llft mode (llft_leader_pid=0 → smallest member)
        return {
            "pooled": summarize(_latencies(wl, LOW_LOAD_PIDS)),
            "leader_origin": summarize(
                _latencies(wl, LOW_LOAD_PIDS, senders=(1,))),
            "leader_local": summarize(_latencies(wl, (1,), senders=(1,))),
        }
    finally:
        cluster.stop()


def run_failover(mode: str):
    # under llft the leader is pinned to the victim
    cfg = _config(mode, heartbeat_interval=FAILOVER_HEARTBEAT,
                  suspect_timeout=SUSPECT_TIMEOUT, llft_leader_pid=2)
    cluster = make_cluster(PIDS, config=cfg, seed=9)
    tracer = cluster.stacks[1].tracer = Tracer()
    try:
        survivors = (1, 3, 4, 5)
        crash_t = 0.40
        wl = TimedWorkload(cluster)
        wl.uniform(PIDS, start=0.05, stop=0.38, interval=0.005)
        wl.uniform(survivors, start=0.42, stop=1.40, interval=0.005)
        cluster.net.scheduler.at(crash_t, cluster.net.crash, 2)
        cluster.run_for(2.5)

        sent = {r.payload: r.sent_at for r in wl.sends}
        post = [d.delivered_at for d in cluster.listeners[1].deliveries
                if d.group == 1 and sent.get(d.payload, 0.0) > crash_t]
        assert post, f"{mode}: no post-crash message was ever delivered"
        # survivors agree on one order end to end
        orders = [cluster.listeners[p].delivery_order(1) for p in survivors]
        assert all(o == orders[0] for o in orders[1:])
        post_sends = [r for r in wl.sends if r.sent_at > crash_t]
        delivered = cluster.listeners[1].payloads(1)
        assert all(r.payload in delivered for r in post_sends)
        # the victim's last datagram heard: its silence starts there
        silent = max(e.time for e in tracer.events
                     if e.kind == "recv" and e.detail["src"] == 2)
        return {"failover": min(post) - crash_t, "since_silent": min(post) - silent}
    finally:
        cluster.stop()


def run_paced(mode: str, senders=PIDS):
    """``senders`` each multicast 64 B Poisson at PACED_RATE on lan()."""
    cfg = FTMPConfig(heartbeat_interval=0.002, suspect_timeout=30.0,
                     ordering="leader" if mode == "llft" else "symmetric")
    cluster = make_cluster(PIDS, topology=lan(), config=cfg, seed=11)
    try:
        wl = TimedWorkload(cluster)
        for p in senders:
            rng = random.Random(1009 * 11 + p)
            t = PACED_WARMUP + rng.expovariate(PACED_RATE)
            while t < PACED_WARMUP + PACED_WINDOW:
                wl.send_at(t, p, size=MSG_SIZE)
                t += rng.expovariate(PACED_RATE)
        trace = cluster.net.trace
        cluster.run_for(PACED_WARMUP)
        sends0, bytes0 = trace.sends, trace.bytes_sent
        cluster.run_for(PACED_WINDOW + 0.1)
        cluster.assert_agreement()
        assert wl.delivered_fraction(PIDS) == 1.0
        lat = summarize(wl.latencies(PIDS))
        wire = (trace.bytes_sent - bytes0) + PACKET_OVERHEAD * (trace.sends - sends0)
        return {"p50": lat.p50, "p99": lat.p99, "bytes_per_delivery": wire / lat.count}
    finally:
        cluster.stop()


def run_overload(mode: str):
    topo = Topology(
        default=LinkModel(latency=0.0001, jitter=0.00002, loss=0),
        egress_bandwidth=BANDWIDTH, packet_overhead=PACKET_OVERHEAD,
    )
    cfg = _config(mode, flow_control_window=48, nack_dedupe_window=0.005)
    cluster = make_cluster(PIDS, topology=topo, config=cfg, seed=5)
    try:
        window = 0.20
        wl = TimedWorkload(cluster)
        wl.uniform(PIDS, start=0.05, stop=0.05 + window,
                   interval=1.0 / OVERLOAD_RATE, size=MSG_SIZE)
        cluster.run_for(0.05 + window + 1.2)  # window + drain
        cluster.assert_agreement()
        # backpressure defers, it never drops
        assert wl.delivered_fraction(PIDS) == 1.0
        observer = PIDS[-1]
        sent = {r.payload for r in wl.sends}
        in_window = sum(
            1 for d in cluster.listeners[observer].deliveries
            if d.group == 1 and d.payload in sent
            and d.delivered_at <= 0.05 + window
        )
        return {
            "offered": len(wl.sends) / window,
            "goodput": in_window / window,
        }
    finally:
        cluster.stop()


def test_e20_llft_vs_active():
    r = {
        "low": {m: run_low_load(m) for m in ("active", "llft")},
        "failover": {m: run_failover(m) for m in ("active", "llft")},
        "overload": {m: run_overload(m) for m in ("active", "llft")},
        "paced": {m: run_paced(m) for m in ("active", "llft")},
        "paced_leader": {m: run_paced(m, senders=(1,)) for m in ("active", "llft")},
    }
    low, fo, ov = r["low"], r["failover"], r["overload"]
    paced, alone = r["paced"], r["paced_leader"]

    table = Table(
        ["mode", "p50 (ms)", "leader-origin p50 (ms)",
         "leader-local p50 (ms)", "failover (ms)", "overload goodput (msg/s)"],
        title="E20 — LLFT leader-follower fast path vs active "
              f"(3 senders @ 200 msg/s low load; leader crash @ suspect "
              f"{SUSPECT_TIMEOUT * 1e3:g} ms; overload "
              f"{len(PIDS) * OVERLOAD_RATE} msg/s offered)",
    )
    for m in ("active", "llft"):
        table.add_row(
            m,
            round(low[m]["pooled"].p50 * 1e3, 3),
            round(low[m]["leader_origin"].p50 * 1e3, 3),
            round(low[m]["leader_local"].p50 * 1e3, 3),
            round(fo[m]["failover"] * 1e3, 1),
            round(ov[m]["goodput"]),
        )
    paced_table = Table(
        ["mode", "p50 (ms)", "p99 (ms)", "B/delivery", "leader alone p50 (ms)"],
        title="E20 paced — 5 senders @ 1,000 msg/s Poisson, lan(), 2 ms heartbeats "
              "(B/delivery: FTMP bytes + 66 B framing per datagram)",
    )
    for m in ("active", "llft"):
        paced_table.add_row(
            m,
            round(paced[m]["p50"] * 1e3, 3),
            round(paced[m]["p99"] * 1e3, 3),
            round(paced[m]["bytes_per_delivery"], 1),
            round(alone[m]["p50"] * 1e3, 3),
        )
    emit("E20_llft_vs_active", table.render() + "\n\n" + paced_table.render())

    emit_json("e20_llft_vs_active", {
        "senders_low_load": len(LOW_LOAD_PIDS),
        "overload_offered_msg_s": round(ov["llft"]["offered"]),
        "suspect_timeout_s": SUSPECT_TIMEOUT,
        "low_load_p50_latency_active_ms": round(
            low["active"]["pooled"].p50 * 1e3, 3),
        "low_load_p50_latency_llft_ms": round(
            low["llft"]["pooled"].p50 * 1e3, 3),
        "low_load_leader_path_p50_latency_ms": round(
            low["llft"]["leader_local"].p50 * 1e3, 3),
        "low_load_leader_origin_p50_latency_ms": round(
            low["llft"]["leader_origin"].p50 * 1e3, 3),
        "failover_latency_active_ms": round(
            fo["active"]["failover"] * 1e3, 1),
        "failover_latency_llft_ms": round(fo["llft"]["failover"] * 1e3, 1),
        "overload_goodput_active_msg_s": round(ov["active"]["goodput"]),
        "overload_goodput_llft_msg_s": round(ov["llft"]["goodput"]),
        "paced_p50_latency_active_ms": round(paced["active"]["p50"] * 1e3, 3),
        "paced_p50_latency_llft_ms": round(paced["llft"]["p50"] * 1e3, 3),
        "paced_p99_latency_active_ms": round(paced["active"]["p99"] * 1e3, 3),
        "paced_p99_latency_llft_ms": round(paced["llft"]["p99"] * 1e3, 3),
        "paced_bytes_per_delivery_active": round(paced["active"]["bytes_per_delivery"], 1),
        "paced_bytes_per_delivery_llft": round(paced["llft"]["bytes_per_delivery"], 1),
        "paced_leader_alone_p50_latency_active_ms": round(alone["active"]["p50"] * 1e3, 3),
        "paced_leader_alone_p50_latency_llft_ms": round(alone["llft"]["p50"] * 1e3, 3),
    })

    # the headline: the leader's invocation path beats the active p50
    assert low["llft"]["leader_local"].p50 < low["active"]["pooled"].p50
    # and the aggregate llft latency does not regress vs active
    assert low["llft"]["pooled"].p50 <= 1.5 * low["active"]["pooled"].p50

    # failover is bounded: suspect timeout after the victim's last
    # datagram is the floor — from the crash, less the at most one
    # heartbeat interval the victim was already silent — and the whole
    # conviction + drain + takeover completes well under a second
    for m in ("active", "llft"):
        assert fo[m]["since_silent"] > SUSPECT_TIMEOUT
        assert fo[m]["failover"] > SUSPECT_TIMEOUT - FAILOVER_HEARTBEAT
        assert fo[m]["failover"] < 1.0, (m, fo[m]["failover"])

    # overload: reliability holds (asserted inside run_overload) and
    # goodput stays within the structural penalty of the leader relay —
    # 4/5 of the traffic takes an extra queued hop through the leader's
    # saturated NIC before followers may deliver it, so LLFT trades some
    # overload ordering throughput for its low-load latency win; what it
    # must NOT do is collapse (the un-gated announcement flood did)
    assert ov["llft"]["goodput"] >= 0.5 * ov["active"]["goodput"]
