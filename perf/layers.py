"""Per-layer metrics: what the traced, profiled and micro passes report.

Every name below is reported for every workload; a layer that does not
run on a workload (``giop`` on ``steady5``, ``pgmp`` fault handling
anywhere but ``churn5``, ``simnet`` on ``aio_*`` …) reports 0 — which is
the prediction "a gain there must show nothing here" made checkable.
``README.md`` says which end-to-end metric, on which workload, each of
them should move.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Tuple

from repro.core import (
    BatchMessage,
    ConnectionId,
    FTMPHeader,
    HeartbeatMessage,
    MessageType,
    RegularMessage,
)
from repro.core.wire import decode, encode
from repro.giop import (
    GIOPHeader,
    GIOPMessageType,
    ReplyMessage,
    RequestMessage,
    decode_giop,
    encode_giop,
    encode_values,
)
from repro.giop.messages import ReplyStatus

from .calibrate import REFERENCE_KERNEL_S, calibrate, clock
from .trace import LAYERS, Tracer, layer_of, span_layer
from .workloads import percentile

__all__ = ["PER_LAYER", "codec_micro", "layer_metrics"]

_CODECS = (
    "wire.encode_regular64_norm_ns", "wire.decode_regular64_norm_ns",
    "wire.decode_heartbeat_norm_ns", "wire.encode_batch8x64_norm_ns",
    "wire.decode_batch8x64_norm_ns", "wire.encode_regular2k_norm_ns",
    "wire.decode_regular2k_norm_ns", "giop.encode_request2k_norm_ns",
    "giop.decode_request2k_norm_ns", "giop.encode_reply_norm_ns",
    "giop.decode_reply_norm_ns",
)

#: (name, unit, better) of every per-layer metric, in printing order
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    [(f"{layer}.{what}", unit, "lower")
     for layer in LAYERS
     for what, unit in (("self_us_per_op", "us"), ("calls_per_op", "1"),
                        ("pycalls_per_op", "1"))]
    + [("py.calls_per_op", "1", "lower"),
       ("trace.overhead_ratio", "1", "lower")]
    + [(name, "norm_ns", "lower") for name in _CODECS]
    + [
        ("romp.gate_wait_ms_p50", "ms", "lower"),
        ("romp.gate_wait_ms_p99", "ms", "lower"),
        ("romp.evaluate_calls_per_delivery", "1", "lower"),
        ("romp.max_queue_depth", "count", "lower"),
        ("datapath.datagrams_per_delivery", "1", "lower"),
        ("datapath.msgs_per_batch", "1", "higher"),
        ("datapath.heartbeats_per_delivery", "1", "lower"),
        ("datapath.heartbeats_suppressed_share", "1", "higher"),
        ("datapath.adaptive_bypass_share", "1", "lower"),
        ("datapath.fc_queued_share", "1", "lower"),
        ("datapath.fc_max_queue_depth", "count", "lower"),
        ("rmp.nacks_per_kdelivery", "1", "lower"),
        ("rmp.retransmissions_per_kdelivery", "1", "lower"),
        ("rmp.retransmissions_suppressed_share", "1", "higher"),
        ("rmp.duplicate_share", "1", "lower"),
        ("rmp.out_of_order_share", "1", "lower"),
        ("buffers.peak_bytes", "B", "lower"),
        ("buffers.reclaimed_per_gc_run", "1", "higher"),
        ("pgmp.failover_gap_ms", "ms", "lower"),
        ("pgmp.fault_view_install_ms", "ms", "lower"),
        ("pgmp.join_ms", "ms", "lower"),
        ("pgmp.view_changes", "count", "lower"),
        ("pgmp.false_suspicions", "count", "lower"),
        ("simnet.events_per_delivery", "1", "lower"),
        ("simnet.loss_share", "1", "lower"),
        ("runtime.sendto_calls_per_delivery", "1", "lower"),
        ("runtime.timers_armed_per_delivery", "1", "lower"),
        ("runtime.send_lateness_p99_ms", "ms", "lower"),
        ("runtime.order_latency_p99_ms", "ms", "lower"),
        ("runtime.rx_rcvbuf_max_bytes", "B", "lower"),
        ("runtime.burst_goodput_msg_s", "1/s", "higher"),
        ("orb.duplicates_suppressed_per_invoke", "1", "lower"),
        ("orb.executions_per_invoke", "1", "lower"),
        ("connection.establish_ms", "ms", "lower"),
    ]
)


# ----------------------------------------------------------------------
# codec micro-benchmarks: direct calls, calibrated like the e2e cost
# ----------------------------------------------------------------------
def _header(mtype: MessageType, seq: int = 7) -> FTMPHeader:
    return FTMPHeader(message_type=mtype, source=3, group=1, sequence_number=seq,
                      timestamp=1234567, ack_timestamp=1234000)


def _regular(size: int, seq: int = 7) -> RegularMessage:
    return RegularMessage(header=_header(MessageType.REGULAR, seq),
                          connection_id=ConnectionId.none(), request_num=seq,
                          payload=b"\x5a" * size)


def _codec_cases() -> List[Tuple[str, Callable[[], object]]]:
    regular64 = _regular(64)
    regular2k = _regular(2048)
    batch = BatchMessage(
        header=FTMPHeader(message_type=MessageType.BATCH, source=3, group=1,
                          sequence_number=0, timestamp=0, ack_timestamp=0),
        parts=tuple(encode(_regular(64, seq)) for seq in range(1, 9)))
    raw64, raw2k, raw_batch = encode(regular64), encode(regular2k), encode(batch)
    raw_heartbeat = encode(HeartbeatMessage(header=_header(MessageType.HEARTBEAT)))
    request = RequestMessage(
        header=GIOPHeader(GIOPMessageType.REQUEST), request_id=9,
        response_expected=True, object_key=b"store", operation="put",
        body=encode_values(("key-0a1b2", b"\x5a" * 2048)))
    reply = ReplyMessage(header=GIOPHeader(GIOPMessageType.REPLY), request_id=9,
                         reply_status=ReplyStatus.NO_EXCEPTION,
                         body=encode_values([9]))
    raw_request, raw_reply = encode_giop(request), encode_giop(reply)
    calls = (
        lambda: encode(regular64), lambda: decode(raw64),
        lambda: decode(raw_heartbeat), lambda: encode(batch),
        lambda: decode(raw_batch), lambda: encode(regular2k),
        lambda: decode(raw2k), lambda: encode_giop(request),
        lambda: decode_giop(raw_request), lambda: encode_giop(reply),
        lambda: decode_giop(raw_reply),
    )
    return list(zip(_CODECS, calls))


def codec_micro(rounds: int = 32, repeats: int = 300) -> Dict[str, float]:
    """Normalised ns per call of each codec entry point.

    Each round runs one calibration kernel and then ``repeats`` calls of
    every case; the result is the median over rounds of the per-call time
    as a fraction of that round's kernel (the timing lambda's own call is
    part of every case alike).
    """
    cases = _codec_cases()
    samples: Dict[str, List[float]] = {name: [] for name, _ in cases}
    loop = range(repeats)
    for _ in range(rounds):
        cal = calibrate()
        for name, call in cases:
            t0 = clock()
            for _i in loop:
                call()
            samples[name].append((clock() - t0) / repeats / cal)
    return {name: statistics.median(v) * REFERENCE_KERNEL_S * 1e9
            for name, v in samples.items()}


# ----------------------------------------------------------------------
# assembling the per-layer report
# ----------------------------------------------------------------------
def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _view_metrics(info: dict, histories: Dict[int, object]) -> Dict[str, float]:
    """PGMP timings from the listeners' view-change and delivery logs."""
    views = info["views"]
    live = set(info["live"])
    crash_at = info.get("crash_at")
    out = {"pgmp.view_changes":
           float(max((len(log) for log in views.values()), default=0))}
    if crash_at is None:
        # nobody crashed, so every suspicion raised was a false one
        out["pgmp.false_suspicions"] = info["snapshot"].get(
            "fault_detector.suspicions_raised", 0)
        return out
    out["pgmp.false_suspicions"] = float(sum(
        reason == "evicted" for pid, log in views.items() if pid in live
        for _at, reason, _m in log))
    fault_views = [at for pid, log in views.items() if pid in live
                   for at, reason, _m in log if reason == "fault"]
    if fault_views:
        out["pgmp.fault_view_install_ms"] = (max(fault_views) - crash_at) * 1e3
    joined = [log[0][0] for pid, log in views.items() if pid == info["joiner"] and log]
    if joined:
        out["pgmp.join_ms"] = (joined[0] - info["join_at"]) * 1e3
    # time without service: longest delivery-free interval after the crash
    gap = 0.0
    for pid, rec in histories.items():
        if pid not in live:
            continue
        last = crash_at
        for d in rec.deliveries:
            if d.delivered_at > crash_at:
                gap = max(gap, d.delivered_at - last)
                last = d.delivered_at
    out["pgmp.failover_gap_ms"] = gap * 1e3
    return out


def layer_metrics(untraced: dict, traced: dict, probe, profile_stats: dict,
                  profiled_ops: int, micro: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 where the layer does not run."""
    out: Dict[str, float] = {name: 0.0 for name, _u, _b in PER_LAYER}
    tracer: Tracer = probe.tracer
    info = traced["info"]
    snap = info["snapshot"]
    ops = traced["ops"]
    deliveries = info.get("deliveries", ops)

    # span self time and entries inside the measured part, by layer; time
    # there outside every root span is the substrate's own event loop
    # (plus the load generator).  Spans are wall time, so the measured
    # part is too — except where the loop sleeps between events, and only
    # processor time tells the loop's work from its waiting.
    measured_ops = traced["measured_ops"]
    spans, root_ns = tracer.summarize(*probe.marks)
    for name, (calls, self_ns) in spans.items():
        layer = span_layer(name)
        out[f"{layer}.self_us_per_op"] += self_ns / 1e3 / measured_ops
        out[f"{layer}.calls_per_op"] += calls / measured_ops
    substrate = info["substrate"]
    measured_s = traced["measured_s" if info.get("paced") else "measured_wall_s"]
    out[f"{substrate}.self_us_per_op"] += max(
        0.0, measured_s * 1e9 - root_ns) / 1e3 / measured_ops

    # exact call counts from the cProfile pass
    total_calls = 0
    for (filename, _line, _fn), (_cc, ncalls, _tt, _ct, _callers) in profile_stats.items():
        total_calls += ncalls
        layer = layer_of(filename) if filename.endswith(".py") else None
        if layer is not None:
            out[f"{layer}.pycalls_per_op"] += ncalls / profiled_ops
    out["py.calls_per_op"] = total_calls / profiled_ops
    out["trace.overhead_ratio"] = _share(traced["raw_us_per_op"],
                                         untraced["raw_us_per_op"])
    out.update(micro)

    waits = sorted(tracer.gate_waits)
    if waits:
        out["romp.gate_wait_ms_p50"] = percentile(waits, 0.5) * 1e3
        out["romp.gate_wait_ms_p99"] = percentile(waits, 0.99) * 1e3
    out["romp.evaluate_calls_per_delivery"] = _share(
        spans.get("romp.evaluate", (0, 0))[0],
        measured_ops * deliveries / ops)
    out["romp.max_queue_depth"] = snap.get("romp.max_queue_depth", 0)

    regulars = snap.get("send.regulars_sent", 0)
    heartbeats = snap.get("send.heartbeats_sent", 0)
    suppressed = snap.get("batch.heartbeats_suppressed", 0)
    out["datapath.datagrams_per_delivery"] = _share(info["datagrams"], deliveries)
    out["datapath.msgs_per_batch"] = _share(snap.get("batch.messages_batched", 0),
                                            snap.get("batch.batches_sent", 0))
    out["datapath.heartbeats_per_delivery"] = _share(heartbeats, deliveries)
    out["datapath.heartbeats_suppressed_share"] = _share(suppressed, suppressed + heartbeats)
    out["datapath.adaptive_bypass_share"] = _share(snap.get("batch.adaptive_bypasses", 0),
                                                   regulars)
    out["datapath.fc_queued_share"] = _share(snap.get("flow.sends_queued", 0),
                                             snap.get("flow.sends_admitted", 0))
    out["datapath.fc_max_queue_depth"] = snap.get("flow.max_queue_depth", 0)

    received = snap.get("rmp.delivered", 0) + snap.get("rmp.duplicates", 0)
    answered = snap.get("rmp.retransmissions_sent", 0)
    held_back = snap.get("rmp.retransmissions_suppressed", 0)
    out["rmp.nacks_per_kdelivery"] = _share(1e3 * snap.get("rmp.nacks_sent", 0), deliveries)
    out["rmp.retransmissions_per_kdelivery"] = _share(1e3 * answered, deliveries)
    out["rmp.retransmissions_suppressed_share"] = _share(held_back, held_back + answered)
    out["rmp.duplicate_share"] = _share(snap.get("rmp.duplicates", 0), received)
    out["rmp.out_of_order_share"] = _share(snap.get("rmp.out_of_order", 0), received)

    out["buffers.peak_bytes"] = info["buffer_peak_bytes"]
    out["buffers.reclaimed_per_gc_run"] = _share(snap.get("romp.messages_reclaimed", 0),
                                                 snap.get("romp.gc_runs", 0))
    out.update(_view_metrics(info, probe.recordings))

    if substrate == "simnet":
        out["simnet.events_per_delivery"] = _share(info["events"], deliveries)
        out["simnet.loss_share"] = info["loss_share"]
    else:
        sent = sum(ep.datagrams_sent for ep in probe.endpoints.values())
        armed = sum(ep.timers_armed for ep in probe.endpoints.values())
        out["runtime.sendto_calls_per_delivery"] = sent * info["fanout"] / deliveries
        out["runtime.timers_armed_per_delivery"] = armed / deliveries
        out["runtime.rx_rcvbuf_max_bytes"] = info["rcvbuf_max_bytes"]
        # timing figures come from the untraced pass: spans would distort them
        free = untraced["info"]
        out["runtime.send_lateness_p99_ms"] = free.get("send_lateness_p99_ms", 0.0)
        out["runtime.order_latency_p99_ms"] = free.get("latency_p99_ms", 0.0)
        out["runtime.burst_goodput_msg_s"] = free.get("burst_goodput_msg_s", 0.0)

    if "executions" in info:
        out["orb.duplicates_suppressed_per_invoke"] = info["duplicates_suppressed"] / ops
        out["orb.executions_per_invoke"] = info["executions"] / ops
        out["connection.establish_ms"] = info["establish_ms"]
    return out
