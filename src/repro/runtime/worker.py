"""One cluster processor process: FTMP stack + workload on an asyncio loop.

Launched by :mod:`repro.runtime.cluster` as ``python -m
repro.runtime.worker`` with a JSON spec on stdin.  Life cycle, all over a
newline-delimited-JSON control connection to the supervisor:

1. bind the datagram socket, build the stack, connect the control
   socket, report ``ready``;
2. on ``start`` (the supervisor's barrier, sent once every worker is
   ready): wait until every peer has been heard from, then multicast the
   workload and record every ordered delivery;
3. when every expected delivery arrived (or the deadline passed), report
   ``result`` — delivery log, own-send latencies, wall-clock timings and
   the full ``FTMPStack.snapshot()``;
4. hold the stack alive until ``stop`` — peers may still need this
   processor's retransmission buffer to finish — then tear down.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import struct
import sys
import time
import traceback
from typing import Dict, List

from ..core import FTMPConfig, FTMPStack, Listener
from ..core.datapath import FlowControlSaturated
from .aio import AioFabric

__all__ = ["run_worker", "make_payload", "payload_digest"]

_PAYLOAD_HEADER = struct.Struct("!II")  # (sender pid, message index)


def make_payload(pid: int, index: int, size: int) -> bytes:
    """Deterministic workload payload: (pid, index) header + filler."""
    head = _PAYLOAD_HEADER.pack(pid, index)
    if size <= len(head):
        return head
    filler = (b"%08x" % (pid * 2654435761 % 0xFFFFFFFF)) * (size // 8 + 1)
    return head + filler[: size - len(head)]


def payload_digest(payload: bytes) -> str:
    """Short content digest recorded per delivery (total-order oracle
    checks content agreement across processes on it)."""
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


class _DeliveryLog(Listener):
    """Records ordered deliveries + latency of this processor's own sends."""

    def __init__(self, pid: int, group_id: int):
        self.pid = pid
        self.group_id = group_id
        #: [source, seq, ordering timestamp, digest] per ordered delivery
        self.deliveries: List[List[object]] = []
        self.send_times: Dict[int, float] = {}  # request_num -> monotonic
        self.latencies_ms: List[float] = []
        self.first_delivery: float = 0.0
        self.last_delivery: float = 0.0

    def on_deliver(self, d) -> None:
        if d.group != self.group_id:
            return
        now = time.monotonic()
        if not self.deliveries:
            self.first_delivery = now
        self.last_delivery = now
        self.deliveries.append([d.source, d.sequence_number, d.timestamp,
                                payload_digest(d.payload)])
        if d.source == self.pid:
            t0 = self.send_times.pop(d.request_num, None)
            if t0 is not None:
                self.latencies_ms.append((now - t0) * 1e3)


async def _send_json(writer: asyncio.StreamWriter, obj: dict) -> None:
    writer.write(json.dumps(obj, separators=(",", ":")).encode() + b"\n")
    await writer.drain()


async def _read_json(reader: asyncio.StreamReader) -> dict:
    line = await reader.readline()
    if not line:
        raise ConnectionError("control connection closed by supervisor")
    return json.loads(line)


async def run_worker(spec: dict) -> int:
    pid = int(spec["pid"])
    peers = {int(k): int(v) for k, v in spec["peers"].items()}
    group_id = int(spec["group_id"])
    group_addr = int(spec["group_addr"])
    messages = int(spec["messages"])
    payload_size = int(spec["payload_size"])
    warmup_timeout = float(spec["warmup_timeout"])
    run_timeout = float(spec["run_timeout"])

    fabric = AioFabric(
        peers=peers,
        mode=spec["mode"],
        seed=int(spec["seed"]),
        multicast_port=int(spec["multicast_port"]),
    )
    endpoint = await fabric.start(pid)
    config = FTMPConfig(**spec["config"])
    log = _DeliveryLog(pid, group_id)
    stack = FTMPStack(endpoint, config, log)
    # transport drop visibility rides the stats registry: snapshot()
    # reports net.rx_filtered, net.rx_rcvbuf_max_bytes, net.tx_send_errors
    stack.registry.register("net", fabric.net_stats)
    stack.create_group(group_id, group_addr, tuple(sorted(peers)))
    group = stack.group(group_id)

    reader, writer = await asyncio.open_connection(
        "127.0.0.1", int(spec["control_port"])
    )
    try:
        await _send_json(writer, {"type": "ready", "pid": pid})
        msg = await _read_json(reader)
        if msg.get("type") != "start":
            raise RuntimeError(f"expected start, got {msg!r}")

        # warm-up: every member's heartbeats flowing means ordering can
        # advance from the first Regular instead of stalling on recovery
        deadline = time.monotonic() + warmup_timeout
        others = [p for p in peers if p != pid]
        while not all(group.has_heard_from(p) for p in others):
            if time.monotonic() > deadline:
                break
            await asyncio.sleep(0.002)

        t_start = time.monotonic()
        expected = messages * len(peers)

        async def produce() -> None:
            for i in range(1, messages + 1):
                payload = make_payload(pid, i, payload_size)
                while True:
                    try:
                        log.send_times[i] = time.monotonic()
                        stack.multicast(group_id, payload, request_num=i)
                        break
                    except FlowControlSaturated:
                        await asyncio.sleep(0.001)
                # cooperative pacing: yield to the receive path every
                # send, and back off while the credit queue is deep
                await asyncio.sleep(0)
                while group.flow.queue_depth > 4 * max(1, config.flow_control_window):
                    await asyncio.sleep(0.001)

        producer = asyncio.ensure_future(produce())
        run_deadline = t_start + run_timeout
        while len(log.deliveries) < expected and time.monotonic() < run_deadline:
            await asyncio.sleep(0.01)
        # done unless the deadline passed mid-send: the shortfall is then
        # the result, not something to finish sending first
        producer.cancel()
        try:
            await producer
        except asyncio.CancelledError:
            pass
        elapsed = time.monotonic() - t_start

        await _send_json(writer, {
            "type": "result",
            "pid": pid,
            "delivered": len(log.deliveries),
            "expected": expected,
            "elapsed_s": elapsed,
            "delivery_span_s": max(0.0, log.last_delivery - log.first_delivery),
            "deliveries": log.deliveries,
            "latencies_ms": [round(x, 3) for x in log.latencies_ms],
            "snapshot": stack.snapshot(),
        })

        # hold the retransmission buffers for peers until the supervisor
        # has every worker's result
        try:
            await asyncio.wait_for(_read_json(reader), timeout=run_timeout)
        except (ConnectionError, asyncio.TimeoutError):
            pass
        return 0
    finally:
        stack.stop()
        fabric.stop()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def main() -> int:
    spec = json.load(sys.stdin)
    try:
        return asyncio.run(run_worker(spec))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
