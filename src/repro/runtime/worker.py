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
from typing import Callable, Dict, List, Optional, Tuple

from ..core import FTMPConfig, FTMPStack, Listener
from ..core.datapath import FlowControlSaturated
from .aio import AioFabric, ShardedAioFabric

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

    def __init__(self, pid: int, group_id: int, record_digests: bool):
        self.pid = pid
        self.group_id = group_id
        self.record_digests = record_digests
        #: [source, seq, ordering timestamp, digest?] per ordered delivery
        self.deliveries: List[List[object]] = []
        self.send_times: Dict[int, float] = {}  # request_num -> monotonic
        self.latencies_ms: List[float] = []
        self.first_delivery: float = 0.0
        self.last_delivery: float = 0.0
        #: (delivery count, callback) fired once from inside the delivery
        #: that reaches the count — run progress, not the clock
        self.milestone: Optional[Tuple[int, Callable[[], None]]] = None

    def on_deliver(self, d) -> None:
        if d.group != self.group_id:
            return
        now = time.monotonic()
        if not self.deliveries:
            self.first_delivery = now
        self.last_delivery = now
        rec: List[object] = [d.source, d.sequence_number, d.timestamp]
        if self.record_digests:
            rec.append(payload_digest(d.payload))
        self.deliveries.append(rec)
        if d.source == self.pid:
            t0 = self.send_times.pop(d.request_num, None)
            if t0 is not None:
                self.latencies_ms.append((now - t0) * 1e3)
        if self.milestone is not None and len(self.deliveries) >= self.milestone[0]:
            fire = self.milestone[1]
            self.milestone = None
            fire()


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
    group_id = int(spec.get("group_id", 1))
    group_addr = int(spec.get("group_addr", 5001))
    messages = int(spec.get("messages", 100))
    payload_size = int(spec.get("payload_size", 64))
    warmup_timeout = float(spec.get("warmup_timeout", 10.0))
    run_timeout = float(spec.get("run_timeout", 60.0))
    record_digests = bool(spec.get("record_digests", True))

    io_shards = int(spec.get("io_shards", 0))
    if io_shards > 0:
        # sharded wall-clock datapath (ISSUE 9): UDP lives in shard
        # subprocesses, datagrams reach this core over shm rings
        fabric: AioFabric = ShardedAioFabric(
            peers=peers,
            mode=spec.get("mode", "loopback"),
            host=spec.get("host", "127.0.0.1"),
            seed=int(spec.get("seed", 0)),
            multicast_port=int(spec.get("multicast_port", 29513)),
            io_shards=io_shards,
            ring_run_id=str(spec["ring_run_id"]),
            peer_rings=bool(spec.get("peer_rings", True)),
            ring_capacity=int(spec.get("ring_capacity", 1 << 20)),
            peer_doorbell_rx={int(k): int(v) for k, v in
                              spec.get("peer_doorbell_rx", {}).items()},
            peer_doorbell_tx={int(k): int(v) for k, v in
                              spec.get("peer_doorbell_tx", {}).items()},
        )
    else:
        fabric = AioFabric(
            peers=peers,
            mode=spec.get("mode", "loopback"),
            host=spec.get("host", "127.0.0.1"),
            seed=int(spec.get("seed", 0)),
            multicast_port=int(spec.get("multicast_port", 29513)),
        )
    endpoint = await fabric.start(pid)
    if io_shards > 0:
        await fabric.wait_ready(timeout=float(spec.get("warmup_timeout", 10.0)))
    config = FTMPConfig(**spec.get("config", {}))
    log = _DeliveryLog(pid, group_id, record_digests)
    stack = FTMPStack(endpoint, config, log)
    # transport drop visibility rides the stats registry: snapshot()
    # reports net.rx_ring_full, net.rx_decode_errors, net.shard_failovers…
    stack.registry.register("net", fabric.net_stats)
    stack.create_group(group_id, group_addr, tuple(sorted(peers)))
    group = stack.group(group_id)

    reader, writer = await asyncio.open_connection(
        spec.get("control_host", "127.0.0.1"), int(spec["control_port"])
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
        chaos_kill_shard = io_shards > 0 and bool(spec.get("chaos_kill_shard"))
        if chaos_kill_shard:
            # keyed on deliveries, not on the clock: on a fast machine a
            # timer lands after the last delivery and kills nothing that
            # mattered
            log.milestone = (max(1, expected // 4), fabric.chaos_kill_one_shard)

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
        # the failover is asynchronous (shard EOF, then the in-core bind):
        # report only once the snapshot below can show it
        while (chaos_kill_shard and not fabric.stat_shard_failovers
               and time.monotonic() < run_deadline):
            await asyncio.sleep(0.01)
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
