"""Cluster supervisor: N real processor processes running one FTMP group.

``run_cluster`` spawns one ``python -m repro.runtime.worker`` process per
processor, wires them into a shared group over the asyncio UDP fabric
(real multicast when the host supports it, loopback fan-out otherwise),
barrier-starts a multicast workload, and collects each worker's delivery
log, latency samples and ``FTMPStack.snapshot()`` over a TCP control
socket.  The collected logs are then cross-checked by the chaos-campaign
oracles (total order, per-source FIFO, no duplicates) — the same
invariants the deterministic simulation enforces, now asserted across
real OS processes.

CLI::

    python -m repro.runtime.cluster --processes 3 --messages 3400

exits non-zero unless every process delivered every message and the
oracles came back clean.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.events import Delivery, RecordingListener
from ..core.messages import ConnectionId
from ..replication.oracles import (
    Violation,
    check_fifo,
    check_no_duplicates,
    check_total_order,
)
from .aio import free_udp_ports, multicast_available

__all__ = ["ClusterSpec", "ClusterResult", "run_cluster", "default_cluster_config",
           "main"]


#: the one processor group every worker runs, and its abstract address
GROUP_ID = 1
GROUP_ADDR = 5001

#: a worker waits this long to hear every peer before it starts sending
WARMUP_TIMEOUT = 15.0
#: extra seconds allowed for spawn + socket binding + handshakes
SPAWN_TIMEOUT = 30.0


def default_cluster_config() -> Dict[str, object]:
    """Stack tuning for wall-clock runs: the full PR 1–4 datapath.

    Adaptive batching + stability-driven flow control on (the production
    posture), heartbeats slow enough for real timers, and a suspect
    timeout generous enough that CPU contention between N Python
    processes on one host cannot convict a live member.
    """
    return {
        "heartbeat_interval": 0.02,
        "suspect_timeout": 30.0,
        "nack_delay": 0.003,
        "nack_retry_interval": 0.03,
        "nack_dedupe_window": 0.02,
        "batch_window": 0.002,
        "batch_max_bytes": 8192,
        "flow_control_window": 256,
    }


@dataclass
class ClusterSpec:
    """Parameters of one multi-process cluster run."""

    processes: int = 3
    messages_per_process: int = 200
    payload_size: int = 64
    #: "loopback", "multicast", or "auto" (probe, fall back to loopback)
    mode: str = "auto"
    seed: int = 0
    run_timeout: float = 120.0


@dataclass
class ClusterResult:
    """Aggregated outcome of one cluster run."""

    mode: str
    processes: int
    expected_per_process: int
    delivered: Dict[int, int]
    total_delivered: int
    wall_s: float
    msgs_s: float
    latency_p50_ms: float
    latency_p99_ms: float
    violations: List[Dict[str, object]]
    snapshots: Dict[int, Dict[str, float]]
    worker_errors: List[str]
    #: summed net.* transport counters across workers
    net: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            not self.violations
            and not self.worker_errors
            and all(n == self.expected_per_process for n in self.delivered.values())
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "processes": self.processes,
            "expected_per_process": self.expected_per_process,
            "delivered": {str(k): v for k, v in sorted(self.delivered.items())},
            "total_delivered": self.total_delivered,
            "wall_s": round(self.wall_s, 4),
            "msgs_s": round(self.msgs_s, 1),
            "latency_p50_ms": round(self.latency_p50_ms, 3),
            "latency_p99_ms": round(self.latency_p99_ms, 3),
            "violations": self.violations,
            "worker_errors": self.worker_errors,
            "net": {k: v for k, v in sorted(self.net.items())},
            "ok": self.ok,
        }


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def _listener_from_log(records: List[List[object]]) -> RecordingListener:
    """Rebuild a RecordingListener the oracles can consume from a worker's
    serialized delivery log ([source, seq, ts, digest] per delivery)."""
    lst = RecordingListener()
    none_cid = ConnectionId.none()
    for rec in records:
        lst.on_deliver(Delivery(
            group=GROUP_ID,
            source=int(rec[0]),
            sequence_number=int(rec[1]),
            timestamp=int(rec[2]),
            connection_id=none_cid,
            request_num=0,
            payload=bytes.fromhex(rec[3]),
            delivered_at=0.0,
        ))
    return lst


def _python_env() -> Dict[str, str]:
    """Child env with the package root on PYTHONPATH (src layout)."""
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + existing if existing else "")
    return env


def run_cluster(spec: ClusterSpec) -> ClusterResult:
    """Run one multi-process cluster workload and aggregate the results."""
    if spec.processes < 2:
        raise ValueError("a cluster needs at least 2 processes")
    mode = spec.mode
    if mode == "auto":
        mode = "multicast" if multicast_available() else "loopback"

    pids = list(range(1, spec.processes + 1))
    ports = free_udp_ports(len(pids))
    peers = dict(zip(pids, ports))

    control = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    control.bind(("127.0.0.1", 0))
    control.listen(spec.processes)
    control_port = control.getsockname()[1]
    # one UDP port number per cluster keeps concurrent multicast clusters
    # from cross-talking: reuse the (TCP) control port number
    multicast_port = control_port

    procs: List[subprocess.Popen] = []
    stderr_files = []
    conns: Dict[int, Tuple[socket.socket, object]] = {}
    results: Dict[int, dict] = {}
    worker_errors: List[str] = []
    env = _python_env()
    try:
        for pid in pids:
            wspec = {
                "pid": pid,
                "peers": peers,
                "mode": mode,
                "seed": spec.seed,
                "multicast_port": multicast_port,
                "group_id": GROUP_ID,
                "group_addr": GROUP_ADDR,
                "messages": spec.messages_per_process,
                "payload_size": spec.payload_size,
                "control_port": control_port,
                "config": default_cluster_config(),
                "warmup_timeout": WARMUP_TIMEOUT,
                "run_timeout": spec.run_timeout,
            }
            errf = tempfile.TemporaryFile()
            stderr_files.append(errf)
            p = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.runtime.worker"],
                stdin=subprocess.PIPE,
                stdout=subprocess.DEVNULL,
                stderr=errf,
                env=env,
            )
            p.stdin.write(json.dumps(wspec).encode())
            p.stdin.close()
            procs.append(p)

        # -- handshake barrier ------------------------------------------
        control.settimeout(SPAWN_TIMEOUT)
        for _ in pids:
            s, _addr = control.accept()
            s.settimeout(spec.run_timeout + SPAWN_TIMEOUT)
            f = s.makefile("rwb")
            ready = json.loads(f.readline())
            if ready.get("type") != "ready":
                raise RuntimeError(f"bad handshake from worker: {ready!r}")
            conns[int(ready["pid"])] = (s, f)
        t_start = time.monotonic()
        for s, f in conns.values():
            f.write(b'{"type":"start"}\n')
            f.flush()

        # -- collect results --------------------------------------------
        for pid in sorted(conns):
            _s, f = conns[pid]
            try:
                msg = json.loads(f.readline())
            except (socket.timeout, ValueError, OSError) as exc:
                worker_errors.append(f"worker {pid}: no result ({exc})")
                continue
            if msg.get("type") != "result":
                worker_errors.append(f"worker {pid}: unexpected {msg.get('type')!r}")
                continue
            results[pid] = msg
        wall_s = time.monotonic() - t_start

        # release the workers (they hold retransmission state until now)
        for _s, f in conns.values():
            try:
                f.write(b'{"type":"stop"}\n')
                f.flush()
            except OSError:
                pass
    finally:
        for s, f in conns.values():
            try:
                f.close()
                s.close()
            except OSError:
                pass
        control.close()
        deadline = time.monotonic() + 10.0
        for p in procs:
            try:
                p.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        for p, errf in zip(procs, stderr_files):
            if p.returncode not in (0, None):
                errf.seek(0)
                tail = errf.read()[-2000:].decode(errors="replace").strip()
                worker_errors.append(
                    f"worker exited {p.returncode}" + (f": {tail}" if tail else "")
                )
            errf.close()

    # -- oracle cross-check over the per-process delivery logs ----------
    listeners = {
        pid: _listener_from_log(msg.get("deliveries", []))
        for pid, msg in results.items()
    }
    violations: List[Violation] = []
    if listeners:
        violations += check_total_order(listeners, GROUP_ID)
        violations += check_fifo(listeners, GROUP_ID)
        violations += check_no_duplicates(listeners, GROUP_ID)

    delivered = {pid: int(msg.get("delivered", 0)) for pid, msg in results.items()}
    for pid in pids:
        delivered.setdefault(pid, 0)
    latencies: List[float] = []
    for msg in results.values():
        latencies.extend(msg.get("latencies_ms", []))
    total = sum(delivered.values())
    # transport counters: sum each worker's net.* snapshot entries
    # (high-water marks like rcvbuf occupancy take the max instead)
    net: Dict[str, float] = {}
    for msg in results.values():
        for key, value in msg.get("snapshot", {}).items():
            if not key.startswith("net."):
                continue
            short = key[4:]
            if short.endswith("_max_bytes"):
                net[short] = max(net.get(short, 0), value)
            else:
                net[short] = net.get(short, 0) + value
    return ClusterResult(
        mode=mode,
        processes=spec.processes,
        expected_per_process=spec.messages_per_process * spec.processes,
        delivered=delivered,
        total_delivered=total,
        wall_s=wall_s,
        msgs_s=total / wall_s if wall_s > 0 else 0.0,
        latency_p50_ms=_percentile(latencies, 0.50),
        latency_p99_ms=_percentile(latencies, 0.99),
        violations=[v.as_dict() for v in violations],
        snapshots={pid: msg.get("snapshot", {}) for pid, msg in results.items()},
        worker_errors=worker_errors,
        net=net,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run an FTMP cluster across real OS processes")
    parser.add_argument("--processes", type=int, default=3)
    parser.add_argument("--messages", type=int, default=3400,
                        help="multicasts per process")
    parser.add_argument("--payload-size", type=int, default=64)
    parser.add_argument("--mode", choices=("auto", "loopback", "multicast"),
                        default="auto")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--run-timeout", type=float, default=120.0)
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the machine-readable report here")
    args = parser.parse_args(argv)

    spec = ClusterSpec(
        processes=args.processes,
        messages_per_process=args.messages,
        payload_size=args.payload_size,
        mode=args.mode,
        seed=args.seed,
        run_timeout=args.run_timeout,
    )
    result = run_cluster(spec)

    print(f"cluster: {result.processes} processes, mode={result.mode}")
    print(f"  ordered deliveries: {result.total_delivered} "
          f"(expected {result.expected_per_process} x {result.processes})")
    for pid in sorted(result.delivered):
        print(f"    processor {pid}: {result.delivered[pid]}")
    print(f"  wall time: {result.wall_s:.2f}s  "
          f"throughput: {result.msgs_s:,.0f} ordered msgs/s")
    print(f"  send-to-own-delivery latency: "
          f"p50 {result.latency_p50_ms:.2f} ms, p99 {result.latency_p99_ms:.2f} ms")
    if result.net:
        send_errors = int(result.net.get("tx_send_errors", 0))
        rcvbuf = int(result.net.get("rx_rcvbuf_max_bytes", 0))
        print(f"  net: rcvbuf high-water {rcvbuf} B"
              + (f", {send_errors} send errors" if send_errors else ", no drops"))
    if result.violations:
        print(f"  ORACLE VIOLATIONS ({len(result.violations)}):")
        for v in result.violations[:10]:
            print(f"    {v['oracle']}: {v['detail']}")
    if result.worker_errors:
        print("  worker errors:")
        for e in result.worker_errors:
            print(f"    {e}")
    print(f"  verdict: {'OK' if result.ok else 'FAIL'}")

    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(result.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
