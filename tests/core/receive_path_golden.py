"""Seeded scenarios behind ``test_receive_path_golden.py``, and the script
that records their golden values.

Twenty 5-member simnet runs — active / llft / overlay / multigroup, each
on five scenarios::

    steady      the paper's protocol, every member Poisson 250 msg/s
    lossy       3 % loss + 50 us jitter under the closed-loop datapath
                (adaptive batching + flow control), so batch.* / flow.* move
                — but at 250 msg/s the adaptive window bypasses: no member
                receives a BATCH datagram
    churn       member 3 crashes at 1/3, processor 6 joins (ordered) at 2/3
    saturate    1.5 x the egress knee (10,500 msg/s per member against a
                1 MB/s NIC) through a fixed 1 ms window and flow control,
                2 % loss so gaps break the batched runs and credit-queued
                sends are released by stability advances in mid-batch
    batchchurn  ``churn`` at 4,000 msg/s per member with the adaptive
                2 ms window engaged: the crash, the §7.2 drain and the
                ordered join happen between and inside BATCH datagrams,
                and bypassed single messages alternate with batches

:data:`BATCHED` names the scenarios whose deliveries must mostly arrive
in BATCH datagrams; the test asserts that from the ``batch.*`` counters.

For each run :func:`observe` returns the per-member delivery-order hash,
the ``rmp.* / romp.* / send.* / batch.* / flow.* / pgmp.* /
fault_detector.*`` (and, per mode, ``llft.* / overlay.* / multigroup.*``)
``snapshot()`` counters of every member and the ``net.trace`` datagram /
byte totals.
A pure refactor of the receive path must leave every one of them equal.

Record (on the commit whose behaviour is the reference)::

    PYTHONPATH=src python tests/core/receive_path_golden.py

which rewrites ``tests/data/golden/receive_path.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from pathlib import Path
from typing import Dict, Tuple

from repro.core import FTMPConfig, FTMPStack, Listener
from repro.simnet import Network, Topology, lan

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden" / "receive_path.json"

MODES: Dict[str, dict] = {
    "active": {},
    "llft": dict(ordering="leader"),
    "overlay": dict(dissemination="tree", overlay_fanout=2),
    "multigroup": dict(ordering="skeen"),
}
SCENARIOS = ("steady", "lossy", "churn", "saturate", "batchchurn")
#: scenarios that exist to pin BATCH reception
BATCHED = ("saturate", "batchchurn")
#: scenarios with the crash and the ordered join
CHURNED = ("churn", "batchchurn")
CASES = [(m, s) for m in MODES for s in SCENARIOS]

PIDS = (1, 2, 3, 4, 5)
GROUP, ADDRESS = 1, 5001
#: multigroup mode only: a second group, addressed together with the
#: first by every fourth send of its two never-crashed members
SIDE_GROUP, SIDE_ADDRESS, SIDE_PIDS = 2, 5002, (1, 2, 3)
VICTIM, NEWCOMER = 3, 6
WARMUP = 0.1
#: scenario -> (Poisson msg/s per member, send window in s, drain in s);
#: the tree serializes a saturating load once per neighbour, so the
#: credit queues of ``saturate`` take the overlay over a second to empty
LOAD = {"steady": (250.0, 0.9, 0.5), "lossy": (250.0, 0.9, 0.5),
        "churn": (250.0, 0.9, 0.5), "saturate": (10_500.0, 0.06, 1.5),
        "batchchurn": (4_000.0, 0.15, 0.5)}
LOSS = {"lossy": 0.03, "saturate": 0.02}
COUNTED = ("rmp", "romp", "send", "batch", "flow",
           "llft", "overlay", "multigroup", "pgmp", "fault_detector")


class HashingListener(Listener):
    """Folds every delivery, in order, into one digest."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.count = 0

    def on_deliver(self, d) -> None:
        self.count += 1
        self.digest.update(struct.pack(
            "!IIIQQI", d.group, d.source, d.sequence_number, d.timestamp,
            d.request_num, len(d.payload)))
        self.digest.update(bytes(d.payload))


def config(mode: str, scenario: str) -> FTMPConfig:
    knobs = dict(MODES[mode], heartbeat_interval=0.002, suspect_timeout=30.0)
    if scenario == "lossy":
        knobs.update(batch_window=0.001, flow_control_window=24)
    if scenario == "saturate":
        knobs.update(batch_window=0.001, flow_control_window=48)
    if scenario == "batchchurn":
        knobs.update(batch_window=0.002, flow_control_window=48)
    if scenario in CHURNED:
        knobs.update(suspect_timeout=0.060)
    return FTMPConfig(**knobs)


def topology(scenario: str) -> Topology:
    topo = lan(loss=LOSS.get(scenario, 0.0))
    if scenario == "saturate":
        # perf/workloads.py::saturate5's NIC: offered load queues at the
        # sender, so the window fills and the credit queue drains on
        # stability advances in the middle of received batches
        topo.egress_bandwidth, topo.packet_overhead = 1_000_000, 66
    return topo


def observe(mode: str, scenario: str) -> dict:
    """Run one case to quiescence and return everything the test compares."""
    seed = 9000 + 10 * list(MODES).index(mode) + SCENARIOS.index(scenario)
    net = Network(topology(scenario), seed=seed)
    rate, window, drain = LOAD[scenario]
    churn = scenario in CHURNED
    # a propose and its commit are not batchable and flush the window
    side_every = 8 if scenario in BATCHED else 4
    cfg = config(mode, scenario)
    listeners: Dict[int, HashingListener] = {}
    stacks: Dict[int, FTMPStack] = {}

    def add(pid: int) -> FTMPStack:
        listeners[pid] = HashingListener()
        stacks[pid] = FTMPStack(net.endpoint(pid), cfg, listeners[pid])
        return stacks[pid]

    for p in PIDS:
        add(p).create_group(GROUP, ADDRESS, PIDS)
        if mode == "multigroup" and p in SIDE_PIDS:
            stacks[p].create_group(SIDE_GROUP, SIDE_ADDRESS, SIDE_PIDS)
    crashed = set()

    def send(pid: int, index: int) -> None:
        if pid in crashed:
            return
        body = struct.pack("!II", pid, index) + b"\x5a" * 56
        if mode == "multigroup" and pid in SIDE_PIDS[:2] and index % side_every == 0:
            stacks[pid].multicast_groups((GROUP, SIDE_GROUP), body)
        else:
            stacks[pid].multicast(GROUP, body, request_num=index)

    def crash() -> None:
        crashed.add(VICTIM)
        net.crash(VICTIM)
        stacks[VICTIM].stop()

    def join() -> None:
        stacks[PIDS[0]].add_processor(GROUP, NEWCOMER)
        add(NEWCOMER).join_as_new_member(GROUP, ADDRESS)

    sched = net.scheduler
    for p in PIDS:
        rng = random.Random(seed * 1009 + p)
        t, index = 0.0, 0
        while True:
            t += rng.expovariate(rate)
            if t >= window:
                break
            sched.at(WARMUP + t, send, p, index)
            index += 1
    if churn:
        sched.at(WARMUP + window / 3, crash)
        sched.at(WARMUP + 2 * window / 3, join)
    net.run_for(WARMUP + window + drain)

    counters = {}
    for pid, stack in sorted(stacks.items()):
        if pid in crashed:
            continue
        for key, value in stack.snapshot().items():
            parts = key.split(".")
            if parts[0] == "group" and parts[2] in COUNTED:
                counters[f"{pid}.{key}"] = value
    result = {
        "deliveries": {str(p): l.count for p, l in sorted(listeners.items())},
        "order_hash": {str(p): l.digest.hexdigest() for p, l in sorted(listeners.items())},
        "counters": counters,
        "datagrams": net.trace.sends,
        "bytes": net.trace.bytes_sent,
    }
    for s in stacks.values():
        s.stop()
    return result


def main() -> None:
    golden = {f"{m}/{s}": observe(m, s) for m, s in CASES}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    # one case per line: a diff names the case that moved
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(case)}: {json.dumps(got, sort_keys=True, separators=(',', ':'))}"
        for case, got in golden.items()) + "\n}\n")
    for case, got in golden.items():
        print(f"{case:<22} deliveries {got['deliveries']} datagrams {got['datagrams']}")


if __name__ == "__main__":
    main()
