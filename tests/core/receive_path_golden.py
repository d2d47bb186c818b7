"""Seeded scenarios behind ``test_receive_path_golden.py``, and the script
that records their golden values.

Twelve 5-member simnet runs — active / llft / overlay / multigroup, each
on three scenarios::

    steady   the paper's protocol, every member Poisson 250 msg/s
    lossy    3 % loss + 50 us jitter under the closed-loop datapath
             (adaptive batching + flow control), so batch.* / flow.* move
    churn    member 3 crashes at 1/3, processor 6 joins (ordered) at 2/3

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
from repro.simnet import Network, lan

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden" / "receive_path.json"

MODES: Dict[str, dict] = {
    "active": {},
    "llft": dict(llft_mode=True),
    "overlay": dict(overlay_mode=True, overlay_fanout=2),
    "multigroup": dict(multigroup_mode=True),
}
SCENARIOS = ("steady", "lossy", "churn")
CASES = [(m, s) for m in MODES for s in SCENARIOS]

PIDS = (1, 2, 3, 4, 5)
GROUP, ADDRESS = 1, 5001
#: multigroup mode only: a second group, addressed together with the
#: first by every fourth send of its two never-crashed members
SIDE_GROUP, SIDE_ADDRESS, SIDE_PIDS = 2, 5002, (1, 2, 3)
VICTIM, NEWCOMER = 3, 6
RATE, WINDOW, WARMUP, DRAIN = 250.0, 0.9, 0.1, 0.5
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
        knobs.update(batch_window=0.001, batch_adaptive=True, flow_control_window=24)
    if scenario == "churn":
        knobs.update(suspect_timeout=0.060)
    return FTMPConfig(**knobs)


def observe(mode: str, scenario: str) -> dict:
    """Run one case to quiescence and return everything the test compares."""
    seed = 9000 + 10 * list(MODES).index(mode) + SCENARIOS.index(scenario)
    net = Network(lan(loss=0.03 if scenario == "lossy" else 0.0), seed=seed)
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
        if mode == "multigroup" and pid in SIDE_PIDS[:2] and index % 4 == 0:
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
            t += rng.expovariate(RATE)
            if t >= WINDOW:
                break
            # the join hang tests/integration/test_join_under_load.py pins:
            # keep sends clear of the AddProcessor
            if scenario == "churn" and abs(t - 2 * WINDOW / 3) < 0.005:
                continue
            sched.at(WARMUP + t, send, p, index)
            index += 1
    if scenario == "churn":
        sched.at(WARMUP + WINDOW / 3, crash)
        sched.at(WARMUP + 2 * WINDOW / 3, join)
    net.run_for(WARMUP + WINDOW + DRAIN)

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
        print(f"{case:<18} deliveries {got['deliveries']} datagrams {got['datagrams']}")


if __name__ == "__main__":
    main()
