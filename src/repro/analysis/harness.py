"""Experiment harness: build FTMP clusters and drive scenarios.

Used by the test suite, the benchmarks and the examples.  A
:class:`Cluster` is a simulated network plus one FTMP stack (and one
recording listener) per processor, all sharing one group by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import FTMPConfig, FTMPStack, RecordingListener
from ..simnet import Network, Topology, lan

__all__ = ["Cluster", "make_cluster", "make_multigroup_cluster", "SendRecord",
           "TimedWorkload"]


@dataclass
class Cluster:
    """A simulated network plus one FTMP stack per processor."""

    net: Network
    stacks: Dict[int, FTMPStack]
    listeners: Dict[int, RecordingListener]
    group: int = 1
    #: group id -> the address it listens on (a late joiner needs it)
    addresses: Dict[int, int] = field(default_factory=dict)

    def run_for(self, duration: float) -> None:
        """Advance simulated time."""
        self.net.run_for(duration)

    def multicast(self, pid: int, group: int, payload: bytes) -> None:
        self.stacks[pid].multicast(group, payload)

    def orders(self, group: Optional[int] = None):
        """Per-processor delivered (timestamp, source) sequences."""
        g = group if group is not None else self.group
        return {pid: lst.delivery_order(g) for pid, lst in self.listeners.items()}

    def payload_sets(self, group: Optional[int] = None):
        g = group if group is not None else self.group
        return {pid: lst.payloads(g) for pid, lst in self.listeners.items()}

    def assert_agreement(self, group: Optional[int] = None) -> None:
        """Raise if members disagree on the delivery order (test helper)."""
        orders = list(self.orders(group).values())
        for other in orders[1:]:
            if other != orders[0]:
                raise AssertionError("delivery orders diverge across members")

    # -- unified stats (see repro.core.stats) --------------------------
    def snapshot(self, pid: int) -> Dict[str, float]:
        """One stack's flat dotted-name counter snapshot."""
        return self.stacks[pid].snapshot()

    def aggregate_snapshot(self) -> Dict[str, float]:
        """Sum of every stack's registry snapshot, key by key.

        Cluster-wide totals: ``stack.datagrams_sent`` becomes the number
        of datagrams put on the wire by *any* member, and so on.
        """
        total: Dict[str, float] = {}
        for st in self.stacks.values():
            for key, value in st.snapshot().items():
                total[key] = total.get(key, 0.0) + value
        return total

    def batch_efficiency(self, group: Optional[int] = None) -> Dict[str, float]:
        """Cluster-wide batching / wire-efficiency figures for one group.

        ``datagrams_per_delivery`` is the headline number: datagrams sent
        by all members divided by ordered deliveries observed at all
        members.  Batching should push it down at equal delivered load.
        """
        g = group if group is not None else self.group
        snap = self.aggregate_snapshot()
        deliveries = snap.get(f"group.{g}.romp.ordered_deliveries", 0.0)
        datagrams = snap.get("stack.datagrams_sent", 0.0)
        return {
            "datagrams_sent": datagrams,
            "ordered_deliveries": deliveries,
            "datagrams_per_delivery": datagrams / deliveries if deliveries else 0.0,
            "batches_sent": snap.get(f"group.{g}.batch.batches_sent", 0.0),
            "messages_batched": snap.get(f"group.{g}.batch.messages_batched", 0.0),
        }

    def stop(self) -> None:
        for st in self.stacks.values():
            st.stop()


def make_cluster(
    pids: Tuple[int, ...],
    group: int = 1,
    address: int = 5001,
    topology: Optional[Topology] = None,
    config: Optional[FTMPConfig] = None,
    seed: int = 0,
    create_group: bool = True,
    scheduler=None,
) -> Cluster:
    """Build a cluster of FTMP stacks sharing one group:
    :func:`make_multigroup_cluster` with that one group, or with none
    (``create_group=False``: stacks only)."""
    cluster = make_multigroup_cluster(
        pids, {group: pids} if create_group else {}, topology,
        config if config is not None else FTMPConfig(), seed, scheduler,
        base_address=address - group)
    cluster.group = group
    return cluster


def make_multigroup_cluster(
    pids: Tuple[int, ...],
    groups: Dict[int, Tuple[int, ...]],
    topology: Optional[Topology] = None,
    config: Optional[FTMPConfig] = None,
    seed: int = 0,
    scheduler=None,
    base_address: int = 5000,
) -> Cluster:
    """Build a cluster hosting several (typically overlapping) groups.

    ``groups`` maps group id -> membership; every member bootstraps its
    groups statically (same membership everywhere, as the FT
    infrastructure would).  Group ``gid`` listens on ``base_address +
    gid`` (:attr:`Cluster.addresses`).  The returned cluster's default
    ``group`` is the smallest group id.  ``scheduler`` lets a caller
    supply a pre-built :class:`~repro.simnet.Scheduler` — the chaos
    runner passes one carrying a :class:`~repro.simnet.SchedulePolicy`
    so same-time event orders can be permuted and recorded.
    """
    net = Network(topology if topology is not None else lan(), seed=seed,
                  scheduler=scheduler)
    cfg = config if config is not None else FTMPConfig(ordering="skeen")
    stacks: Dict[int, FTMPStack] = {}
    listeners: Dict[int, RecordingListener] = {}
    for pid in pids:
        lst = RecordingListener()
        stacks[pid] = FTMPStack(net.endpoint(pid), cfg, lst)
        listeners[pid] = lst
    for gid in sorted(groups):
        members = tuple(sorted(groups[gid]))
        for pid in pids:
            if pid in members:
                stacks[pid].create_group(gid, base_address + gid, members)
    return Cluster(net=net, stacks=stacks, listeners=listeners,
                   group=min(groups, default=1),
                   addresses={gid: base_address + gid for gid in groups})


@dataclass
class SendRecord:
    """One workload send, for latency measurement."""

    payload: bytes
    sender: int
    sent_at: float


@dataclass
class TimedWorkload:
    """Schedules sends and computes delivery latencies afterwards.

    Latency of a message = delivery time at a receiver minus send time;
    :meth:`latencies` pools the latency samples across the given receivers.
    """

    cluster: Cluster
    group: int = 1
    sends: List[SendRecord] = field(default_factory=list)
    _counter: int = 0

    def send_at(self, time: float, sender: int, size: int = 32) -> None:
        """Schedule one multicast at absolute simulated ``time``."""
        tag = f"w{self._counter}:{sender}".encode()
        self._counter += 1
        payload = tag + b"." * max(0, size - len(tag))

        def fire() -> None:
            self.sends.append(
                SendRecord(payload, sender, self.cluster.net.scheduler.now)
            )
            self.cluster.stacks[sender].multicast(self.group, payload)

        self.cluster.net.scheduler.at(time, fire)

    def uniform(self, senders: Tuple[int, ...], start: float, stop: float,
                interval: float, size: int = 32) -> None:
        """Each sender multicasts every ``interval`` in [start, stop)."""
        t = start
        i = 0
        while t < stop:
            for s in senders:
                self.send_at(t + i * 1e-6, s, size=size)
                i += 1
            t += interval

    def latencies(self, receivers: Tuple[int, ...]) -> List[float]:
        """Pooled send→ordered-delivery latencies at the given receivers."""
        sent_at = {rec.payload: rec.sent_at for rec in self.sends}
        out: List[float] = []
        for pid in receivers:
            for d in self.cluster.listeners[pid].deliveries:
                if d.group == self.group and d.payload in sent_at:
                    out.append(d.delivered_at - sent_at[d.payload])
        return out

    def delivered_fraction(self, receivers: Tuple[int, ...]) -> float:
        """Fraction of (send, receiver) pairs that were delivered."""
        expected = len(self.sends) * len(receivers)
        if expected == 0:
            return 1.0
        got = sum(
            1
            for pid in receivers
            for d in self.cluster.listeners[pid].deliveries
            if d.group == self.group
        )
        return got / expected
