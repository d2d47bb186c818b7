"""Simulated best-effort IP-Multicast network.

This is the substitution for the paper's LAN testbed (DESIGN.md §4): a
:class:`Network` owns a :class:`~repro.simnet.scheduler.Scheduler`, a
:class:`~repro.simnet.topology.Topology` and a seeded RNG, and delivers
multicast datagrams to every processor joined to a group address, subject to
per-link latency, jitter, loss, partitions and crash faults.

Exactly the properties FTMP assumes of IP Multicast hold here:

* best-effort — packets may be dropped, and (when a link configures a
  ``duplicate`` probability) delivered twice; they are never corrupted;
* unordered across sources — per-link jitter can reorder packets;
* loopback — a sender receives its own multicasts;
* open groups — any processor may send to a group it has not joined
  (FTMP's ``ConnectRequest`` relies on this).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Set, Tuple

from ..transport import Endpoint
from .scheduler import Event, Scheduler
from .topology import Topology
from .trace import NetworkTrace

__all__ = ["Network", "SimEndpoint"]

ReceiveCallback = Callable[[bytes], None]


class _Node:
    """Internal per-processor state held by the network."""

    __slots__ = ("pid", "receiver", "crashed", "joined")

    def __init__(self, pid: int):
        self.pid = pid
        self.receiver: Optional[ReceiveCallback] = None
        self.crashed = False
        self.joined: Set[int] = set()


class SimEndpoint(Endpoint):
    """A processor's handle onto the simulated network.

    Protocol stacks are written against the abstract
    :class:`~repro.transport.Endpoint` interface, so the same stack
    runs unmodified over real sockets (``repro.runtime.aio``).
    """

    def __init__(self, network: "Network", pid: int):
        self._net = network
        self._pid = pid
        self._closed = False
        #: events armed through this endpoint and possibly still pending;
        #: pruned lazily, cancelled wholesale on :meth:`close`
        self._timers: list = []

    # -- identity ------------------------------------------------------
    @property
    def processor_id(self) -> int:
        return self._pid

    # -- time / timers -------------------------------------------------
    @property
    def now(self) -> float:
        return self._net.scheduler.now

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> Event:
        if self._closed:
            dead = Event(self._net.scheduler.now + delay, -1, fn, args)
            dead.cancelled = True
            return dead
        ev = self._net.scheduler.schedule(delay, fn, *args)
        if len(self._timers) >= 64:
            # drop events that already fired or were cancelled (detached)
            self._timers = [e for e in self._timers if e._sched is not None]
        self._timers.append(ev)
        return ev

    # -- I/O -------------------------------------------------------------
    def set_receiver(self, cb: ReceiveCallback) -> None:
        self._net._node(self._pid).receiver = cb

    def join(self, group_addr: int) -> None:
        self._net.join(self._pid, group_addr)

    def leave(self, group_addr: int) -> None:
        self._net.leave(self._pid, group_addr)

    def multicast(self, group_addr: int, data: bytes) -> None:
        if self._closed:
            return
        self._net.multicast(self._pid, group_addr, data)

    def random(self) -> random.Random:
        """Shared deterministic RNG (used for NACK-suppression backoff)."""
        return self._net.rng

    def close(self) -> None:
        """Detach: no sends, no receiver callbacks, no timer fires after this."""
        if self._closed:
            return
        self._closed = True
        self._net._node(self._pid).receiver = None
        for ev in self._timers:
            ev.cancel()
        self._timers.clear()


class Network:
    """The simulated multicast fabric shared by all processors in a run."""

    def __init__(
        self,
        topology: Optional[Topology] = None,
        seed: int = 0,
        scheduler: Optional[Scheduler] = None,
        keep_packets: bool = False,
    ):
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.topology = topology if topology is not None else Topology()
        self.rng = random.Random(seed)
        self.trace = NetworkTrace(keep_packets=keep_packets)
        self._nodes: Dict[int, _Node] = {}
        self._groups: Dict[int, Set[int]] = {}
        #: per-group receiver tuple in ascending pid order, rebuilt on
        #: join/leave — the multicast fan-out iterates this instead of a
        #: set, so the receiver order (and therefore the per-receiver RNG
        #: draw order) is deterministic by construction, not by accident
        #: of CPython's set layout
        self._fanout: Dict[int, Tuple[int, ...]] = {}
        self._partition: Optional[Dict[int, int]] = None  # pid -> component id
        #: per-sender egress busy-until time (NIC serialization model)
        self._egress_free: Dict[int, float] = {}
        #: per-sender count of datagram copies serialized onto the wire —
        #: 1 per multicast with hardware fan-out, one per receiver under
        #: ``Topology.unicast_fanout`` (the E21 datagram-cost ground truth)
        self.wire_copies: Dict[int, int] = {}
        #: per-sender count of datagrams tail-dropped at the NIC because
        #: the egress backlog exceeded ``Topology.egress_queue_limit``
        self.egress_drops: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def _node(self, pid: int) -> _Node:
        node = self._nodes.get(pid)
        if node is None:
            node = self._nodes[pid] = _Node(pid)
        return node

    def endpoint(self, pid: int) -> SimEndpoint:
        """Create (or re-create) the endpoint for processor ``pid``."""
        self._node(pid)
        return SimEndpoint(self, pid)

    def crash(self, pid: int) -> None:
        """Crash-fault ``pid``: it neither sends nor receives from now on."""
        self._node(pid).crashed = True

    def recover(self, pid: int) -> None:
        """Undo :meth:`crash` (the processor rejoins with its old state)."""
        self._node(pid).crashed = False

    def is_crashed(self, pid: int) -> bool:
        return self._node(pid).crashed

    # ------------------------------------------------------------------
    # group membership at the IP level
    # ------------------------------------------------------------------
    def join(self, pid: int, group_addr: int) -> None:
        members = self._groups.setdefault(group_addr, set())
        if pid not in members:
            # rebuild the fan-out tuple only when the membership actually
            # changed — a re-join must not invalidate (and re-sort) the
            # fan-out of a group whose receiver set is identical
            members.add(pid)
            self._fanout[group_addr] = tuple(sorted(members))
        self._node(pid).joined.add(group_addr)

    def leave(self, pid: int, group_addr: int) -> None:
        members = self._groups.get(group_addr)
        if members is not None and pid in members:
            members.discard(pid)
            self._fanout[group_addr] = tuple(sorted(members))
        self._node(pid).joined.discard(group_addr)

    def members(self, group_addr: int) -> Set[int]:
        """Processors currently joined to ``group_addr`` (IP-level, not PGMP)."""
        return set(self._groups.get(group_addr, set()))

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def partition(self, *components: Set[int]) -> None:
        """Split the network: packets only flow within a component.

        Processors not named in any component form an implicit extra
        component together.
        """
        mapping: Dict[int, int] = {}
        for idx, comp in enumerate(components):
            for pid in comp:
                mapping[pid] = idx
        self._partition = mapping

    def heal(self) -> None:
        """Remove any partition."""
        self._partition = None

    # ------------------------------------------------------------------
    # datagram delivery
    # ------------------------------------------------------------------
    def multicast(self, src: int, group_addr: int, data: bytes) -> None:
        """Best-effort multicast of ``data`` to every member of ``group_addr``.

        The fan-out shares one ``data`` buffer across every receiver (the
        scheduler events reference it, they never copy it) and hoists the
        per-packet attribute lookups out of the receiver loop — this is
        the single hottest loop of the whole simulator.
        """
        sender = self._node(src)
        if sender.crashed:
            return
        topology = self.topology
        if topology.unicast_fanout:
            self._multicast_unicast(src, group_addr, data)
            return
        # NIC serialization: the packet leaves the sender only when its
        # egress is free; offered load beyond the bandwidth queues here
        egress_delay = 0.0
        bw = topology.egress_bandwidth
        if bw:
            now = self.scheduler.now
            start = max(now, self._egress_free.get(src, 0.0))
            limit = topology.egress_queue_limit
            if limit is not None and start - now > limit:
                # bounded NIC queue: tail-drop instead of queueing forever
                self.egress_drops[src] = self.egress_drops.get(src, 0) + 1
                self.trace.record_send(now, src, group_addr, len(data), 0, 0)
                return
            finish = start + (len(data) + topology.packet_overhead) / bw
            self._egress_free[src] = finish
            egress_delay = finish - now
        self.wire_copies[src] = self.wire_copies.get(src, 0) + 1
        delivered = 0
        dropped = 0
        nodes = self._nodes
        rng = self.rng
        schedule = self.scheduler.schedule
        deliver = self._deliver
        partition = self._partition
        for pid in self._fanout.get(group_addr, ()):  # ascending pid order
            node = nodes[pid]
            if node.crashed or node.receiver is None:
                continue
            if partition is not None and partition.get(src, -1) != partition.get(pid, -1):
                dropped += 1
                continue
            if pid == src:
                delay = topology.self_delay
            else:
                link = topology.link(src, pid)
                if link.drops(rng):
                    dropped += 1
                    continue
                delay = link.sample_delay(rng)
                if link.duplicates(rng):
                    # second copy with its own delay: may arrive before or
                    # after the first (duplication + reordering in one)
                    schedule(
                        egress_delay + link.sample_delay(rng),
                        deliver, pid, data,
                    )
            delivered += 1
            schedule(egress_delay + delay, deliver, pid, data)
        self.trace.record_send(
            self.scheduler.now, src, group_addr, len(data), delivered, dropped
        )

    def _multicast_unicast(self, src: int, group_addr: int, data: bytes) -> None:
        """The no-hardware-multicast regime (``Topology.unicast_fanout``).

        Every receiver costs the sender its own serialized NIC copy, so a
        flat n-member fan-out pays O(n) egress per datagram — the regime
        where the overlay's O(k) tree routing is the honest comparison.
        Copies depart back-to-back (copy *i* waits *i* serialization
        times); the loopback self-copy is free, as on a real host.
        """
        topology = self.topology
        bw = topology.egress_bandwidth
        per_copy = (len(data) + topology.packet_overhead) / bw if bw else 0.0
        now = self.scheduler.now
        free = max(now, self._egress_free.get(src, 0.0))
        limit = topology.egress_queue_limit if bw else None
        delivered = 0
        dropped = 0
        copies = 0
        nodes = self._nodes
        rng = self.rng
        schedule = self.scheduler.schedule
        deliver = self._deliver
        partition = self._partition
        for pid in self._fanout.get(group_addr, ()):  # ascending pid order
            node = nodes[pid]
            if pid == src:
                if node.crashed or node.receiver is None:
                    continue
                delivered += 1
                schedule(topology.self_delay, deliver, pid, data)
                continue
            # a copy is serialized for every remote receiver — crashed or
            # partitioned hosts still cost the sender's NIC
            if limit is not None and free - now > limit:
                # bounded NIC queue: this copy is tail-dropped
                self.egress_drops[src] = self.egress_drops.get(src, 0) + 1
                dropped += 1
                continue
            copies += 1
            free += per_copy
            if node.crashed or node.receiver is None:
                continue
            if partition is not None and partition.get(src, -1) != partition.get(pid, -1):
                dropped += 1
                continue
            egress_delay = free - now
            link = topology.link(src, pid)
            if link.drops(rng):
                dropped += 1
                continue
            delay = link.sample_delay(rng)
            if link.duplicates(rng):
                schedule(egress_delay + link.sample_delay(rng), deliver, pid, data)
            delivered += 1
            schedule(egress_delay + delay, deliver, pid, data)
        if copies:
            self._egress_free[src] = free
            self.wire_copies[src] = self.wire_copies.get(src, 0) + copies
        self.trace.record_send(now, src, group_addr, len(data), delivered, dropped)


    def _deliver(self, pid: int, data: bytes) -> None:
        node = self._nodes.get(pid)
        if node is None or node.crashed or node.receiver is None:
            return
        node.receiver(data)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds."""
        self.scheduler.run_until(self.scheduler.now + duration)
