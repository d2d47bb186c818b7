"""Network topology / link quality models.

The paper's FTMP runs over IP Multicast on a LAN; §6 notes that synchronized
clocks help "particularly over wide-area networks".  To reproduce both
regimes we model a link between two processors as a latency distribution
plus an independent loss probability.

All latencies are seconds.  Randomness is drawn from a ``random.Random``
owned by the :class:`~repro.simnet.network.Network`, so one seed fixes the
whole run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["LinkModel", "Topology", "lan", "wan", "two_site_wan"]


@dataclass
class LinkModel:
    """Quality of a directed link between two processors.

    ``latency`` is the fixed propagation delay; ``jitter`` adds a uniform
    random component in ``[0, jitter]``; ``loss`` is the independent drop
    probability of each packet on this link; ``duplicate`` is the
    probability that a packet arrives twice (with independently sampled
    delays, so the copies may also be reordered) — real IP multicast can
    duplicate across redundant routes, and the chaos campaign uses it to
    exercise the RMP/GIOP duplicate-suppression paths.
    """

    latency: float = 0.0001
    jitter: float = 0.00002
    loss: float = 0.0
    duplicate: float = 0.0

    def sample_delay(self, rng: random.Random) -> float:
        """Draw the one-way delay for a single packet."""
        if self.jitter <= 0:
            return self.latency
        return self.latency + rng.uniform(0.0, self.jitter)

    def drops(self, rng: random.Random) -> bool:
        """Decide whether a single packet is lost on this link."""
        return self.loss > 0 and rng.random() < self.loss

    def duplicates(self, rng: random.Random) -> bool:
        """Decide whether a single packet is delivered twice."""
        return self.duplicate > 0 and rng.random() < self.duplicate


@dataclass
class Topology:
    """Maps (src, dst) processor pairs to link models.

    ``default`` covers every pair without an explicit override.  Loopback
    (src == dst) uses ``self_delay`` — a sender always receives its own
    multicast (IP multicast loopback), with negligible delay and no loss.

    ``egress_bandwidth`` (bytes/second, ``None`` = infinite) models NIC
    serialization: a sender's packets occupy its egress back-to-back, so
    offered load beyond the bandwidth queues at the sender.  One multicast
    is serialized once (that is multicast's point — it is not N unicasts).
    The sender's own copy never enters that queue: the host clones
    multicast loopback before the device, so it arrives after
    ``self_delay`` however long the backlog.

    ``packet_overhead`` (bytes, default 0) is charged per datagram on top
    of the payload when serializing through the bandwidth-limited egress —
    the UDP/IP/Ethernet framing a real NIC pays per packet (~66 bytes on
    Ethernet).  It is what makes message batching measurable: many small
    datagrams pay the overhead many times, one batch pays it once.

    ``unicast_fanout`` (default False) switches off the hardware-multicast
    assumption: a group send is serialized once *per remote receiver*
    (crashed and partitioned ones included) through the bandwidth-limited
    egress, the no-IP-multicast regime of a routed/WAN deployment.  That
    copy count is the only difference between the two regimes.  Flat
    dissemination then pays O(n) egress per datagram — the regime the
    overlay's O(k) tree routing is measured against in E21.

    ``egress_queue_limit`` (seconds, ``None`` = unbounded) bounds the NIC
    egress queue: a datagram offered while the sender's backlog already
    exceeds the limit is tail-dropped, as a real NIC ring / qdisc drops
    instead of queueing forever.  Only meaningful with
    ``egress_bandwidth``; an unbounded queue turns sustained congestion
    into seconds-stale delivery, which no retransmission protocol can
    outrun — with a bound, the drops feed ordinary NACK recovery.
    """

    default: LinkModel = field(default_factory=LinkModel)
    overrides: Dict[Tuple[int, int], LinkModel] = field(default_factory=dict)
    self_delay: float = 0.000001
    egress_bandwidth: float = None
    packet_overhead: int = 0
    unicast_fanout: bool = False
    egress_queue_limit: float = None

    def link(self, src: int, dst: int) -> LinkModel:
        """The link model used for packets from ``src`` to ``dst``."""
        return self.overrides.get((src, dst), self.default)

    def set_link(self, src: int, dst: int, model: LinkModel, symmetric: bool = True) -> None:
        """Override the link between two processors (both directions by default)."""
        self.overrides[(src, dst)] = model
        if symmetric:
            self.overrides[(dst, src)] = model

    def set_loss(self, loss: float) -> None:
        """Set the loss probability on the default link and every override."""
        self.default.loss = loss
        for m in self.overrides.values():
            m.loss = loss

    def set_jitter(self, jitter: float) -> None:
        """Set the jitter bound on the default link and every override."""
        self.default.jitter = jitter
        for m in self.overrides.values():
            m.jitter = jitter

    def set_duplicate(self, duplicate: float) -> None:
        """Set the duplication probability on the default and every override."""
        self.default.duplicate = duplicate
        for m in self.overrides.values():
            m.duplicate = duplicate


def lan(loss: float = 0.0) -> Topology:
    """A switched-Ethernet style LAN: ~100 us latency, light jitter."""
    return Topology(default=LinkModel(latency=0.0001, jitter=0.00005, loss=loss))


def wan(latency: float = 0.030, jitter: float = 0.010, loss: float = 0.0) -> Topology:
    """A wide-area mesh: every pair separated by ``latency`` (+jitter)."""
    return Topology(default=LinkModel(latency=latency, jitter=jitter, loss=loss))


def two_site_wan(
    site_a: Tuple[int, ...],
    site_b: Tuple[int, ...],
    wan_latency: float = 0.040,
    lan_latency: float = 0.0001,
    loss: float = 0.0,
) -> Topology:
    """Two LAN sites joined by a WAN link (E2 clock-mode experiments).

    Processors within a site see LAN latency; cross-site packets see
    ``wan_latency``.
    """
    topo = Topology(default=LinkModel(latency=lan_latency, jitter=lan_latency / 2, loss=loss))
    wan_link = LinkModel(latency=wan_latency, jitter=wan_latency / 4, loss=loss)
    for a in site_a:
        for b in site_b:
            topo.set_link(a, b, wan_link)
    return topo
