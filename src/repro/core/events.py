"""Upcall events emitted by the FTMP stack to the application layer.

The fault-tolerance infrastructure above FTMP (``repro.replication``)
consumes these; tests and experiments record them.  ``Listener`` is the
callback interface; :class:`RecordingListener` is a ready-made collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .messages import ConnectionId

__all__ = [
    "Delivery",
    "ViewChange",
    "FaultReport",
    "ConnectionEvent",
    "Listener",
    "RecordingListener",
]


@dataclass(frozen=True)
class Delivery:
    """One totally-ordered application message delivery (a Regular message)."""

    group: int
    source: int
    sequence_number: int
    timestamp: int
    connection_id: ConnectionId
    request_num: int
    payload: bytes
    delivered_at: float  #: local clock time of delivery
    #: the sender's acknowledgement timestamp when it stamped the message:
    #: it had delivered everything at or below it
    ack_timestamp: int = 0


@dataclass(frozen=True)
class ViewChange:
    """A processor-group membership change became effective."""

    group: int
    membership: Tuple[int, ...]
    view_timestamp: int
    added: Tuple[int, ...]
    removed: Tuple[int, ...]
    reason: str  #: "add" | "remove" | "fault" | "connect" | "bootstrap" | "evicted"
    installed_at: float


@dataclass(frozen=True)
class FaultReport:
    """Conveyed to the FT infrastructure when processors are convicted (§7.2)."""

    group: int
    convicted: Tuple[int, ...]
    reported_at: float


@dataclass(frozen=True)
class ConnectionEvent:
    """A logical connection was established or migrated (§7)."""

    connection_id: ConnectionId
    processor_group: int
    multicast_address: int
    established_at: float
    migrated: bool = False


class Listener:
    """Application callback interface; all methods default to no-ops."""

    def on_deliver(self, delivery: Delivery) -> None:  # noqa: D102
        pass

    def on_view_change(self, view: ViewChange) -> None:  # noqa: D102
        pass

    def on_fault_report(self, report: FaultReport) -> None:  # noqa: D102
        pass

    def on_connection(self, event: ConnectionEvent) -> None:  # noqa: D102
        pass


@dataclass
class RecordingListener(Listener):
    """Collects every upcall; the workhorse of the test suite."""

    deliveries: List[Delivery] = field(default_factory=list)
    views: List[ViewChange] = field(default_factory=list)
    faults: List[FaultReport] = field(default_factory=list)
    connections: List[ConnectionEvent] = field(default_factory=list)
    #: unified upcall log, in upcall order — deliveries and view changes
    #: interleaved exactly as the application observed them (the
    #: virtual-synchrony oracle segments deliveries by view with this)
    events: List[object] = field(default_factory=list)

    def on_deliver(self, delivery: Delivery) -> None:
        self.deliveries.append(delivery)
        self.events.append(delivery)

    def on_view_change(self, view: ViewChange) -> None:
        self.views.append(view)
        self.events.append(view)

    def on_fault_report(self, report: FaultReport) -> None:
        self.faults.append(report)

    def on_connection(self, event: ConnectionEvent) -> None:
        self.connections.append(event)

    # -- convenience accessors used throughout tests --------------------
    def payloads(self, group: Optional[int] = None) -> List[bytes]:
        """Delivered payloads, optionally filtered to one group."""
        return [
            d.payload for d in self.deliveries if group is None or d.group == group
        ]

    def delivery_order(self, group: Optional[int] = None) -> List[Tuple[int, int]]:
        """The (timestamp, source) sequence of deliveries — the total order."""
        return [
            (d.timestamp, d.source)
            for d in self.deliveries
            if group is None or d.group == group
        ]

    def current_membership(self, group: int) -> Optional[Tuple[int, ...]]:
        """Membership from the most recent view change for ``group``."""
        for v in reversed(self.views):
            if v.group == group:
                return v.membership
        return None
