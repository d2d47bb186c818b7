"""FTMP message model (paper §3 and §5–§7).

Every FTMP message is a header (:class:`FTMPHeader`) followed by a
type-specific body.  The header has the same fields whatever its form on
the wire — 40 bytes, or 27 when the timestamp, the ack's distance behind
it and the datagram's length fit the short form.  The dataclasses here mirror the paper's message
format tables field-for-field and name their Figure 3 type as ``TYPE``;
the binary encoding lives in :mod:`repro.core.wire`.

Timestamps are integers (Lamport-clock ticks, or microsecond ticks in
synchronized mode); sequence numbers are per-(source, destination group)
and start at 1; sequence number 0 means "no reliable message sent yet".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

from .constants import MAGIC, VERSION_MAJOR, VERSION_MINOR, MessageType

__all__ = [
    "FTMPHeader",
    "ConnectionId",
    "RegularMessage",
    "BatchMessage",
    "RetransmitRequestMessage",
    "HeartbeatMessage",
    "AckSummaryMessage",
    "ConnectRequestMessage",
    "ConnectMessage",
    "AddProcessorMessage",
    "RemoveProcessorMessage",
    "SuspectMessage",
    "MembershipMessage",
    "MultiGroupProposeMessage",
    "MultiGroupCommitMessage",
    "FTMPMessage",
]


@dataclass(slots=True)
class FTMPHeader:
    """The FTMP message header (paper §3.2).

    ``message_size`` is filled in by the codec at encode time (it covers
    header + payload, as the paper specifies).
    """

    message_type: MessageType
    source: int
    group: int
    sequence_number: int
    timestamp: int
    ack_timestamp: int
    retransmission: bool = False
    little_endian: bool = True
    message_size: int = 0
    magic: bytes = MAGIC
    version: Tuple[int, int] = (VERSION_MAJOR, VERSION_MINOR)


@dataclass(frozen=True, slots=True)
class ConnectionId:
    """Identifier of a logical connection between two object groups (§4).

    Consists of the fault-tolerance-domain id and object-group id of the
    client object group and of the server object group.
    """

    client_domain: int
    client_group: int
    server_domain: int
    server_group: int

    #: Sentinel used in Regular messages that do not belong to a logical
    #: connection (e.g. raw group multicast below the ORB layer).
    @staticmethod
    def none() -> "ConnectionId":
        return _NO_CONNECTION

    def reversed(self) -> "ConnectionId":
        """The same connection as named from the other side."""
        return ConnectionId(
            self.server_domain, self.server_group, self.client_domain, self.client_group
        )


_NO_CONNECTION = ConnectionId(0, 0, 0, 0)


@dataclass(slots=True)
class RegularMessage:
    """Carries one encapsulated GIOP message (§5).

    ``connection_id`` and ``request_num`` identify the invocation for
    duplicate detection among object replicas (§4); ``payload`` is the
    GIOP message bytes (or arbitrary application bytes below the ORB).
    """

    TYPE = MessageType.REGULAR
    header: FTMPHeader
    connection_id: ConnectionId
    request_num: int
    payload: bytes


@dataclass(slots=True)
class RetransmitRequestMessage:
    """Negative acknowledgement for a block of missing messages (§5)."""

    TYPE = MessageType.RETRANSMIT_REQUEST
    header: FTMPHeader
    processor_id: int  #: source whose messages are missing
    start_seq: int
    stop_seq: int


@dataclass(slots=True)
class HeartbeatMessage:
    """Null message carrying current seq / timestamp / ack values (§5)."""

    TYPE = MessageType.HEARTBEAT
    header: FTMPHeader


@dataclass(slots=True)
class ConnectRequestMessage:
    """Client's request for a new logical connection (§7)."""

    TYPE = MessageType.CONNECT_REQUEST
    header: FTMPHeader
    connection_id: ConnectionId
    processor_ids: Tuple[int, ...]  #: processors supporting the client group


@dataclass(slots=True)
class ConnectMessage:
    """Server's response establishing (or migrating) a connection (§7)."""

    TYPE = MessageType.CONNECT
    header: FTMPHeader
    connection_id: ConnectionId
    processor_group_id: int
    ip_multicast_address: int
    membership_timestamp: int
    membership: Tuple[int, ...]


@dataclass(slots=True)
class AddProcessorMessage:
    """Adds a non-faulty processor to a processor group (§7.1)."""

    TYPE = MessageType.ADD_PROCESSOR
    header: FTMPHeader
    membership_timestamp: int
    membership: Tuple[int, ...]
    #: seq number of the most recent *ordered* message from each member,
    #: letting the new member construct the order for later messages.
    sequence_numbers: Dict[int, int]
    new_member: int


@dataclass(slots=True)
class RemoveProcessorMessage:
    """Removes a non-faulty processor from a processor group (§7.1)."""

    TYPE = MessageType.REMOVE_PROCESSOR
    header: FTMPHeader
    member_to_remove: int


@dataclass(slots=True)
class SuspectMessage:
    """Declares processors suspected of being faulty (§7.2)."""

    TYPE = MessageType.SUSPECT
    header: FTMPHeader
    membership_timestamp: int
    suspects: Tuple[int, ...]


@dataclass(slots=True)
class MembershipMessage:
    """Proposes a new membership excluding convicted processors (§7.2).

    ``sequence_numbers[p]`` is the highest seq from ``p`` such that the
    sender has that message *and every smaller-numbered one* — the basis of
    the virtual-synchrony message exchange.
    """

    TYPE = MessageType.MEMBERSHIP
    header: FTMPHeader
    membership_timestamp: int
    current_membership: Tuple[int, ...]
    sequence_numbers: Dict[int, int]
    new_membership: Tuple[int, ...]


@dataclass(slots=True)
class BatchMessage:
    """One sender's Regulars to one group, packed into one datagram.

    A pure transport envelope (extension; not in the paper): ``parts``
    are the packed first transmissions themselves, each with its own
    sequence number, timestamps and retransmission identity.
    :func:`~repro.core.wire.encode` writes each part's record straight
    from its fields; :func:`~repro.core.wire.decode` builds the parts
    and nothing else.  The envelope itself is unreliable and carries no
    ordering information: ``encode`` sets its sequence number and
    timestamps to the first part's (seq - 1, ts, ack), the base of that
    part's record, and the receive path never reads them.
    """

    TYPE = MessageType.BATCH
    header: FTMPHeader
    parts: Tuple[RegularMessage, ...]


@dataclass(slots=True)
class AckSummaryMessage:
    """Aggregated §6 stability along one overlay tree edge (extension).

    ``kind`` distinguishes the two directions of the aggregation:
    ``KIND_UP`` (child → parent) carries the sender's subtree minima —
    ``cover_ts`` is the subtree-minimum *cover* (everything at/below it
    contiguously received by every subtree member), ``ack_ts`` the
    subtree-minimum delivered/acknowledged timestamp.  ``KIND_DOWN``
    (parent → child) carries the complement: the aggregate over the rest
    of the tree as seen from the sender.  Unreliable, like Heartbeat; the
    header piggybacks the sender's live seq/timestamp/ack values so RMP
    gap exposure and ROMP clock advancement work exactly as for
    heartbeats.

    ``entries`` is a per-source progress vector of ``(pid, seq, ts)``
    triples with the claim: *every message from source ``pid`` with
    timestamp <= ``ts`` has sequence number <= ``seq``, and the sender's
    aggregation scope has contiguously received source ``pid`` through
    ``seq``*.  Both halves are global facts about ``pid``'s stream
    (per-source clocks are monotonic and some member really does hold
    the prefix), so cross-node aggregation takes the maximum ``seq``
    and the maximum ``ts`` per source — the entry with the larger
    ``ts`` already bounds every timestamp at/below it by *its* ``seq``,
    which the merged maximum dominates.  A receiver adopts an entry by
    first NACK-recovering up to ``seq`` if it has a gap, then advancing
    its local order timestamp for ``pid`` to ``ts``.  An entry's
    presence is also transitive liveness evidence for ``pid`` (see
    :mod:`repro.core.overlay`).
    """

    KIND_UP = 1
    KIND_DOWN = 2

    TYPE = MessageType.ACK_SUMMARY
    header: FTMPHeader
    kind: int
    cover_ts: int
    ack_ts: int
    #: per-source (pid, seq, ts) progress triples; see class docstring.
    entries: Tuple[Tuple[int, int, int], ...] = ()


@dataclass(slots=True)
class MultiGroupProposeMessage:
    """Phase 1 of multi-group atomic multicast (extension).

    One copy is multicast into each addressed group's totally-ordered
    stream.  The position this message reaches in group ``g``'s total
    order *is* ``g``'s proposed timestamp — identical at every member of
    ``g`` with no extra round.  ``(header.source, mg_seq)`` is the
    message's global identity across all its copies; ``groups`` is the
    full addressed group-set (needed by members spanning several of the
    groups to know when all proposals are in); ``conflict_class`` 0
    means totally ordered, any other value delivers commutatively
    against different classes (Generic Multicast relaxation).
    """

    TYPE = MessageType.MULTI_GROUP_PROPOSE
    header: FTMPHeader
    mg_seq: int
    conflict_class: int
    groups: Tuple[int, ...]
    payload: bytes


@dataclass(slots=True)
class MultiGroupCommitMessage:
    """Phase 2 of multi-group atomic multicast (extension).

    Announces ``commit_ts`` = max of the per-group proposals for the
    multicast identified by ``(origin, mg_seq)``.  Totally ordered like
    the Propose: riding the same stream makes the multi-group delivery
    stage a deterministic function of the group's release sequence (the
    key consistency argument), and since the origin's clock ticked
    between stamping the proposals and stamping this commit, the
    commit's own ordered position already proves that nothing with an
    ordering key below ``commit_ts`` can still arrive.
    """

    TYPE = MessageType.MULTI_GROUP_COMMIT
    header: FTMPHeader
    origin: int
    mg_seq: int
    commit_ts: int


FTMPMessage = Union[
    RegularMessage,
    BatchMessage,
    RetransmitRequestMessage,
    HeartbeatMessage,
    AckSummaryMessage,
    ConnectRequestMessage,
    ConnectMessage,
    AddProcessorMessage,
    RemoveProcessorMessage,
    SuspectMessage,
    MembershipMessage,
    MultiGroupProposeMessage,
    MultiGroupCommitMessage,
]
