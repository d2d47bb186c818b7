"""Protocol constants for FTMP (paper §3.2).

The paper fixes ``magic = "FTMP"`` and ``version = 1.0``, and defines nine
message types (Figure 3).  Numeric values for the types are not given in
the paper; we assign them in the order of Figure 3.
"""

from __future__ import annotations

import enum

__all__ = ["MAGIC", "VERSION_MAJOR", "VERSION_MINOR", "HEADER_SIZE", "SHORT_HEADER_SIZE",
           "MessageType"]

MAGIC = b"FTMP"
VERSION_MAJOR = 1
VERSION_MINOR = 0

#: FTMP header length in bytes (see :mod:`repro.core.wire`): the full
#: form, and the short form a datagram takes when its fields fit it.
HEADER_SIZE = 40
SHORT_HEADER_SIZE = 21


class MessageType(enum.IntEnum):
    """The nine FTMP message types of Figure 3, plus the Batch envelope.

    ``BATCH`` is an extension of this reproduction: a transport-level
    envelope packing several small encoded messages into one datagram.
    The receive path unpacks it before RMP ever sees the contents, so the
    protocol layers stay batch-oblivious.

    ``ACK_SUMMARY`` is the overlay-dissemination extension's aggregated
    stability control message: a relay folds its subtree's minimum
    cover/ack timestamps into one compact unreliable message per tree
    edge, replacing the flat O(n) all-member ack observation (§6) with
    an O(depth) aggregation.  Like Heartbeat it is unreliable and its
    header piggybacks the sender's live seq/timestamp/ack values.
    """

    REGULAR = 1
    RETRANSMIT_REQUEST = 2
    HEARTBEAT = 3
    CONNECT_REQUEST = 4
    CONNECT = 5
    ADD_PROCESSOR = 6
    REMOVE_PROCESSOR = 7
    SUSPECT = 8
    MEMBERSHIP = 9
    BATCH = 10
    ACK_SUMMARY = 11
    #: Multi-group atomic multicast (extension): a Propose rides each
    #: addressed group's totally-ordered stream to pick up that group's
    #: Lamport position; a Commit announces the max over all groups.
    #: Both are totally ordered: the commit's own release position (its
    #: header timestamp exceeds the announced commit timestamp, since
    #: the origin's clock ticked between the sends) is the proof that
    #: nothing with a smaller ordering key can still arrive, so the
    #: delivery stage needs no extra stability wait.
    MULTI_GROUP_PROPOSE = 12
    MULTI_GROUP_COMMIT = 13


#: Message types that RMP delivers reliably and in source order (Figure 3).
#: Heartbeat / RetransmitRequest / ConnectRequest are excluded: they are
#: delivered (or consumed) unreliably as they arrive.
RELIABLE_TYPES = frozenset(
    {
        MessageType.REGULAR,
        MessageType.CONNECT,
        MessageType.ADD_PROCESSOR,
        MessageType.REMOVE_PROCESSOR,
        MessageType.SUSPECT,
        MessageType.MEMBERSHIP,
        MessageType.MULTI_GROUP_PROPOSE,
        MessageType.MULTI_GROUP_COMMIT,
    }
)

#: Message types that ROMP additionally delivers in causal + total order
#: (Figure 3).  Suspect and Membership stay source-ordered only — they must
#: keep flowing while total ordering is stalled by a faulty processor.
TOTALLY_ORDERED_TYPES = frozenset(
    {
        MessageType.REGULAR,
        MessageType.CONNECT,
        MessageType.ADD_PROCESSOR,
        MessageType.REMOVE_PROCESSOR,
        MessageType.MULTI_GROUP_PROPOSE,
        MessageType.MULTI_GROUP_COMMIT,
    }
)

#: Resend a §7 handshake message at this period (seconds) until the peer
#: is heard: the client its ConnectRequest until Connect arrives, the
#: server its Connect until it sees traffic from the client over the new
#: connection, a member its AddProcessor to the (unreliable) new member
#: until the new member is heard from.
HANDSHAKE_RESEND_INTERVAL = 0.020

#: Grace period (seconds) granted to a freshly added member before the
#: fault detector may suspect it.
JOIN_GRACE = 0.100
