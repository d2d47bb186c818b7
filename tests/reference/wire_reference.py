"""Field-at-a-time specification of the FTMP wire format (paper §3, Figure 2).

The straightforward encoder: every header and body field written one
``struct.pack`` at a time, in the order the paper's format tables list
them.  ``src/repro/core/wire.py`` holds the one production encoder
(fused fast paths for Regular / Heartbeat / AckSummary / BATCH, a layout
table for the nine control bodies); this file shares no code with it
beyond the message classes, the constants and :class:`CodecError`, so
``encode(m) == encode_reference(m)`` (``tests/core/test_wire_property.py``)
is an independent check for all 13 types.  The writer, the body chain
and the BATCH record functions moved here unedited from ``core/wire.py``;
the layouts below restate that module's header and BATCH record formats.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple, Union

from repro.core.constants import HEADER_SIZE, MAGIC, VERSION_MAJOR, VERSION_MINOR
from repro.core.messages import (
    AckSummaryMessage,
    AddProcessorMessage,
    BatchMessage,
    ConnectionId,
    ConnectMessage,
    ConnectRequestMessage,
    FTMPHeader,
    FTMPMessage,
    HeartbeatMessage,
    MembershipMessage,
    MultiGroupCommitMessage,
    MultiGroupProposeMessage,
    RegularMessage,
    RemoveProcessorMessage,
    RetransmitRequestMessage,
    SuspectMessage,
)
from repro.core.wire import CodecError

_FLAG_LITTLE_ENDIAN = 0x01
_FLAG_RETRANSMISSION = 0x02
#: BATCH record marker: the part is stored verbatim, not as a compact record
_REC_VERBATIM = 0x80

_PREFIX = struct.Struct("4sBBBB")  # magic, ver_major, ver_minor, flags, type
#: whole header: prefix + size/source/group/seq/ts/ack
_HDR = {
    True: struct.Struct("<4sBBBBIIIIQQ"),
    False: struct.Struct(">4sBBBBIIIIQQ"),
}
#: compact BATCH part record: flags, type, seq, timestamp, ack, body len
_BATCH_REC = {
    True: struct.Struct("<BBIQQH"),
    False: struct.Struct(">BBIQQH"),
}
#: verbatim BATCH part record: 0x80 marker, full part length
_BATCH_VERBATIM = {
    True: struct.Struct("<BI"),
    False: struct.Struct(">BI"),
}
_U16 = {True: struct.Struct("<H"), False: struct.Struct(">H")}

_Buffer = Union[bytes, bytearray, memoryview]


def _flags_of(h: FTMPHeader) -> int:
    flags = 0
    if h.little_endian:
        flags |= _FLAG_LITTLE_ENDIAN
    if h.retransmission:
        flags |= _FLAG_RETRANSMISSION
    return flags


class _Writer:
    """Endianness-aware append-only byte writer (reference/slow path)."""

    __slots__ = ("_parts", "_e")

    def __init__(self, little_endian: bool):
        self._parts: list = []
        self._e = "<" if little_endian else ">"

    def u8(self, v: int) -> None:
        self._parts.append(struct.pack(self._e + "B", v))

    def u16(self, v: int) -> None:
        self._parts.append(struct.pack(self._e + "H", v))

    def u32(self, v: int) -> None:
        self._parts.append(struct.pack(self._e + "I", v))

    def u64(self, v: int) -> None:
        self._parts.append(struct.pack(self._e + "Q", v))

    def raw(self, b: _Buffer) -> None:
        self._parts.append(b)

    def blob(self, b: bytes) -> None:
        self.u32(len(b))
        self.raw(b)

    def pid_list(self, pids: Tuple[int, ...]) -> None:
        self.u16(len(pids))
        for p in pids:
            self.u32(p)

    def seq_vector(self, vec: Dict[int, int]) -> None:
        self.u16(len(vec))
        for pid in sorted(vec):
            self.u32(pid)
            self.u32(vec[pid])

    def connection_id(self, cid: ConnectionId) -> None:
        self.u32(cid.client_domain)
        self.u32(cid.client_group)
        self.u32(cid.server_domain)
        self.u32(cid.server_group)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


# ----------------------------------------------------------------------
# BATCH part records (the fast encoder's inline eligibility test must
# make exactly this decision)
# ----------------------------------------------------------------------
def _part_record(part: _Buffer, envelope: FTMPHeader,
                 little: bool) -> Optional[Tuple[int, int, int, int, int]]:
    """(flags, type, seq, ts, ack) when ``part`` can be stored compactly.

    A part is compactable when its magic/version/source/group/endianness
    match the envelope (always true for parts the send path coalesces) and
    its body fits the u16 length field; anything else falls back to a
    verbatim record so arbitrary hand-built Batches still round-trip.
    """
    if len(part) < HEADER_SIZE or len(part) - HEADER_SIZE > 0xFFFF:
        return None
    # single unpack: the prefix fields (magic/version/flags/type) are all
    # byte-width and therefore endianness-independent, so the flags check
    # below guards the multi-byte fields before they are trusted
    magic, vmaj, vmin, pflags, ptype, psize, psrc, pgrp, pseq, pts, pack_ts = \
        _HDR[little].unpack_from(part, 0)
    if (
        magic != MAGIC
        or (vmaj, vmin) != (VERSION_MAJOR, VERSION_MINOR)
        or bool(pflags & _FLAG_LITTLE_ENDIAN) != little
        or psize != len(part)
        or psrc != envelope.source
        or pgrp != envelope.group
    ):
        return None
    return (pflags, ptype, pseq, pts, pack_ts)


def _encode_batch_body(msg: BatchMessage, little: bool) -> List[bytes]:
    """Encoded-body chunks of a Batch (count + one record per part)."""
    chunks: List[bytes] = [_U16[little].pack(len(msg.parts))]
    rec = _BATCH_REC[little]
    verbatim = _BATCH_VERBATIM[little]
    h = msg.header
    for part in msg.parts:
        fields = _part_record(part, h, little)
        if fields is not None:
            chunks.append(rec.pack(*fields, len(part) - HEADER_SIZE))
            chunks.append(bytes(part[HEADER_SIZE:]))
        else:
            chunks.append(verbatim.pack(_REC_VERBATIM, len(part)))
            chunks.append(bytes(part))
    return chunks


def encode_reference(msg: FTMPMessage) -> bytes:
    """Field-at-a-time reference encoder (regression oracle).

    Byte-identical to :func:`encode` for every message type; kept so the
    codec property tests can prove the precompiled fast path never drifts
    from the straightforward per-field encoding.
    """
    h = msg.header
    w = _Writer(h.little_endian)
    _encode_body(msg, w)
    body = w.getvalue()

    size = HEADER_SIZE + len(body)
    h.message_size = size

    prefix = _PREFIX.pack(h.magic, h.version[0], h.version[1], _flags_of(h),
                          int(h.message_type))
    e = "<" if h.little_endian else ">"
    rest = struct.pack(
        e + "IIIIQQ",
        size,
        h.source,
        h.group,
        h.sequence_number,
        h.timestamp,
        h.ack_timestamp,
    )
    return prefix + rest + body


def _encode_body(msg: FTMPMessage, w: _Writer) -> None:
    if isinstance(msg, RegularMessage):
        w.connection_id(msg.connection_id)
        w.u64(msg.request_num)
        w.blob(msg.payload)
    elif isinstance(msg, RetransmitRequestMessage):
        w.u32(msg.processor_id)
        w.u32(msg.start_seq)
        w.u32(msg.stop_seq)
    elif isinstance(msg, HeartbeatMessage):
        pass
    elif isinstance(msg, AckSummaryMessage):
        w.u8(msg.kind)
        w.u64(msg.cover_ts)
        w.u64(msg.ack_ts)
        w.u16(len(msg.entries))
        for pid, seq, ts in msg.entries:
            w.u32(pid)
            w.u32(seq)
            w.u64(ts)
    elif isinstance(msg, ConnectRequestMessage):
        w.connection_id(msg.connection_id)
        w.pid_list(msg.processor_ids)
    elif isinstance(msg, ConnectMessage):
        w.connection_id(msg.connection_id)
        w.u32(msg.processor_group_id)
        w.u32(msg.ip_multicast_address)
        w.u64(msg.membership_timestamp)
        w.pid_list(msg.membership)
    elif isinstance(msg, AddProcessorMessage):
        w.u64(msg.membership_timestamp)
        w.pid_list(msg.membership)
        w.seq_vector(msg.sequence_numbers)
        w.u32(msg.new_member)
    elif isinstance(msg, RemoveProcessorMessage):
        w.u32(msg.member_to_remove)
    elif isinstance(msg, SuspectMessage):
        w.u64(msg.membership_timestamp)
        w.pid_list(msg.suspects)
    elif isinstance(msg, MembershipMessage):
        w.u64(msg.membership_timestamp)
        w.pid_list(msg.current_membership)
        w.seq_vector(msg.sequence_numbers)
        w.pid_list(msg.new_membership)
    elif isinstance(msg, MultiGroupProposeMessage):
        w.u64(msg.mg_seq)
        w.u32(msg.conflict_class)
        w.pid_list(msg.groups)
        w.blob(msg.payload)
    elif isinstance(msg, MultiGroupCommitMessage):
        w.u32(msg.origin)
        w.u64(msg.mg_seq)
        w.u64(msg.commit_ts)
    elif isinstance(msg, BatchMessage):
        for chunk in _encode_batch_body(msg, msg.header.little_endian):
            w.raw(chunk)
    else:  # pragma: no cover - exhaustive over FTMPMessage
        raise CodecError(f"unknown message class {type(msg).__name__}")
