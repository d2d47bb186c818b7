"""Field-at-a-time specification of the FTMP wire format (paper §3, Figure 2).

The straightforward encoder: every header and body field written one
``struct.pack`` at a time, in the order the paper's format tables list
them.  ``src/repro/core/wire.py`` holds the one production encoder
(fused fast paths for Regular / Heartbeat / AckSummary / BATCH, a layout
table for the nine control bodies); this file shares no code with it
beyond the message classes, the constants and :class:`CodecError`, so
``encode(m) == encode_reference(m)`` (``tests/core/test_wire_property.py``)
is an independent check for all 13 types.  The writer and the body
chain moved here unedited from ``core/wire.py``; the BATCH Regular record
is written field by field below, where the fast encoder packs each
part's fields into one precompiled record head.  A part is a
:class:`RegularMessage` (:func:`_message_fields`) or, the form ``perf/``
builds, its wire bytes (:func:`_regular_fields`).  The header's form is
chosen by :func:`_fits_short`, the rule stated once here: the fast
encoder and the BATCH decode inline it.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple, Union

from repro.core.constants import (
    HEADER_SIZE,
    MAGIC,
    SHORT_HEADER_SIZE,
    VERSION_MAJOR,
    VERSION_MINOR,
    MessageType,
)
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
#: a Regular on no connection (the zero connection id, request number 0)
#: leaves its connection block out: header, then payload
_FLAG_CONNECTIONLESS = 0x04
#: the 21 B header: no size field, u16 source and group, u32 timestamp,
#: u8 ack step (ts - ack)
_FLAG_SHORT = 0x08
#: BATCH record flags beside the byte order's (above): a delta record
#: (seq the previous record's + 1, ts and ack as u8 steps from the
#: previous record's), and the connection id and request number are
#: present
_REC_DELTA = 0x04
_REC_CONNECTION = 0x08
#: the largest payload a Regular record's u16 length can state
_RECORD_PAYLOAD_MAX = 0xFFFF
#: a Regular body's fixed prefix: connection id, request number, payload length
_REGULAR_PREFIX = 28
#: what refusing a BATCH part says
_REFUSAL = ("a BATCH part must be a first-transmission Regular of the "
            "envelope's source, group and byte order, as encode gives it")

_PREFIX = struct.Struct("4sBBBB")  # magic, ver_major, ver_minor, flags, type
#: whole header: prefix + size/source/group/seq/ts/ack
_HDR = {
    True: struct.Struct("<4sBBBBIIIIQQ"),
    False: struct.Struct(">4sBBBBIIIIQQ"),
}
#: the short header: prefix + u16 source/group, u32 seq/ts, u8 ack step
_SHORT_HDR = {
    True: struct.Struct("<4sBBBBHHIIB"),
    False: struct.Struct(">4sBBBBHHIIB"),
}
#: Regular body prefix: connection id x4, request number, payload length
_REGULAR_BODY = {
    True: struct.Struct("<IIIIQI"),
    False: struct.Struct(">IIIIQI"),
}

_Buffer = Union[bytes, bytearray, memoryview]


def _flags_of(h: FTMPHeader) -> int:
    flags = 0
    if h.little_endian:
        flags |= _FLAG_LITTLE_ENDIAN
    if h.retransmission:
        flags |= _FLAG_RETRANSMISSION
    return flags


def _fits_short(ts: int, ack: int, source: int, group: int) -> bool:
    """The short header's rule, from the datagram's own fields alone: the
    timestamp fits a u32, the ack lies 0-255 ticks behind it, and source
    and group each fit a u16.  Its length is not a field: the datagram's
    is its size."""
    return ts < 2**32 and 0 <= ts - ack < 256 and source < 2**16 and group < 2**16


def _header_of(data: _Buffer, little: bool) -> Optional[tuple]:
    """(magic, major, minor, flags, type, size, source, group, seq, ts,
    ack, header length) of either header form — the short form's size is
    the datagram's length; None if ``data`` is shorter than its form."""
    if len(data) <= 6:
        return None
    if data[6] & _FLAG_SHORT:
        if len(data) < SHORT_HEADER_SIZE:
            return None
        *prefix, source, group, seq, ts, step = _SHORT_HDR[little].unpack_from(data, 0)
        return (*prefix, len(data), source, group, seq, ts, ts - step, SHORT_HEADER_SIZE)
    if len(data) < HEADER_SIZE:
        return None
    return (*_HDR[little].unpack_from(data, 0), HEADER_SIZE)


def _connectionless(msg: FTMPMessage) -> bool:
    """A Regular below the ORB: it travels without its connection block."""
    return (isinstance(msg, RegularMessage) and msg.connection_id == ConnectionId.none()
            and msg.request_num == 0)


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
# BATCH records (the fast encoder's inline tests must make exactly these
# decisions)
# ----------------------------------------------------------------------
def _regular_fields(part: _Buffer, envelope: FTMPHeader, little: bool) -> tuple:
    """(flags, seq, ts, ack, connection id, request number, payload) of
    ``part``'s record; :class:`CodecError` when it may not be a part.

    A part is a Regular with the envelope's magic, version, source, group
    and endianness, no flag but the endianness, the connectionless and
    the short one (no retransmission: a BATCH carries first
    transmissions), a size field (in the full form) equal to its length,
    a payload the record's u16 length can state, and a header and body
    in the form :func:`encode_reference` gives it: the short header
    exactly when :func:`_fits_short` holds (an ack step past the
    timestamp never does: it does not decode), then the payload alone
    when connectionless, else the fixed prefix — naming a connection, a
    request or both — and the payload.  Then the record's fields encode
    back to it byte for byte.  The flags returned are the endianness the
    record carries.
    """
    refused = CodecError(_REFUSAL)
    header = _header_of(part, little)
    if header is None:
        raise refused
    magic, vmaj, vmin, pflags, ptype, psize, psrc, pgrp, pseq, pts, pack_ts, hlen = header
    if (
        magic != MAGIC
        or (vmaj, vmin) != (VERSION_MAJOR, VERSION_MINOR)
        or pflags & ~(_FLAG_LITTLE_ENDIAN | _FLAG_CONNECTIONLESS | _FLAG_SHORT)
        or bool(pflags & _FLAG_LITTLE_ENDIAN) != little
        or ptype != MessageType.REGULAR
        or psize != len(part)
        or psrc != envelope.source
        or pgrp != envelope.group
        or pack_ts < 0
        or bool(pflags & _FLAG_SHORT) != _fits_short(pts, pack_ts, psrc, pgrp)
    ):
        raise refused
    if pflags & _FLAG_CONNECTIONLESS:
        cid, req, start = ConnectionId.none(), 0, hlen
    else:
        if len(part) < hlen + _REGULAR_PREFIX:
            raise refused
        cd, cg, sd, sg, req, plen = _REGULAR_BODY[little].unpack_from(part, hlen)
        cid, start = ConnectionId(cd, cg, sd, sg), hlen + _REGULAR_PREFIX
        if plen != len(part) - start or (cid == ConnectionId.none() and req == 0):
            raise refused
    if len(part) - start > _RECORD_PAYLOAD_MAX:
        raise refused
    return (pflags & _FLAG_LITTLE_ENDIAN, pseq, pts, pack_ts, cid, req, bytes(part[start:]))


def _message_fields(part: RegularMessage, envelope: FTMPHeader, little: bool) -> tuple:
    """The same for a part given as its message: a Regular with the
    envelope's magic, version, source, group and endianness, not a
    retransmission, whose seq fits a u32, timestamp and ack a u64 (a
    delta record's steps must not carry them past), connection id four
    u32s and request number a u64, and whose payload the record's u16
    length can state.  Its layout and header form are not in question:
    they follow from these fields."""
    if not isinstance(part, RegularMessage):
        raise CodecError(_REFUSAL)
    h = part.header
    cid = part.connection_id
    if (
        h.message_type is not MessageType.REGULAR
        or h.magic != MAGIC
        or h.version != (VERSION_MAJOR, VERSION_MINOR)
        or h.source != envelope.source
        or h.group != envelope.group
        or h.little_endian != little
        or h.retransmission
        or not 0 <= h.sequence_number < 2**32
        or not 0 <= h.timestamp < 2**64
        or not 0 <= h.ack_timestamp < 2**64
        or not all(0 <= v < 2**32 for v in (cid.client_domain, cid.client_group,
                                            cid.server_domain, cid.server_group))
        or not 0 <= part.request_num < 2**64
        or len(part.payload) > _RECORD_PAYLOAD_MAX
    ):
        raise CodecError(_REFUSAL)
    return (_FLAG_LITTLE_ENDIAN if little else 0, h.sequence_number, h.timestamp,
            h.ack_timestamp, cid, part.request_num, bytes(part.payload))


def _regular_record(w: "_Writer", fields: tuple, prev: Tuple[int, int, int]) -> None:
    """One record.  It is a *delta* record when ``prev``, the (seq, ts,
    ack) of the record before it, has a seq one less
    and its ts and ack each exceed ``prev``'s by less than 256: then the
    two steps take a byte each and seq is left out.  Otherwise it is a
    full record, seq / ts / ack in full.  It has a *connection* when the
    connection id or the request number is not zero; without one its
    part is a connectionless Regular."""
    pflags, seq, ts, ack, cid, req, payload = fields
    delta = seq == prev[0] + 1 and 0 <= ts - prev[1] < 256 and 0 <= ack - prev[2] < 256
    connection = cid != ConnectionId.none() or req != 0
    w.u8(pflags | (_REC_DELTA if delta else 0) | (_REC_CONNECTION if connection else 0))
    if delta:
        w.u8(ts - prev[1])
        w.u8(ack - prev[2])
    else:
        w.u32(seq)
        w.u64(ts)
        w.u64(ack)
    if connection:
        w.connection_id(cid)
        w.u64(req)
    w.u16(len(payload))
    w.raw(payload)


def _encode_batch_body(msg: BatchMessage, w: "_Writer") -> None:
    """Part count, then one record per part.  The envelope header counts
    as the record before the first part: it is set to the first part's
    (seq - 1, ts, ack) when that seq is above 0, to zeros otherwise."""
    h = msg.header
    records = [_regular_fields(part, h, h.little_endian)
               if isinstance(part, (bytes, bytearray, memoryview))
               else _message_fields(part, h, h.little_endian) for part in msg.parts]
    if records and records[0][1] > 0:
        _pflags, seq, ts, ack = records[0][:4]
        h.sequence_number, h.timestamp, h.ack_timestamp = seq - 1, ts, ack
    else:
        h.sequence_number = h.timestamp = h.ack_timestamp = 0
    prev = (h.sequence_number, h.timestamp, h.ack_timestamp)
    w.u16(len(msg.parts))
    for fields in records:
        _regular_record(w, fields, prev)
        prev = fields[1:4]


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

    short = _fits_short(h.timestamp, h.ack_timestamp, h.source, h.group)
    size = (SHORT_HEADER_SIZE if short else HEADER_SIZE) + len(body)
    h.message_size = size

    flags = (_flags_of(h) | (_FLAG_CONNECTIONLESS if _connectionless(msg) else 0)
             | (_FLAG_SHORT if short else 0))
    prefix = _PREFIX.pack(h.magic, h.version[0], h.version[1], flags,
                          int(h.message_type))
    e = "<" if h.little_endian else ">"
    if short:
        rest = struct.pack(
            e + "HHIIB",
            h.source,
            h.group,
            h.sequence_number,
            h.timestamp,
            h.timestamp - h.ack_timestamp,
        )
    else:
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
    if _connectionless(msg):
        w.raw(msg.payload)
    elif isinstance(msg, RegularMessage):
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
        _encode_batch_body(msg, w)
    else:  # pragma: no cover - exhaustive over FTMPMessage
        raise CodecError(f"unknown message class {type(msg).__name__}")
