"""Binary codec for FTMP messages (paper §3, Figure 2).

Layout: a fixed 40-byte header, then a type-specific body.  The first
8 header bytes (magic, version, flags, type) are endianness-independent so
a receiver can read the byte-order flag before decoding the rest — the
same trick GIOP uses.

Header layout (offsets in bytes)::

    0   magic            4s   b"FTMP"
    4   version major    u8
    5   version minor    u8
    6   flags            u8   bit0 = little endian, bit1 = retransmission
    7   message type     u8
    8   message size     u32  (header + body, filled in at encode time)
    12  source processor u32
    16  destination grp  u32
    20  sequence number  u32
    24  message timestamp u64
    32  ack timestamp    u64

Body encodings use length-prefixed collections: ``u16 count`` for
processor lists and sequence-number vectors, ``u32 length`` for payloads.

Hot-path engineering: Heartbeat, Regular and AckSummary's fixed prefix
encode in a single precompiled :class:`struct.Struct` ``pack`` call per
message and decode with ``unpack_from`` at fixed offsets — no
intermediate slices, no per-field ``struct.pack`` allocations.  Regular
and Heartbeat — all but a few datagrams of a running group — decode
header and body in one ``unpack_from`` (:func:`decode`).  The
field-at-a-time :class:`_Writer` / :class:`_Reader` pair survives for the
membership/control messages (the fixed-layout RetransmitRequest and
RemoveProcessor among them: 25 NACKs per thousand deliveries at 3 % loss
and one RemoveProcessor per leave do not pay for a layout each) and as
the :func:`encode_reference` regression oracle, which must stay
byte-identical to the fast path for every message type.

BATCH framing (compact part records): all parts of a Batch share the
sender's source/group/magic/version with the envelope, so the envelope
body stores one compact record per part instead of each part's full
40-byte header::

    u16  part count
    then per part (compact record, envelope endianness):
        u8   part flags        (bit7 clear)
        u8   part type
        u32  part seq number
        u64  part timestamp
        u64  part ack timestamp
        u16  body length
        ...  body bytes (verbatim)
    or (verbatim record, for parts that do not share the envelope's
    source/group/endianness or exceed the u16 body bound):
        u8   0x80
        u32  part length
        ...  full part encoding

The receiver reconstructs each part's full wire encoding byte-for-byte
(the elided fields come from the envelope header), so retention and
retransmission identity are untouched: a reconstructed part is
indistinguishable from the sender's original encoding.  When every
record is a compact, well-formed Regular — what the send path coalesces —
the same pass also builds each part's message
(:attr:`~repro.core.messages.BatchMessage.decoded`), so the receive
path does not decode what was just packed.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple, Union

from .constants import HEADER_SIZE, MAGIC, VERSION_MAJOR, VERSION_MINOR, MessageType
from .messages import (
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

__all__ = [
    "encode",
    "encode_reference",
    "decode",
    "decode_view",
    "CodecError",
    "peek_header",
    "mark_retransmission",
]

_FLAG_LITTLE_ENDIAN = 0x01
_FLAG_RETRANSMISSION = 0x02
#: Record marker inside a BATCH body: the part is stored verbatim (full
#: encoding) instead of as a compact record.  Lives in the high bit of the
#: record's first byte, which is a flags byte (bits 0-1 used) for compact
#: records — 0x80 can never be a legal part flags value.
_REC_VERBATIM = 0x80

#: Byte offset of the flags field within the endianness-independent prefix
#: (magic ``4s`` + version ``BB`` precede it).  Kept next to the codec so a
#: header-layout change updates the raw-byte helpers in the same place.
_FLAGS_OFFSET = 6

_PREFIX = struct.Struct("4sBBBB")  # magic, ver_major, ver_minor, flags, type

# ----------------------------------------------------------------------
# precompiled fixed layouts, both endiannesses ("<" and ">" suppress
# padding, so these match the historical field-at-a-time encodings)
# ----------------------------------------------------------------------
#: whole header in one call: prefix + size/source/group/seq/ts/ack
_HDR = {
    True: struct.Struct("<4sBBBBIIIIQQ"),
    False: struct.Struct(">4sBBBBIIIIQQ"),
}
#: header + Regular body prefix (connection id ×4, request num, payload len)
_HDR_REGULAR = {
    True: struct.Struct("<4sBBBBIIIIQQIIIIQI"),
    False: struct.Struct(">4sBBBBIIIIQQIIIIQI"),
}
#: header + fixed AckSummary body prefix (kind, cover ts, ack ts, entry count)
_HDR_ACK_SUMMARY = {
    True: struct.Struct("<4sBBBBIIIIQQBQQH"),
    False: struct.Struct(">4sBBBBIIIIQQBQQH"),
}
#: Regular body alone (decode side)
_REGULAR_BODY = {
    True: struct.Struct("<IIIIQI"),
    False: struct.Struct(">IIIIQI"),
}
#: AckSummary fixed body prefix alone (decode side)
_ACK_SUMMARY_BODY = {
    True: struct.Struct("<BQQH"),
    False: struct.Struct(">BQQH"),
}
#: one AckSummary per-source progress entry (pid, seq, ts)
_ACK_SUMMARY_ENTRY = {
    True: struct.Struct("<IIQ"),
    False: struct.Struct(">IIQ"),
}
#: compact BATCH part record: flags, type, seq, timestamp, ack, body len
_BATCH_REC = {
    True: struct.Struct("<BBIQQH"),
    False: struct.Struct(">BBIQQH"),
}
#: a compact record and the fixed Regular body prefix behind it
#: (connection id x4, request num, payload len), read in one unpack
_BATCH_REC_REGULAR = {
    True: struct.Struct("<BBIQQHIIIIQI"),
    False: struct.Struct(">BBIQQHIIIIQI"),
}
#: verbatim BATCH part record: 0x80 marker, full part length
_BATCH_VERBATIM = {
    True: struct.Struct("<BI"),
    False: struct.Struct(">BI"),
}
_U16 = {True: struct.Struct("<H"), False: struct.Struct(">H")}
_U32 = {True: struct.Struct("<I"), False: struct.Struct(">I")}
#: source + group pair as laid out at header bytes 12:20 (batch fast path)
_SRC_GRP = {True: struct.Struct("<II"), False: struct.Struct(">II")}
#: header bytes 0:6 — magic + version, endianness-independent
_MAGIC_VER = MAGIC + bytes((VERSION_MAJOR, VERSION_MINOR))
#: wire value -> MessageType member (``MessageType(x)`` is far slower)
_TYPE_BY_VALUE = {int(t): t for t in MessageType}
_BATCH_REC_SIZE = _BATCH_REC[True].size
_BATCH_VERBATIM_SIZE = _BATCH_VERBATIM[True].size
#: byte offset of the type field, and the fused decode's two wire values
_TYPE_OFFSET = 7
_REGULAR = int(MessageType.REGULAR)
_HEARTBEAT = int(MessageType.HEARTBEAT)
#: header + fixed Regular body prefix: where a Regular's payload starts
_REGULAR_FIXED = _HDR_REGULAR[True].size
_REGULAR_BODY_FIXED = _REGULAR_FIXED - HEADER_SIZE
_VERSION = (VERSION_MAJOR, VERSION_MINOR)
#: the all-zero connection id of a Regular below the ORB, shared (the
#: class is frozen) where building it anew would cost more than the
#: rest of the record's decode
_NO_CONNECTION = ConnectionId.none()

_Buffer = Union[bytes, bytearray, memoryview]


class CodecError(Exception):
    """Raised on malformed FTMP datagrams."""


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


#: the reader's fixed-width fields, compiled once: byte order + format code
_FIELDS = {e + f: struct.Struct(e + f) for e in "<>" for f in "BHIQ"}


class _Reader:
    """Endianness-aware sequential byte reader with bounds checking."""

    __slots__ = ("_data", "_pos", "_e")

    def __init__(self, data: _Buffer, pos: int, little_endian: bool):
        self._data = data
        self._pos = pos
        self._e = "<" if little_endian else ">"

    def _take(self, fmt: str):
        s = _FIELDS[self._e + fmt]
        end = self._pos + s.size
        if end > len(self._data):
            raise CodecError("truncated FTMP message body")
        (v,) = s.unpack_from(self._data, self._pos)
        self._pos = end
        return v

    def u8(self) -> int:
        return self._take("B")

    def u16(self) -> int:
        return self._take("H")

    def u32(self) -> int:
        return self._take("I")

    def u64(self) -> int:
        return self._take("Q")

    def blob(self) -> bytes:
        n = self.u32()
        end = self._pos + n
        if end > len(self._data):
            raise CodecError("truncated payload")
        b = bytes(self._data[self._pos : end])
        self._pos = end
        return b

    def pid_list(self) -> Tuple[int, ...]:
        n = self.u16()
        return tuple(self.u32() for _ in range(n))

    def seq_vector(self) -> Dict[int, int]:
        n = self.u16()
        return {self.u32(): self.u32() for _ in range(n)}

    def connection_id(self) -> ConnectionId:
        return ConnectionId(self.u32(), self.u32(), self.u32(), self.u32())

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos


# ----------------------------------------------------------------------
# BATCH part records (shared by the fast and reference encoders)
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


# ----------------------------------------------------------------------
# encoding — precompiled fast path
# ----------------------------------------------------------------------
def encode(msg: FTMPMessage) -> bytes:
    """Serialize an FTMP message; also back-fills ``header.message_size``."""
    h = msg.header
    little = h.little_endian
    flags = _flags_of(h)
    cls = msg.__class__
    if cls is RegularMessage:
        size = HEADER_SIZE + 28 + len(msg.payload)
        h.message_size = size
        cid = msg.connection_id
        return _HDR_REGULAR[little].pack(
            h.magic, h.version[0], h.version[1], flags, int(h.message_type),
            size, h.source, h.group, h.sequence_number, h.timestamp,
            h.ack_timestamp,
            cid.client_domain, cid.client_group, cid.server_domain,
            cid.server_group, msg.request_num, len(msg.payload),
        ) + msg.payload
    if cls is HeartbeatMessage:
        h.message_size = HEADER_SIZE
        return _HDR[little].pack(
            h.magic, h.version[0], h.version[1], flags, int(h.message_type),
            HEADER_SIZE, h.source, h.group, h.sequence_number, h.timestamp,
            h.ack_timestamp,
        )
    if cls is AckSummaryMessage:
        entries = msg.entries
        entry_struct = _ACK_SUMMARY_ENTRY[little]
        size = HEADER_SIZE + 19 + entry_struct.size * len(entries)
        h.message_size = size
        prefix = _HDR_ACK_SUMMARY[little].pack(
            h.magic, h.version[0], h.version[1], flags, int(h.message_type),
            size, h.source, h.group, h.sequence_number, h.timestamp,
            h.ack_timestamp, msg.kind, msg.cover_ts, msg.ack_ts, len(entries),
        )
        if not entries:
            return prefix
        pack = entry_struct.pack
        return prefix + b"".join(pack(pid, seq, ts) for pid, seq, ts in entries)
    if cls is BatchMessage:
        # Records emitted as raw header slices, assembled by one join.  A
        # compact record's fields (flags, type, seq, ts, ack) are laid out
        # byte-for-byte inside the part's own header — flags+type at bytes
        # 6:8, seq+ts+ack contiguously at 20:40 — and validation
        # guarantees the part's endianness matches the envelope's, so the
        # record is two slice copies instead of an 11-field unpack +
        # 6-field repack per part.  (A pack_into-into-bytearray variant
        # measured ~2x slower than this slice/join form: bytearray slice
        # assignment costs more than small-slice appends + one C-level
        # join.)  The eligibility test below is exactly equivalent to
        # ``_part_record(part, h, little) is not None`` (the reference
        # encoder's decision), which the codec property tests hold the
        # two encoders to.
        parts = msg.parts
        u16 = _U16[little]
        u32 = _U32[little]
        srcgrp = _SRC_GRP[little].pack(h.source, h.group)
        endian_bit = _FLAG_LITTLE_ENDIAN if little else 0
        verbatim = _BATCH_VERBATIM[little]
        chunks = [b"", b""]  # back-filled below: header, part count
        append = chunks.append
        size = HEADER_SIZE + 2
        for part in parts:
            plen = len(part)
            if (
                HEADER_SIZE <= plen <= HEADER_SIZE + 0xFFFF
                and part[0:6] == _MAGIC_VER
                and (part[6] & _FLAG_LITTLE_ENDIAN) == endian_bit
                and part[12:20] == srcgrp
                and u32.unpack_from(part, 8)[0] == plen
            ):
                append(part[6:8])                     # flags, type
                append(part[20:40])                   # seq, ts, ack
                append(u16.pack(plen - HEADER_SIZE))
                append(part[HEADER_SIZE:])
                size += _BATCH_REC_SIZE - HEADER_SIZE + plen
            else:
                append(verbatim.pack(_REC_VERBATIM, plen))
                append(part if type(part) is bytes else bytes(part))
                size += _BATCH_VERBATIM_SIZE + plen
        h.message_size = size
        chunks[0] = _HDR[little].pack(
            h.magic, h.version[0], h.version[1], flags, int(h.message_type),
            size, h.source, h.group, h.sequence_number, h.timestamp,
            h.ack_timestamp,
        )
        chunks[1] = u16.pack(len(parts))
        return b"".join(chunks)
    # variable-layout membership/control messages: writer path
    w = _Writer(little)
    _encode_body(msg, w)
    body = w.getvalue()
    size = HEADER_SIZE + len(body)
    h.message_size = size
    return _HDR[little].pack(
        h.magic, h.version[0], h.version[1], flags, int(h.message_type),
        size, h.source, h.group, h.sequence_number, h.timestamp,
        h.ack_timestamp,
    ) + body


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


# ----------------------------------------------------------------------
# decoding — precompiled unpack_from, no intermediate slices
# ----------------------------------------------------------------------
def peek_header(data: _Buffer) -> FTMPHeader:
    """Decode only the 40-byte header (used by traces and filters)."""
    if len(data) < HEADER_SIZE:
        raise CodecError(f"datagram shorter than header: {len(data)} bytes")
    flags = data[_FLAGS_OFFSET]
    little = bool(flags & _FLAG_LITTLE_ENDIAN)
    magic, vmaj, vmin, flags, mtype, size, source, group, seq, ts, ack = (
        _HDR[little].unpack_from(data, 0)
    )
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    # dict lookup beats the enum's __call__ by an order of magnitude on
    # the per-frame decode path
    message_type = _TYPE_BY_VALUE.get(mtype)
    if message_type is None:
        raise CodecError(f"unknown message type {mtype}")
    return FTMPHeader(
        message_type=message_type,
        source=source,
        group=group,
        sequence_number=seq,
        timestamp=ts,
        ack_timestamp=ack,
        retransmission=bool(flags & _FLAG_RETRANSMISSION),
        little_endian=little,
        message_size=size,
        magic=magic,
        version=(vmaj, vmin),
    )


def _decode_regular_run(h: FTMPHeader, data: _Buffer, little: bool, count: int,
                        pos: int) -> Optional[BatchMessage]:
    """A Batch whose ``count`` records are all compact Regulars, with each
    part's message built in the pass that reconstructs its bytes.

    Makes exactly the checks :func:`decode` makes on the reconstructed
    part — type, endianness bit equal to the envelope's (the elided
    fields were packed with it), body at least the fixed Regular prefix,
    payload inside the body; magic and size field hold by construction —
    so ``decoded[i] == decode(parts[i])`` field for field.  None as soon
    as one record is anything else (verbatim, another type, malformed,
    truncated): :func:`_decode_batch` then takes the batch from the top,
    and names the failure or leaves the part to the receive path.
    """
    n = len(data)
    fused = _BATCH_REC_REGULAR[little]
    pack_header = _HDR[little].pack
    endian_bit = _FLAG_LITTLE_ENDIAN if little else 0
    source, group = h.source, h.group
    parts = []
    decoded = []
    for _ in range(count):
        if pos + fused.size > n:
            return None
        (pflags, ptype, pseq, pts, pack_ts, blen,
         cd, cg, sd, sg, req, plen) = fused.unpack_from(data, pos)
        body = pos + _BATCH_REC_SIZE
        pos = body + blen
        if (ptype != _REGULAR
                or pflags & (_REC_VERBATIM | _FLAG_LITTLE_ENDIAN) != endian_bit
                or _REGULAR_BODY_FIXED + plen > blen or pos > n):
            return None
        size = HEADER_SIZE + blen
        part = pack_header(MAGIC, VERSION_MAJOR, VERSION_MINOR, pflags, ptype,
                           size, source, group, pseq, pts, pack_ts
                           ) + bytes(data[body:pos])
        parts.append(part)
        decoded.append(RegularMessage(
            FTMPHeader(MessageType.REGULAR, source, group, pseq, pts, pack_ts,
                       bool(pflags & _FLAG_RETRANSMISSION), little, size,
                       MAGIC, _VERSION),
            ConnectionId(cd, cg, sd, sg) if cd or cg or sd or sg else _NO_CONNECTION,
            req, part[_REGULAR_FIXED:_REGULAR_FIXED + plen]))
    return BatchMessage(h, tuple(parts), tuple(decoded))


def _decode_batch(h: FTMPHeader, data: _Buffer, little: bool) -> BatchMessage:
    """Unpack a Batch envelope, reconstructing each part's full encoding.

    Works off a single buffer with offset arithmetic: the only per-part
    allocation is the reconstructed part itself (elided header fields are
    re-packed from the envelope; body bytes are copied once).
    """
    n = len(data)
    pos = HEADER_SIZE
    if pos + 2 > n:
        raise CodecError("truncated FTMP message body")
    (count,) = _U16[little].unpack_from(data, pos)
    pos += 2
    run = _decode_regular_run(h, data, little, count, pos)
    if run is not None:
        return run
    rec = _BATCH_REC[little]
    verbatim = _BATCH_VERBATIM[little]
    hdr = _HDR[little]
    parts = []
    for _ in range(count):
        if pos >= n:
            raise CodecError("truncated batch record")
        if data[pos] & _REC_VERBATIM:
            if pos + verbatim.size > n:
                raise CodecError("truncated batch record")
            _marker, plen = verbatim.unpack_from(data, pos)
            pos += verbatim.size
            if pos + plen > n:
                raise CodecError("truncated batch part")
            parts.append(bytes(data[pos : pos + plen]))
            pos += plen
        else:
            if pos + rec.size > n:
                raise CodecError("truncated batch record")
            pflags, ptype, pseq, pts, pack_ts, blen = rec.unpack_from(data, pos)
            pos += rec.size
            if pos + blen > n:
                raise CodecError("truncated batch part")
            parts.append(
                hdr.pack(MAGIC, VERSION_MAJOR, VERSION_MINOR, pflags, ptype,
                         HEADER_SIZE + blen, h.source, h.group, pseq, pts,
                         pack_ts)
                + bytes(data[pos : pos + blen])
            )
            pos += blen
    return BatchMessage(h, tuple(parts))


def decode(data: _Buffer) -> FTMPMessage:
    """Deserialize a full FTMP message (header + body).

    A well-formed Regular or Heartbeat is decoded by one ``unpack_from``
    over header and body together.  The fused branches make the general
    path's checks (magic, size field, payload bound) on the values they
    unpacked and return only when all hold; anything else — truncated,
    wrong size, bad magic, flipped endianness flag — falls through to
    the general path below, which names the failure.
    """
    n = len(data)
    wire_type = data[_TYPE_OFFSET] if n >= HEADER_SIZE else None
    if wire_type == _REGULAR and n >= _REGULAR_FIXED:
        little = bool(data[_FLAGS_OFFSET] & _FLAG_LITTLE_ENDIAN)
        (magic, vmaj, vmin, flags, _t, size, source, group, seq, ts, ack,
         cd, cg, sd, sg, req, plen) = _HDR_REGULAR[little].unpack_from(data, 0)
        if magic == MAGIC and size == n and _REGULAR_FIXED + plen <= n:
            return RegularMessage(
                FTMPHeader(MessageType.REGULAR, source, group, seq, ts, ack,
                           bool(flags & _FLAG_RETRANSMISSION), little, size,
                           magic, (vmaj, vmin)),
                ConnectionId(cd, cg, sd, sg), req,
                bytes(data[_REGULAR_FIXED:_REGULAR_FIXED + plen]))
    elif wire_type == _HEARTBEAT and n == HEADER_SIZE:
        little = bool(data[_FLAGS_OFFSET] & _FLAG_LITTLE_ENDIAN)
        magic, vmaj, vmin, flags, _t, size, source, group, seq, ts, ack = (
            _HDR[little].unpack_from(data, 0))
        if magic == MAGIC and size == n:
            return HeartbeatMessage(
                FTMPHeader(MessageType.HEARTBEAT, source, group, seq, ts, ack,
                           bool(flags & _FLAG_RETRANSMISSION), little, size,
                           magic, (vmaj, vmin)))
    h = peek_header(data)
    if h.message_size != n:
        raise CodecError(f"size field {h.message_size} != datagram length {n}")
    little = h.little_endian
    t = h.message_type
    if t == MessageType.REGULAR:
        # magic and size field hold, yet the fused branch did not return:
        # the fixed body prefix or the payload it announces is cut short
        raise CodecError("truncated payload" if n >= _REGULAR_FIXED
                         else "truncated FTMP message body")
    if t == MessageType.HEARTBEAT:
        return HeartbeatMessage(h)  # trailing bytes the size field covers
    if t == MessageType.ACK_SUMMARY:
        body = _ACK_SUMMARY_BODY[little]
        entry_struct = _ACK_SUMMARY_ENTRY[little]
        try:
            kind, cover_ts, ack_ts, count = body.unpack_from(data, HEADER_SIZE)
            pos = HEADER_SIZE + body.size
            unpack = entry_struct.unpack_from
            entries = tuple(
                unpack(data, pos + i * entry_struct.size) for i in range(count)
            )
        except struct.error as exc:
            raise CodecError("truncated FTMP message body") from exc
        return AckSummaryMessage(h, kind, cover_ts, ack_ts, entries)
    if t == MessageType.BATCH:
        return _decode_batch(h, data, little)
    r = _Reader(data, HEADER_SIZE, little)
    if t == MessageType.RETRANSMIT_REQUEST:
        return RetransmitRequestMessage(h, r.u32(), r.u32(), r.u32())
    if t == MessageType.REMOVE_PROCESSOR:
        return RemoveProcessorMessage(h, r.u32())
    if t == MessageType.CONNECT_REQUEST:
        return ConnectRequestMessage(h, r.connection_id(), r.pid_list())
    if t == MessageType.CONNECT:
        return ConnectMessage(h, r.connection_id(), r.u32(), r.u32(), r.u64(), r.pid_list())
    if t == MessageType.ADD_PROCESSOR:
        return AddProcessorMessage(h, r.u64(), r.pid_list(), r.seq_vector(), r.u32())
    if t == MessageType.SUSPECT:
        return SuspectMessage(h, r.u64(), r.pid_list())
    if t == MessageType.MEMBERSHIP:
        return MembershipMessage(h, r.u64(), r.pid_list(), r.seq_vector(), r.pid_list())
    if t == MessageType.MULTI_GROUP_PROPOSE:
        return MultiGroupProposeMessage(h, r.u64(), r.u32(), r.pid_list(), r.blob())
    if t == MessageType.MULTI_GROUP_COMMIT:
        return MultiGroupCommitMessage(h, r.u32(), r.u64(), r.u64())
    raise CodecError(f"unhandled message type {t}")  # pragma: no cover


def decode_view(data: _Buffer) -> FTMPMessage:
    """:func:`decode`, but a REGULAR payload is a zero-copy ``memoryview``
    over the caller's buffer instead of a ``bytes`` copy.

    Ring-ingest entry point for the sharded datapath: the record popped
    from a shared-memory ring is already a fresh immutable ``bytes``
    object, so the payload view pins it alive and nothing can mutate it.
    Callers that cannot guarantee buffer immutability/lifetime must use
    :func:`decode`.  Non-REGULAR messages decode identically via
    :func:`decode` — their bodies are unpacked into plain values anyway.
    """
    mv = data if isinstance(data, memoryview) else memoryview(data)
    h = peek_header(mv)
    if h.message_size != len(mv):
        raise CodecError(
            f"size field {h.message_size} != datagram length {len(mv)}"
        )
    if h.message_type == MessageType.REGULAR:
        s = _REGULAR_BODY[h.little_endian]
        try:
            cd, cg, sd, sg, req, plen = s.unpack_from(mv, HEADER_SIZE)
        except struct.error as exc:
            raise CodecError("truncated FTMP message body") from exc
        start = HEADER_SIZE + s.size
        if start + plen > len(mv):
            raise CodecError("truncated payload")
        return RegularMessage(h, ConnectionId(cd, cg, sd, sg), req,
                              mv[start:start + plen])
    return decode(mv)


def mark_retransmission(raw: _Buffer) -> bytes:
    """Copy of an encoded message with the retransmission flag set (§3.2).

    A retransmission is byte-identical to the original message except for
    this one flag, so holders can re-send retained wire bytes without
    re-encoding (and without touching the sender's clock or counters).
    """
    if len(raw) <= _FLAGS_OFFSET:
        raise CodecError(f"datagram shorter than the flags field: {len(raw)} bytes")
    out = bytearray(raw)
    out[_FLAGS_OFFSET] |= _FLAG_RETRANSMISSION
    return bytes(out)
