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
header and body in one ``unpack_from`` (:func:`decode`).  The nine
membership/control bodies are stated once, in ``_CONTROL_LAYOUTS``, and
both directions read that table field by field (25 NACKs per thousand
deliveries at 3 % loss and one RemoveProcessor per leave do not pay for
a precompiled layout each).  This is the only encoder in ``src/``: the
field-at-a-time specification every type must stay byte-identical to is
``tests/reference/wire_reference.py``; codec cost is measured by
``perf/`` (``wire.*_norm_ns``, see ``perf/README.md``).

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
from typing import Dict, Optional, Tuple, Union

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
# control-message bodies — one layout table, read by encode and decode
# ----------------------------------------------------------------------
def _pack_pid_list(e: str, pids: Tuple[int, ...]) -> bytes:
    return struct.pack(f"{e}H{len(pids)}I", len(pids), *pids)


def _pack_seq_vector(e: str, vec: Dict[int, int]) -> bytes:
    pairs = [v for pid in sorted(vec) for v in (pid, vec[pid])]
    return struct.pack(f"{e}H{len(pairs)}I", len(vec), *pairs)


#: field kind -> its encoding under byte order ``e``; the decoding of kind
#: ``k`` is the :class:`_Reader` method of the same name
_PACK = {
    "u32": lambda e, v: _FIELDS[e + "I"].pack(v),
    "u64": lambda e, v: _FIELDS[e + "Q"].pack(v),
    "pid_list": _pack_pid_list,
    "seq_vector": _pack_seq_vector,
    "connection_id": lambda e, cid: struct.pack(
        e + "4I", cid.client_domain, cid.client_group,
        cid.server_domain, cid.server_group),
    "blob": lambda e, b: _FIELDS[e + "I"].pack(len(b)) + b,
}

#: The body of each control message, said once: its fields in wire order
#: (also the order of the class's own fields after ``header``, so decode
#: builds ``cls(header, *values)``), each with its kind.  Regular,
#: Heartbeat, AckSummary and BATCH are not here: they have fused layouts.
_CONTROL_LAYOUTS = {
    RetransmitRequestMessage: (
        ("processor_id", "u32"), ("start_seq", "u32"), ("stop_seq", "u32")),
    ConnectRequestMessage: (
        ("connection_id", "connection_id"), ("processor_ids", "pid_list")),
    ConnectMessage: (
        ("connection_id", "connection_id"), ("processor_group_id", "u32"),
        ("ip_multicast_address", "u32"), ("membership_timestamp", "u64"),
        ("membership", "pid_list")),
    AddProcessorMessage: (
        ("membership_timestamp", "u64"), ("membership", "pid_list"),
        ("sequence_numbers", "seq_vector"), ("new_member", "u32")),
    RemoveProcessorMessage: (("member_to_remove", "u32"),),
    SuspectMessage: (
        ("membership_timestamp", "u64"), ("suspects", "pid_list")),
    MembershipMessage: (
        ("membership_timestamp", "u64"), ("current_membership", "pid_list"),
        ("sequence_numbers", "seq_vector"), ("new_membership", "pid_list")),
    MultiGroupProposeMessage: (
        ("mg_seq", "u64"), ("conflict_class", "u32"), ("groups", "pid_list"),
        ("payload", "blob")),
    MultiGroupCommitMessage: (
        ("origin", "u32"), ("mg_seq", "u64"), ("commit_ts", "u64")),
}
_CONTROL_BY_TYPE = {cls.TYPE: cls for cls in _CONTROL_LAYOUTS}


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
        # ``_part_record(part, h, little) is not None``, the decision of
        # the reference encoder (tests/reference/wire_reference.py), which
        # the codec property tests hold this one to.
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
    layout = _CONTROL_LAYOUTS.get(cls)
    if layout is None:
        raise CodecError(f"unknown message class {cls.__name__}")
    e = "<" if little else ">"
    body = b"".join(_PACK[kind](e, getattr(msg, name)) for name, kind in layout)
    size = HEADER_SIZE + len(body)
    h.message_size = size
    return _HDR[little].pack(
        h.magic, h.version[0], h.version[1], flags, int(h.message_type),
        size, h.source, h.group, h.sequence_number, h.timestamp,
        h.ack_timestamp,
    ) + body


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
                ConnectionId(cd, cg, sd, sg) if cd or cg or sd or sg else _NO_CONNECTION,
                req, bytes(data[_REGULAR_FIXED:_REGULAR_FIXED + plen]))
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
    cls = _CONTROL_BY_TYPE.get(t)
    if cls is None:  # pragma: no cover - the branches above cover the rest
        raise CodecError(f"unhandled message type {t}")
    r = _Reader(data, HEADER_SIZE, little)
    return cls(h, *[getattr(r, kind)() for _name, kind in _CONTROL_LAYOUTS[cls]])


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
        return RegularMessage(
            h, ConnectionId(cd, cg, sd, sg) if cd or cg or sd or sg else _NO_CONNECTION,
            req, mv[start:start + plen])
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
