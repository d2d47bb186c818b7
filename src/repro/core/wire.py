"""Binary codec for FTMP messages (paper §3, Figure 2).

Layout: a header, then a type-specific body.  The first 8 header bytes
(magic, version, flags, type) are endianness-independent so a receiver
can read the byte-order flag and the header form before decoding the
rest — the same trick GIOP uses.  Figure 2 fixes the header's fields,
not their widths, and a datagram takes one of two forms of it.

Full header, 40 B (offsets in bytes)::

    0   magic            4s   b"FTMP"
    4   version major    u8
    5   version minor    u8
    6   flags            u8   bit0 = little endian, bit1 = retransmission,
                              bit2 = connectionless (Regular only),
                              bit3 = short header
    7   message type     u8
    8   message size     u32  (header + body, filled in at encode time)
    12  source processor u32
    16  destination grp  u32
    20  sequence number  u32
    24  message timestamp u64
    32  ack timestamp    u64

Short header, 21 B, flags bit3 set — no size field: the datagram's
length is its size, and a BATCH part's length is in its record::

    8   source processor u16
    10  destination grp  u16
    12  sequence number  u32
    16  message timestamp u32
    20  ack step         u8   timestamp - ack timestamp

:func:`encode` picks the form from the datagram's own fields alone: the
short one when ts < 2**32, 0 <= ts - ack < 256 and source and group are
below 2**16, the full one otherwise.  No state passes from one datagram
to the next, so a lost datagram costs no other its decoding.  Both forms
decode; an ack step past the timestamp is a :class:`CodecError`.  H
below is the header's length, 40 or 21; the body starts there.

Body encodings use length-prefixed collections: ``u16 count`` for
processor lists and sequence-number vectors, ``u32 length`` for payloads.

A standalone Regular takes one of two layouts.  On a §4 logical
connection (a connection id or a request number not zero — GIOP, LLFT
OrderInfos) the body is the fixed prefix, then the payload: H + 28 B +
payload, 68 or 49::

    H       connection id    4 x u32
    H + 16  request number   u64
    H + 24  payload length   u32
    H + 28  payload

Below the ORB (the zero connection id, request number 0) the flags carry
bit2 and the payload follows the header at once: H + payload, its length
the datagram's less H.  :func:`encode` picks the layout from the
fields; the flag on any other type, or a full header's size field that
is not the datagram's length, is a :class:`CodecError`.

Hot-path engineering: Heartbeat, Regular and AckSummary's fixed prefix
encode in a single precompiled :class:`struct.Struct` ``pack`` call per
message and decode with ``unpack_from`` at fixed offsets — no
intermediate slices, no per-field ``struct.pack`` allocations.  Each
layout has a short-header twin built from the same format string; the
four are keyed by the flag bits of byte order and form.  The twin keeps
the size field's place as a zero-width ``0s`` field, so both forms pack
and unpack the same argument list: ``b""`` there in the short form.
Regular and Heartbeat — all but a few datagrams of a running group — decode
header and body in one ``unpack_from`` (:func:`decode`).  The nine
membership/control bodies are stated once, in ``_CONTROL_LAYOUTS``, and
both directions read that table field by field (25 NACKs per thousand
deliveries at 3 % loss and one RemoveProcessor per leave do not pay for
a precompiled layout each).  This is the only encoder in ``src/``: the
field-at-a-time specification every type must stay byte-identical to is
``tests/reference/wire_reference.py``; codec cost is measured by
``perf/`` (``wire.*_norm_ns``, see ``perf/README.md``).

BATCH framing: the send path coalesces only Regulars, one sender's
consecutive first transmissions to one group, and a BATCH holds nothing
else.  Its body stores each part as a record that leaves out what the
envelope header and the previous record already say.  The envelope
header's seq / ts / ack are the first part's (seq - 1, ts, ack) (zeros
when that seq is 0, or the envelope is empty): the header counts as the
record before the first part::

    u16  part count
    then per part, a record (envelope endianness):
        u8   flags   bit0 little endian (the envelope's), bit2 delta,
                     bit3 connection; the other bits clear
        full (without delta):
            u32  seq
            u64  ts
            u64  ack
        delta: seq is the previous record's + 1, and
            u8   ts  - the previous record's ts
            u8   ack - the previous record's ack
        16B  connection id, u64 request number   (with connection only;
                     without it they are the zero id and request 0)
        u16  payload length
        ...  payload

A part is a :class:`~repro.core.messages.RegularMessage` of the
envelope's source, group, byte order, magic and version, without the
retransmission flag (a retransmission re-encodes one retained message
alone, never an envelope), whose payload is at most 0xFFFF bytes and
whose fields fit their record; :func:`encode` writes its record from
those fields and refuses anything else with a :class:`CodecError`.  A
part given as wire bytes is decoded first, and must also be in the
layout and header form :func:`encode` gives its fields (``perf/`` builds
its BATCH that way).  A flags byte opening no record is a
:class:`CodecError` on decode.  The record is a delta record when its
seq is the previous record's + 1 and its ts and ack each exceed the
previous record's by less than 256: a Regular below the ORB then costs
5 B + payload (29 B + payload on a connection) instead of its header (and
body prefix), the first part of an envelope included.  The record does
not say which header form its part would have alone: :func:`decode`
builds each part's message only, its ``message_size`` the length of the
standalone encoding :func:`encode` gives its fields — what a
retransmission of it is, and what retention counts.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple, Union

from .constants import (HEADER_SIZE, MAGIC, SHORT_HEADER_SIZE, VERSION_MAJOR, VERSION_MINOR,
                        MessageType)
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
    "regular_size",
]

_FLAG_LITTLE_ENDIAN = 0x01
_FLAG_RETRANSMISSION = 0x02
#: a Regular without its connection block: the zero connection id and
#: request number 0, the payload right after the header (Regular only)
_FLAG_CONNECTIONLESS = 0x04
#: the 21 B header: no size, u16 source and group, u32 ts, u8 ack step
#: (module docstring)
_FLAG_SHORT = 0x08
#: the flag bits that pick a header layout: byte order and form
_FORM = _FLAG_LITTLE_ENDIAN | _FLAG_SHORT
#: BATCH record flags beside the envelope's byte order: seq is the
#: previous record's + 1 and ts / ack are u8 steps from the previous
#: record's, and the connection id and request number are present
_REC_DELTA = 0x04
_REC_CONNECTION = 0x08

#: Byte offset of the flags field within the endianness-independent prefix
#: (magic ``4s`` + version ``BB`` precede it); the overlay's relay reads
#: it, and ``_TYPE_OFFSET``, off raw datagrams without decoding them
_FLAGS_OFFSET = 6

# ----------------------------------------------------------------------
# precompiled fixed layouts, keyed by ``flags & _FORM``: both byte orders
# ("<" and ">" suppress padding, so these match the field-at-a-time
# encodings) and both header forms, each twin from one format string
# ----------------------------------------------------------------------
#: size, source, group, seq, ts, ack (or ack step) of each header form;
#: the short form has no size field, and its zero-width place packs and
#: unpacks ``b""``
_HEADER_REST = {0: "IIIIQQ", _FLAG_SHORT: "0sHHIIB"}


def _twins(head: str, body: str = "") -> Dict[int, struct.Struct]:
    """``head``, the header's remaining fields and ``body`` as one layout
    per byte order and header form."""
    return {bit | form: struct.Struct(e + head + rest + body)
            for e, bit in (("<", _FLAG_LITTLE_ENDIAN), (">", 0))
            for form, rest in _HEADER_REST.items()}


#: whole header in one call: prefix + size/source/group/seq/ts/ack
_HDR = _twins("4sBBBB")
#: header + Regular body prefix (connection id ×4, request num, payload len)
_HDR_REGULAR = _twins("4sBBBB", "IIIIQI")
#: header + fixed AckSummary body prefix (kind, cover ts, ack ts, entry count)
_HDR_ACK_SUMMARY = _twins("4sBBBB", "BQQH")
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


def _record_layouts(little: bool) -> Tuple[Optional[struct.Struct], ...]:
    """Flags byte -> the fixed fields of the Regular record it opens (the
    flags byte itself, seq / ts / ack or the ts and ack steps, the
    connection id and request number if present, the payload length);
    None for a byte that opens no Regular record in an envelope of this
    endianness."""
    e, endian_bit = ("<", _FLAG_LITTLE_ENDIAN) if little else (">", 0)
    table: list = [None] * 256
    for delta in (0, _REC_DELTA):
        for conn in (0, _REC_CONNECTION):
            table[endian_bit | delta | conn] = struct.Struct(
                e + "B" + ("BB" if delta else "IQQ") + ("IIIIQ" if conn else "") + "H")
    return tuple(table)


_RECORD_LAYOUTS = {True: _record_layouts(True), False: _record_layouts(False)}
#: a record's head on the encode side: flags, the ts and ack steps (a
#: delta record) or seq / ts / ack (a full one), [connection id and
#: request number,] payload length
_DELTA_HEAD = {True: struct.Struct("<BBBH"), False: struct.Struct(">BBBH")}
_DELTA_HEAD_CONNECTION = {True: struct.Struct("<BBBIIIIQH"), False: struct.Struct(">BBBIIIIQH")}
_FULL_HEAD = {True: struct.Struct("<BIQQH"), False: struct.Struct(">BIQQH")}
_FULL_HEAD_CONNECTION = {True: struct.Struct("<BIQQIIIIQH"),
                         False: struct.Struct(">BIQQIIIIQH")}
_U16 = {True: struct.Struct("<H"), False: struct.Struct(">H")}
#: wire value -> MessageType member (``MessageType(x)`` is far slower)
_TYPE_BY_VALUE = {int(t): t for t in MessageType}
#: byte offset of the type field, and the fused decode's two wire values
_TYPE_OFFSET = 7
_REGULAR = int(MessageType.REGULAR)
_HEARTBEAT = int(MessageType.HEARTBEAT)
#: the Regular body's fixed prefix: connection id, request number, payload length
_REGULAR_PREFIX = _REGULAR_BODY[True].size
_VERSION = (VERSION_MAJOR, VERSION_MINOR)
_U64_MAX = 2**64 - 1
#: the all-zero connection id of a Regular below the ORB, shared (the
#: class is frozen) where building it anew would cost more than the
#: rest of the record's decode
_NO_CONNECTION = ConnectionId.none()

_Buffer = Union[bytes, bytearray, memoryview]


class CodecError(Exception):
    """Raised on malformed FTMP datagrams."""


def _form(h: FTMPHeader, body: int,
          flags: int = 0) -> Tuple[int, Union[int, bytes], int]:
    """(flags, size field, last header field) of a datagram with header
    ``h`` and a ``body``-byte body: the short form — no size field
    (``b""``), ack step last — when ts, ts - ack, source and group fit
    it, else the full one (``flags & _FORM`` picks the layout).
    Back-fills ``h.message_size``."""
    if h.little_endian:
        flags |= _FLAG_LITTLE_ENDIAN
    if h.retransmission:
        flags |= _FLAG_RETRANSMISSION
    ts = h.timestamp
    last = ts - h.ack_timestamp
    if ts <= 0xFFFFFFFF and 0 <= last <= 0xFF and h.source <= 0xFFFF and h.group <= 0xFFFF:
        h.message_size = SHORT_HEADER_SIZE + body
        return flags | _FLAG_SHORT, b"", last
    h.message_size = size = HEADER_SIZE + body
    return flags, size, h.ack_timestamp


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
    """Serialize an FTMP message, in the header form its fields fit;
    also back-fills ``header.message_size``."""
    h = msg.header
    little = h.little_endian
    cls = msg.__class__
    if cls is RegularMessage:
        cid = msg.connection_id
        payload = msg.payload
        if not (msg.request_num or cid.client_domain or cid.client_group
                or cid.server_domain or cid.server_group):
            flags, size, last = _form(h, len(payload), _FLAG_CONNECTIONLESS)
            return _HDR[flags & _FORM].pack(
                h.magic, h.version[0], h.version[1], flags, int(h.message_type),
                size, h.source, h.group, h.sequence_number, h.timestamp, last,
            ) + payload
        flags, size, last = _form(h, _REGULAR_PREFIX + len(payload))
        return _HDR_REGULAR[flags & _FORM].pack(
            h.magic, h.version[0], h.version[1], flags, int(h.message_type),
            size, h.source, h.group, h.sequence_number, h.timestamp, last,
            cid.client_domain, cid.client_group, cid.server_domain,
            cid.server_group, msg.request_num, len(payload),
        ) + payload
    if cls is HeartbeatMessage:
        flags, size, last = _form(h, 0)
        return _HDR[flags & _FORM].pack(
            h.magic, h.version[0], h.version[1], flags, int(h.message_type),
            size, h.source, h.group, h.sequence_number, h.timestamp, last,
        )
    if cls is AckSummaryMessage:
        entries = msg.entries
        entry_struct = _ACK_SUMMARY_ENTRY[little]
        flags, size, last = _form(h, 19 + entry_struct.size * len(entries))
        prefix = _HDR_ACK_SUMMARY[flags & _FORM].pack(
            h.magic, h.version[0], h.version[1], flags, int(h.message_type),
            size, h.source, h.group, h.sequence_number, h.timestamp, last,
            msg.kind, msg.cover_ts, msg.ack_ts, len(entries),
        )
        if not entries:
            return prefix
        pack = entry_struct.pack
        return prefix + b"".join(pack(pid, seq, ts) for pid, seq, ts in entries)
    if cls is BatchMessage:
        # A record is one precompiled ``pack`` of its head — flags, seq /
        # ts / ack or the two steps, a connection part's connection id and
        # request number — straight from the part's fields, and the
        # payload, assembled by one join.  The refusal and delta tests
        # are exactly those of ``_message_fields`` / ``_regular_record``
        # in the reference encoder (tests/reference/wire_reference.py),
        # which the codec property tests hold this one to.
        source, group = h.source, h.group
        delta_head = _DELTA_HEAD[little].pack
        delta_head_connection = _DELTA_HEAD_CONNECTION[little].pack
        full_head = _FULL_HEAD[little].pack
        full_head_connection = _FULL_HEAD_CONNECTION[little].pack
        rflags = _FLAG_LITTLE_ENDIAN if little else 0
        chunks = [b"", b""]  # back-filled below: header, part count
        extend = chunks.extend
        # the previous record's seq / ts / ack; None before the first
        # part, which sets the header's (the record before it)
        prev_seq = prev_ts = prev_ack = None
        h.sequence_number = h.timestamp = h.ack_timestamp = 0
        try:
            for part in msg.parts:
                if part.__class__ is not RegularMessage:
                    part = _part_message(part)
                ph = part.header
                ack = ph.ack_timestamp
                if (ph.source != source or ph.group != group or ph.little_endian != little
                        or ph.retransmission or ack < 0
                        or ph.message_type is not MessageType.REGULAR
                        or ph.magic != MAGIC or ph.version != _VERSION):
                    raise _refused()
                seq, ts = ph.sequence_number, ph.timestamp
                if prev_seq is None:
                    prev_seq, prev_ts, prev_ack = (seq - 1, ts, ack) if seq else (0, 0, 0)
                    h.sequence_number, h.timestamp, h.ack_timestamp = prev_seq, prev_ts, prev_ack
                delta = (seq == prev_seq + 1 and 0 <= (dts := ts - prev_ts) < 256
                         and 0 <= (dack := ack - prev_ack) < 256)
                # a full record's fields are bounded by their pack, a
                # delta record's by this
                if delta and (seq > 0xFFFFFFFF or ts > _U64_MAX or ack > _U64_MAX):
                    raise _refused()
                payload = part.payload
                cid = part.connection_id
                req = part.request_num
                if not req and (cid is _NO_CONNECTION or cid == _NO_CONNECTION):
                    if delta:
                        extend((delta_head(rflags | _REC_DELTA, dts, dack, len(payload)),
                                payload))
                    else:
                        extend((full_head(rflags, seq, ts, ack, len(payload)), payload))
                elif delta:
                    extend((delta_head_connection(
                        rflags | _REC_DELTA | _REC_CONNECTION, dts, dack, cid.client_domain,
                        cid.client_group, cid.server_domain, cid.server_group, req,
                        len(payload)), payload))
                else:
                    extend((full_head_connection(
                        rflags | _REC_CONNECTION, seq, ts, ack, cid.client_domain,
                        cid.client_group, cid.server_domain, cid.server_group, req,
                        len(payload)), payload))
                prev_seq, prev_ts, prev_ack = seq, ts, ack
            chunks[1] = _U16[little].pack(len(msg.parts))
            chunks[0] = _packed_header(h, sum(map(len, chunks)))
        except struct.error:
            # a field past its width: a seq, timestamp, connection id,
            # request number or payload length
            raise _refused() from None
        return b"".join(chunks)
    layout = _CONTROL_LAYOUTS.get(cls)
    if layout is None:
        raise CodecError(f"unknown message class {cls.__name__}")
    e = "<" if little else ">"
    body = b"".join(_PACK[kind](e, getattr(msg, name)) for name, kind in layout)
    return _packed_header(h, len(body)) + body


def _packed_header(h: FTMPHeader, body: int) -> bytes:
    """The header alone, in the form :func:`_form` picks."""
    flags, size, last = _form(h, body)
    return _HDR[flags & _FORM].pack(
        h.magic, h.version[0], h.version[1], flags, int(h.message_type),
        size, h.source, h.group, h.sequence_number, h.timestamp, last,
    )


def _refused() -> CodecError:
    return CodecError("a BATCH part must be a first-transmission Regular of the "
                      "envelope's source, group and byte order, as encode gives it")


def _part_message(part: _Buffer) -> RegularMessage:
    """A BATCH part given as wire bytes: its message, when the bytes are
    a Regular in the layout and header form :func:`encode` gives its
    fields (no other flag bit, no zero connection block, no byte past
    the payload: each of them lengthens the datagram).  :func:`encode`
    then holds the message to every other rule of a part."""
    if (isinstance(part, (bytes, bytearray, memoryview)) and len(part) > _FLAGS_OFFSET
            and not part[_FLAGS_OFFSET] & ~(_FORM | _FLAG_RETRANSMISSION | _FLAG_CONNECTIONLESS)):
        try:
            m = decode(part)
        except CodecError:
            m = None
        if m.__class__ is RegularMessage and regular_size(m) == len(part):
            return m
    raise _refused()


# ----------------------------------------------------------------------
# decoding — precompiled unpack_from, no intermediate slices
# ----------------------------------------------------------------------
def peek_header(data: _Buffer) -> FTMPHeader:
    """Decode only the header, in either form (used by traces and filters).

    Flags bit3 says which form: the short header's ack timestamp is its
    timestamp less the ack step.  A datagram shorter than its form's
    header, or an ack step past the timestamp, is a :class:`CodecError`;
    the size field is the caller's to check (the short form has none:
    the datagram's length is its size)."""
    n = len(data)
    form = data[_FLAGS_OFFSET] & _FORM if n > _FLAGS_OFFSET else 0
    if n < (SHORT_HEADER_SIZE if form & _FLAG_SHORT else HEADER_SIZE):
        raise CodecError(f"datagram shorter than header: {n} bytes")
    magic, vmaj, vmin, flags, mtype, size, source, group, seq, ts, ack = (
        _HDR[form].unpack_from(data, 0)
    )
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    # dict lookup beats the enum's __call__ by an order of magnitude on
    # the per-frame decode path
    message_type = _TYPE_BY_VALUE.get(mtype)
    if message_type is None:
        raise CodecError(f"unknown message type {mtype}")
    if flags & _FLAG_CONNECTIONLESS and mtype != _REGULAR:
        raise CodecError(f"connectionless flag on a {message_type.name} message")
    if form & _FLAG_SHORT:
        if ack > ts:
            raise CodecError(f"ack step {ack} past timestamp {ts}")
        ack = ts - ack
        size = n
    return FTMPHeader(
        message_type=message_type,
        source=source,
        group=group,
        sequence_number=seq,
        timestamp=ts,
        ack_timestamp=ack,
        retransmission=bool(flags & _FLAG_RETRANSMISSION),
        little_endian=bool(form & _FLAG_LITTLE_ENDIAN),
        message_size=size,
        magic=magic,
        version=(vmaj, vmin),
    )


def _decode_batch(h: FTMPHeader, data: _Buffer, little: bool, pos: int) -> BatchMessage:
    """Unpack a Batch envelope whose body starts at ``pos`` into its
    parts' messages, and nothing else: no part's standalone encoding is
    rebuilt.  Each message's ``message_size`` is that encoding's length,
    in the header form :func:`encode` gives its fields.

    One reader over one buffer; the header's seq / ts / ack are the
    record before the first.  A record that cannot be framed (a flags
    byte opening no Regular record, a sequence number carried past
    0xFFFFFFFF or a timestamp past 2**64 - 1, a length past the end)
    raises :class:`CodecError`.  Every message passes the checks
    :func:`decode` makes of a standalone Regular — magic, size, payload
    bound, endianness hold by construction — so ``decode(encode(part))
    == part`` field for field.
    """
    n = len(data)
    if pos + 2 > n:
        raise CodecError("truncated FTMP message body")
    (count,) = _U16[little].unpack_from(data, pos)
    pos += 2
    layouts = _RECORD_LAYOUTS[little]
    source, group = h.source, h.group
    short_ids = source <= 0xFFFF and group <= 0xFFFF
    regular = MessageType.REGULAR
    parts = []
    # the previous record's
    seq, ts, ack = h.sequence_number, h.timestamp, h.ack_timestamp
    for _ in range(count):
        if pos >= n:
            raise CodecError("truncated batch record")
        rflags = data[pos]
        layout = layouts[rflags]
        if layout is None:
            raise CodecError(f"bad batch record flags {rflags:#04x}")
        body = pos + layout.size
        if body > n:
            raise CodecError("truncated batch record")
        connection = rflags & _REC_CONNECTION
        delta = rflags & _REC_DELTA
        if delta:
            seq += 1
            if connection:
                _f, dts, dack, cd, cg, sd, sg, req, plen = layout.unpack_from(data, pos)
            else:
                _f, dts, dack, plen = layout.unpack_from(data, pos)
                cd = cg = sd = sg = req = 0
            ts += dts
            ack += dack
        elif connection:
            _f, seq, ts, ack, cd, cg, sd, sg, req, plen = layout.unpack_from(data, pos)
        else:
            _f, seq, ts, ack, plen = layout.unpack_from(data, pos)
            cd = cg = sd = sg = req = 0
        pos = body + plen
        if pos > n:
            raise CodecError("truncated batch part")
        # only a delta record's steps can carry a field past its width
        if delta and (seq > 0xFFFFFFFF or ts > _U64_MAX or ack > _U64_MAX):
            raise CodecError("batch record sequence number past 0xFFFFFFFF"
                             if seq > 0xFFFFFFFF else
                             "batch record timestamp past 2**64 - 1")
        # the standalone length: the header form encode gives these fields
        size = plen + (_REGULAR_PREFIX if connection else 0) + (
            SHORT_HEADER_SIZE if ts <= 0xFFFFFFFF and 0 <= ts - ack <= 0xFF and short_ids
            else HEADER_SIZE)
        parts.append(RegularMessage(
            FTMPHeader(regular, source, group, seq, ts, ack, False, little, size,
                       MAGIC, _VERSION),
            ConnectionId(cd, cg, sd, sg) if cd or cg or sd or sg else _NO_CONNECTION,
            req, bytes(data[body:pos])))
    return BatchMessage(h, tuple(parts))


def decode(data: _Buffer) -> FTMPMessage:
    """Deserialize a full FTMP message (header + body), in either header form.

    A well-formed Regular or Heartbeat is decoded by one ``unpack_from``
    over header and body together.  The fused branches make the general
    path's checks (magic, size field, payload bound, ack step) on the
    values they unpacked and return only when all hold; anything else —
    truncated, wrong size, bad magic, flipped endianness or form flag —
    falls through to the general path below, which names the failure.
    """
    n = len(data)
    if n >= SHORT_HEADER_SIZE:
        flags = data[_FLAGS_OFFSET]
        form = flags & _FORM
        little = bool(flags & _FLAG_LITTLE_ENDIAN)
        hs = SHORT_HEADER_SIZE if form & _FLAG_SHORT else HEADER_SIZE
        wire_type = data[_TYPE_OFFSET]
        if wire_type == _REGULAR:
            if flags & _FLAG_CONNECTIONLESS:
                if n >= hs:
                    magic, vmaj, vmin, flags, _t, size, source, group, seq, ts, ack = (
                        _HDR[form].unpack_from(data, 0))
                    if form & _FLAG_SHORT:
                        ack = ts - ack
                        size = n
                    if magic == MAGIC and size == n and ack >= 0:
                        return RegularMessage(
                            FTMPHeader(MessageType.REGULAR, source, group, seq, ts, ack,
                                       bool(flags & _FLAG_RETRANSMISSION), little, size,
                                       magic, (vmaj, vmin)),
                            _NO_CONNECTION, 0, bytes(data[hs:n]))
            elif n >= (start := hs + _REGULAR_PREFIX):
                (magic, vmaj, vmin, flags, _t, size, source, group, seq, ts, ack,
                 cd, cg, sd, sg, req, plen) = _HDR_REGULAR[form].unpack_from(data, 0)
                if form & _FLAG_SHORT:
                    ack = ts - ack
                    size = n
                if magic == MAGIC and size == n and start + plen <= n and ack >= 0:
                    return RegularMessage(
                        FTMPHeader(MessageType.REGULAR, source, group, seq, ts, ack,
                                   bool(flags & _FLAG_RETRANSMISSION), little, size,
                                   magic, (vmaj, vmin)),
                        ConnectionId(cd, cg, sd, sg) if cd or cg or sd or sg else _NO_CONNECTION,
                        req, bytes(data[start:start + plen]))
        elif wire_type == _HEARTBEAT and n == hs:
            magic, vmaj, vmin, flags, _t, size, source, group, seq, ts, ack = (
                _HDR[form].unpack_from(data, 0))
            if form & _FLAG_SHORT:
                ack = ts - ack
                size = n
            if magic == MAGIC and size == n and not flags & _FLAG_CONNECTIONLESS and ack >= 0:
                return HeartbeatMessage(
                    FTMPHeader(MessageType.HEARTBEAT, source, group, seq, ts, ack,
                               bool(flags & _FLAG_RETRANSMISSION), little, size,
                               magic, (vmaj, vmin)))
    h = peek_header(data)
    if h.message_size != n:
        raise CodecError(f"size field {h.message_size} != datagram length {n}")
    little = h.little_endian
    start = SHORT_HEADER_SIZE if data[_FLAGS_OFFSET] & _FLAG_SHORT else HEADER_SIZE
    t = h.message_type
    if t == MessageType.REGULAR:
        # magic, size field and ack step hold, yet the fused branch did
        # not return: the fixed body prefix or its payload is cut short
        raise CodecError("truncated payload" if n >= start + _REGULAR_PREFIX
                         else "truncated FTMP message body")
    if t == MessageType.HEARTBEAT:
        return HeartbeatMessage(h)  # trailing bytes its size covers
    if t == MessageType.ACK_SUMMARY:
        body = _ACK_SUMMARY_BODY[little]
        entry_struct = _ACK_SUMMARY_ENTRY[little]
        try:
            kind, cover_ts, ack_ts, count = body.unpack_from(data, start)
            pos = start + body.size
            unpack = entry_struct.unpack_from
            entries = tuple(
                unpack(data, pos + i * entry_struct.size) for i in range(count)
            )
        except struct.error as exc:
            raise CodecError("truncated FTMP message body") from exc
        return AckSummaryMessage(h, kind, cover_ts, ack_ts, entries)
    if t == MessageType.BATCH:
        return _decode_batch(h, data, little, start)
    cls = _CONTROL_BY_TYPE.get(t)
    if cls is None:  # pragma: no cover - the branches above cover the rest
        raise CodecError(f"unhandled message type {t}")
    r = _Reader(data, start, little)
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
        start = SHORT_HEADER_SIZE if mv[_FLAGS_OFFSET] & _FLAG_SHORT else HEADER_SIZE
        if mv[_FLAGS_OFFSET] & _FLAG_CONNECTIONLESS:
            return RegularMessage(h, _NO_CONNECTION, 0, mv[start:])
        s = _REGULAR_BODY[h.little_endian]
        try:
            cd, cg, sd, sg, req, plen = s.unpack_from(mv, start)
        except struct.error as exc:
            raise CodecError("truncated FTMP message body") from exc
        start += s.size
        if start + plen > len(mv):
            raise CodecError("truncated payload")
        return RegularMessage(
            h, ConnectionId(cd, cg, sd, sg) if cd or cg or sd or sg else _NO_CONNECTION,
            req, mv[start:start + plen])
    return decode(mv)


def regular_size(msg: RegularMessage) -> int:
    """The length of ``msg``'s standalone encoding, in the layout and
    header form :func:`encode` gives its fields, without encoding it;
    back-filled into ``header.message_size`` as :func:`encode` does."""
    cid = msg.connection_id
    body = len(msg.payload)
    if (msg.request_num or cid.client_domain or cid.client_group
            or cid.server_domain or cid.server_group):
        body += _REGULAR_PREFIX
    _form(msg.header, body)
    return msg.header.message_size

