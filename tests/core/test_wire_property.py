"""Property tests for the FTMP codec (hypothesis).

Two invariants protect the precompiled-``struct.Struct`` fast paths added
for performance:

* **round-trip identity** — ``decode(encode(msg)) == msg`` for randomized
  instances of every message type, in both byte orders;
* **fast path == reference** — ``encode`` (one-pack fast paths) produces
  exactly the bytes of ``tests/reference/wire_reference.py`` (the
  field-at-a-time writer), header form included, and refuses exactly the
  BATCHes it refuses, so the wire format cannot drift between the two
  implementations;
* **fused decode == general path** — the single-``unpack_from`` decode of
  Regular and Heartbeat accepts, rejects and *names the rejection* exactly
  as the header-then-body decode spelled out here does, on truncated and
  corrupted input as well as on valid messages.
"""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    AckSummaryMessage,
    AddProcessorMessage,
    BatchMessage,
    ConnectionId,
    ConnectMessage,
    ConnectRequestMessage,
    FTMPHeader,
    HeartbeatMessage,
    MembershipMessage,
    MessageType,
    MultiGroupCommitMessage,
    MultiGroupProposeMessage,
    RegularMessage,
    RemoveProcessorMessage,
    RetransmitRequestMessage,
    SuspectMessage,
    decode,
    encode,
)
from repro.core.wire import CodecError, peek_header, regular_size
from tests.reference.wire_reference import encode_reference

U16 = st.integers(0, 0xFFFF)
U32 = st.integers(0, 0xFFFFFFFF)
U64 = st.integers(0, 0xFFFFFFFFFFFFFFFF)
#: a source or group: at and around the short header's u16 edge, or
#: anywhere a u32 reaches
IDS = st.sampled_from([0, 0xFFFF, 0x10000]) | U16 | U32
PIDS = st.tuples(*[]) | st.lists(U32, max_size=6).map(tuple)
SEQ_VECTOR = st.dictionaries(U32, U32, max_size=6)
PAYLOAD = st.binary(max_size=256)


#: timestamps at and around the short header's u32 edge, or anywhere
TIMESTAMPS = st.sampled_from([0, 255, 2**32 - 1, 2**32]) | U32 | U64
#: how far an ack lags its timestamp: the short header's u8 step, its
#: edges and just past them (a negative lag is an ack ahead of it)
ACK_LAGS = st.sampled_from([0, 1, 255, 256, -1]) | st.integers(0, 300)


@st.composite
def _stamps(draw):
    """(ts, ack): about half the draws fit the short header."""
    ts = draw(TIMESTAMPS)
    if draw(st.booleans()):
        return ts, draw(U64)
    return ts, min(max(ts - draw(ACK_LAGS), 0), 2**64 - 1)


def _header(mtype: MessageType):
    return st.builds(
        lambda stamps, **kw: FTMPHeader(timestamp=stamps[0], ack_timestamp=stamps[1], **kw),
        _stamps(),
        message_type=st.just(mtype),
        source=IDS,
        group=IDS,
        sequence_number=U32,
        retransmission=st.booleans(),
        little_endian=st.booleans(),
    )


CID_S = st.builds(ConnectionId, U32, U32, U32, U32)

#: below the ORB (the connectionless layout) about one draw in four
REGULAR = st.builds(RegularMessage, _header(MessageType.REGULAR),
                    st.just(ConnectionId.none()) | CID_S, st.just(0) | U64, PAYLOAD)

MESSAGES = st.one_of(
    REGULAR,
    st.builds(RetransmitRequestMessage,
              _header(MessageType.RETRANSMIT_REQUEST), U32, U32, U32),
    st.builds(HeartbeatMessage, _header(MessageType.HEARTBEAT)),
    st.builds(ConnectRequestMessage,
              _header(MessageType.CONNECT_REQUEST), CID_S, PIDS),
    st.builds(ConnectMessage,
              _header(MessageType.CONNECT), CID_S, U32, U32, U64, PIDS),
    st.builds(AddProcessorMessage,
              _header(MessageType.ADD_PROCESSOR), U64, PIDS, SEQ_VECTOR, U32),
    st.builds(RemoveProcessorMessage,
              _header(MessageType.REMOVE_PROCESSOR), U32),
    st.builds(SuspectMessage, _header(MessageType.SUSPECT), U64, PIDS),
    st.builds(MembershipMessage,
              _header(MessageType.MEMBERSHIP), U64, PIDS, SEQ_VECTOR, PIDS),
    st.builds(AckSummaryMessage,
              _header(MessageType.ACK_SUMMARY),
              st.sampled_from([AckSummaryMessage.KIND_UP,
                               AckSummaryMessage.KIND_DOWN]),
              U64, U64,
              st.lists(st.tuples(U32, U32, U64), max_size=6).map(tuple)),
    st.builds(MultiGroupProposeMessage,
              _header(MessageType.MULTI_GROUP_PROPOSE),
              U64, U32, PIDS, PAYLOAD),
    st.builds(MultiGroupCommitMessage,
              _header(MessageType.MULTI_GROUP_COMMIT), U32, U64, U64),
)

# Batch parts are messages, or their wire bytes (the form ``perf/``
# builds).  Random messages are almost never a first-transmission
# Regular of the envelope's source, group and endianness, so such a
# batch exercises the refusal; COALESCED draws what the send path packs
# instead.
BATCHES = st.builds(
    BatchMessage,
    _header(MessageType.BATCH),
    st.lists(st.tuples(MESSAGES, st.booleans()), max_size=4).map(
        lambda drawn: tuple(encode(m) if as_bytes else m for m, as_bytes in drawn)),
)


def _batch(source, group, little, parts):
    return BatchMessage(FTMPHeader(MessageType.BATCH, source, group, 0, 0, 0,
                                   little_endian=little), tuple(parts))


def _coalesced_part(source, group, little, seq, ts, ack, cid=ConnectionId.none(),
                    request_num=0, payload=b"p"):
    """A stamped Regular as the send path windows it: its
    ``message_size`` that of its standalone encoding."""
    msg = RegularMessage(
        FTMPHeader(MessageType.REGULAR, source, group, seq, ts, ack, little_endian=little),
        cid, request_num, payload)
    regular_size(msg)
    return msg


def wire_length(part):
    """A part's standalone length, whichever form it is given in."""
    return part.header.message_size if isinstance(part, RegularMessage) else len(part)


#: how far a part's ts or ack lies past its predecessor's: mostly a
#: delta record's u8 step (the edges included) or one too far
SMALL_STEPS = st.sampled_from([0, 0, 1, 1, 3, 255, 256])


@st.composite
def coalesced(draw):
    """One sender's Regulars to one group, in one byte order, as the send
    path packs them: sequence numbers mostly consecutive (sometimes
    broken, or wrapping past 0xFFFFFFFF), timestamps and acks mostly a
    small step on (sometimes a long one, or wrapping past 2**64 - 1),
    connection ids and request numbers zero or not."""
    source, group, little = draw(IDS), draw(IDS), draw(st.booleans())
    seq = draw(st.sampled_from([0, 1, 0xFFFFFFFE]) | U32)
    ts = draw(st.sampled_from([0, 2**32 - 256, 2**64 - 256]) | U32 | U64)
    # mostly a short step behind ts, so that parts take both header forms
    ack = draw(U64) if draw(st.integers(0, 3)) == 0 else max(ts - draw(SMALL_STEPS), 0)
    parts = []
    for _ in range(draw(st.integers(0, 8))):
        seq = (seq + draw(st.sampled_from([1, 1, 1, 1, 0, 2]))) % 2**32
        # one step in eight lands anywhere: behind the predecessor, too
        ts = (ts + draw(U64 if draw(st.integers(0, 7)) == 0 else SMALL_STEPS)) % 2**64
        ack = (ack + draw(U64 if draw(st.integers(0, 7)) == 0 else SMALL_STEPS)) % 2**64
        cid = draw(st.sampled_from([ConnectionId.none()]) | CID_S)
        parts.append(_coalesced_part(
            source, group, little, seq, ts, ack, cid,
            draw(st.sampled_from([0]) | U64), draw(st.binary(max_size=80))))
    return _batch(source, group, little, parts)


COALESCED = coalesced()
#: delta records below the ORB and on a connection, at both step edges
#: (255) and just past them (256, a full record); a broken sequence, a
#: timestamp that goes back and a sequence number repeated; a wrap past
#: 0xFFFFFFFF and one past 2**64 - 1, which must not be a delta either
DELTAS = _batch(5, 9, True, [
    _coalesced_part(5, 9, True, 7, 100, 50),
    _coalesced_part(5, 9, True, 8, 101, 50),
    _coalesced_part(5, 9, True, 9, 102, 51, ConnectionId(1, 2, 3, 4), 17),
    _coalesced_part(5, 9, True, 10, 357, 51),
    _coalesced_part(5, 9, True, 11, 357, 306),
    _coalesced_part(5, 9, True, 12, 613, 306),
    _coalesced_part(5, 9, True, 13, 613, 562),
    _coalesced_part(5, 9, True, 15, 614, 562),
    _coalesced_part(5, 9, True, 16, 600, 562),
    _coalesced_part(5, 9, True, 16, 615, 562),
    _coalesced_part(5, 9, True, 17, 616, 562),
    _coalesced_part(5, 9, True, 0xFFFFFFFF, 617, 562),
    _coalesced_part(5, 9, True, 0, 618, 562),
    _coalesced_part(5, 9, True, 1, 2**64 - 1, 562),
    _coalesced_part(5, 9, True, 2, 3, 562),
])


def _long_part(source, group, little, seq, ts, ack, payload=b"l"):
    """A Regular below the ORB in the 40 B header whatever its fields:
    decodable, but when they fit the short header not what ``encode``
    emits, so no BATCH holds it."""
    e = "<" if little else ">"
    return struct.pack(e + "4sBBBBIIIIQQ", b"FTMP", 1, 0, int(little) | 0x04, 1,
                       40 + len(payload), source, group, seq, ts, ack) + payload


def _step_past_ts_part(source, group, little, seq, ts, step, payload=b"s"):
    """A short-header Regular whose ack step exceeds its timestamp: it
    does not decode, and no BATCH holds it."""
    e = "<" if little else ">"
    return struct.pack(e + "4sBBBBHHIIB", b"FTMP", 1, 0, int(little) | 0x0C, 1,
                       source, group, seq, ts, step) + payload


#: parts either side of each edge of the short header — ts 2**32 - 1 and
#: 2**32, ack steps 255 and 256, a negative one — each decoded with the
#: standalone length of the form it takes alone
EDGES = _batch(5, 9, False, [
    _coalesced_part(5, 9, False, 7, 2**32 - 2, 2**32 - 2),
    _coalesced_part(5, 9, False, 8, 2**32 - 1, 2**32 - 256),
    _coalesced_part(5, 9, False, 9, 2**32, 2**32 - 255, ConnectionId(1, 2, 3, 4)),
    _coalesced_part(5, 9, False, 10, 2**32, 2**32),
    _coalesced_part(5, 9, False, 11, 2**32 + 1, 2**32 + 1),
    _coalesced_part(5, 9, False, 12, 300, 45),
    _coalesced_part(5, 9, False, 13, 300, 44),
    _coalesced_part(5, 9, False, 14, 300, 301),
    _coalesced_part(5, 9, False, 16, 302, 300),
    _coalesced_part(5, 9, False, 18, 303, 300),
])
#: two Regulars in a header form ``encode`` does not give them: a
#: full-header part whose fields fit the short one, and a short part
#: with its step past its timestamp
OFF_FORM = (_long_part(5, 9, False, 15, 301, 300), _step_past_ts_part(5, 9, False, 17, 3, 4))


def _zero_block_part(source, group, little, seq, ts, ack, payload=b"z"):
    """A Regular below the ORB in the 68 B layout: decodable, never what
    ``encode`` emits, so no BATCH holds it."""
    e = "<" if little else ">"
    return struct.pack(e + "4sBBBBIIIIQQ24xI", b"FTMP", 1, 0, int(little), 1,
                       68 + len(payload), source, group, seq, ts, ack,
                       len(payload)) + payload


#: connectionless parts around a zero-block one
ZERO_BLOCK = _batch(5, 9, False, [
    _coalesced_part(5, 9, False, 7, 100, 50),
    _coalesced_part(5, 9, False, 8, 101, 50),
    _zero_block_part(5, 9, False, 9, 102, 50),
    _coalesced_part(5, 9, False, 10, 103, 50, ConnectionId(1, 2, 3, 4)),
    _coalesced_part(5, 9, False, 11, 104, 50),
])

ALL_MESSAGES = st.one_of(MESSAGES, COALESCED)


def delta_records(batch):
    """How many parts of ``batch`` after its first get a delta record
    (the first gets one whenever its seq > 0)."""
    count, prev = 0, None
    for part in batch.parts:
        h = part.header if isinstance(part, RegularMessage) else peek_header(part)
        cur = (h.sequence_number, h.timestamp, h.ack_timestamp)
        count += (prev is not None and cur[0] == prev[0] + 1
                  and 0 <= cur[1] - prev[1] < 256 and 0 <= cur[2] - prev[2] < 256)
        prev = cur
    return count


@settings(max_examples=300, deadline=None)
@given(ALL_MESSAGES)
@example(DELTAS)
@example(EDGES)
def test_roundtrip_identity(msg):
    raw = encode(msg)  # back-fills header.message_size on msg
    out = decode(raw)
    assert out == msg
    assert out.header.message_size == len(raw)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ALL_MESSAGES, BATCHES))
@example(DELTAS)
@example(ZERO_BLOCK)
@example(EDGES)
def test_fast_path_matches_reference(msg):
    # the same bytes, or both refuse the batch
    assert outcome(encode, msg) == outcome(encode_reference, msg)


@settings(max_examples=200, deadline=None)
@given(COALESCED)
@example(DELTAS)
@example(EDGES)
def test_batch_parts_reconstructed_byte_exact(batch):
    """Unpacked parts must be the original messages field for field, and
    so encode alone byte for byte as the originals do — retention and
    retransmission identity depend on it."""
    out = decode(encode(batch))
    assert out.parts == batch.parts
    assert [encode(p) for p in out.parts] == [encode(p) for p in batch.parts]


@settings(max_examples=300, deadline=None)
@given(COALESCED)
@example(DELTAS)
@example(EDGES)
def test_a_batch_of_messages_is_the_reference_bytes_and_decodes_to_them(batch):
    raw = encode(batch)
    assert raw == encode_reference(batch)
    assert decode(raw).parts == batch.parts
    # the same parts as wire bytes: the same datagram
    assert encode(_batch(batch.header.source, batch.header.group, batch.header.little_endian,
                         [encode(p) for p in batch.parts])) == raw


def test_the_coalesced_strategy_reaches_follow_on_records():
    assert delta_records(DELTAS) == 5  # seqs 8, 9, 10, 11 and 17
    drawn = []

    # derandomized: a threshold over a random draw fails now and then
    # (4 in 60 unseeded runs); this one draw is the same every run
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(COALESCED)
    def draw(batch):
        drawn.append(delta_records(batch))

    draw()
    # about two draws in five hold one past the first part, about 0.8
    # per draw (seen: 0.71-0.90 unseeded, 0.79 here)
    assert sum(1 for n in drawn if n) > len(drawn) // 4
    assert sum(drawn) > len(drawn) // 2


def test_a_zero_block_part_is_refused():
    # every encoded part in the short header (21 B, 49 B on a
    # connection), the zero-block one in the full 68 B layout
    parts = ZERO_BLOCK.parts
    assert [wire_length(p) for p in parts] == [22, 22, 69, 50, 22]
    for encoder in (encode, encode_reference):
        with pytest.raises(CodecError, match="BATCH part"):
            encoder(ZERO_BLOCK)
    # without it: the envelope in the short header, two delta records
    # below the ORB (5 B + 1), a full record on a connection (48 B: its
    # seq skips one), a delta record below the ORB again
    rest = _batch(5, 9, False, parts[:2] + parts[3:])
    raw = encode(rest)
    assert len(raw) == 21 + 2 + 6 + 6 + 48 + 6
    assert decode(raw).parts == rest.parts


def test_each_part_is_rebuilt_in_the_header_form_it_had():
    parts = EDGES.parts
    assert [wire_length(p) for p in parts] == [22, 22, 69, 41, 41, 22, 41, 41, 22, 22]
    raw = encode(EDGES)
    out = decode(raw)
    assert out.parts == parts
    assert [len(encode(p)) for p in out.parts] == [wire_length(p) for p in parts]
    # the envelope header is the first part's (6, 2**32 - 2, 2**32 - 2):
    # short.  A record is a delta (5 B + 1, 29 B + 1 on the connection)
    # where seq, ts and ack step on from the record before, across the
    # change of form too, else a full one (23 B + 1)
    assert len(raw) == 21 + 2 + 6 + 24 + 30 + 6 + 6 + 24 + 24 + 24 + 24 + 24
    # a part in another form than encode gives its fields is refused
    for part in OFF_FORM:
        for encoder in (encode, encode_reference):
            with pytest.raises(CodecError, match="BATCH part"):
                encoder(_batch(5, 9, False, parts[:3] + (part,)))
    assert decode(OFF_FORM[0]).header.message_size == 41
    with pytest.raises(CodecError, match="ack step 4 past timestamp 3"):
        decode(OFF_FORM[1])


# ----------------------------------------------------------------------
# fused Regular / Heartbeat decode against the general path
# ----------------------------------------------------------------------
def general_decode(data):
    """Header, then size field (the full header's; the short one's size
    is the datagram's length), then body — the checks in the order the
    general path makes them, for the two types ``decode`` fuses."""
    h = peek_header(data)
    if h.message_size != len(data):
        raise CodecError(f"size field {h.message_size} != datagram length {len(data)}")
    if h.message_type == MessageType.HEARTBEAT:
        return HeartbeatMessage(h)
    assert h.message_type == MessageType.REGULAR
    start = 21 if data[6] & 0x08 else 40  # the short header's length, or the full one's
    if data[6] & 0x04:  # connectionless: the payload follows the header
        return RegularMessage(h, ConnectionId.none(), 0, bytes(data[start:]))
    try:
        cd, cg, sd, sg, req, plen = struct.unpack_from(
            ("<" if h.little_endian else ">") + "IIIIQI", data, start)
    except struct.error as exc:
        raise CodecError("truncated FTMP message body") from exc
    start += 28
    if start + plen > len(data):
        raise CodecError("truncated payload")
    return RegularMessage(h, ConnectionId(cd, cg, sd, sg), req,
                          bytes(data[start:start + plen]))


def outcome(fn, data):
    try:
        return fn(data)
    except CodecError as exc:
        return ("CodecError", str(exc))


def corruptions(raw: bytes):
    """Every prefix up to the Regular fixed part, then the header faults,
    in the header form ``raw`` has."""
    for n in range(0, min(len(raw), 68) + 1):
        yield f"prefix {n}", raw[:n]
    yield "one byte short", raw[:-1]
    yield "trailing byte", raw + b"\x00"
    yield "bad magic", b"FTMQ" + raw[4:]
    e = "<" if raw[6] & 1 else ">"
    if not raw[6] & 0x08:  # the full header's size field; the short one has none
        for size in (0, len(raw) - 1, len(raw) + 1, 0xFFFFFFFF):
            yield f"size field {size}", raw[:8] + struct.pack(e + "I", size) + raw[12:]
    yield "flipped endianness flag", raw[:6] + bytes([raw[6] ^ 1]) + raw[7:]
    yield "flipped connectionless flag", raw[:6] + bytes([raw[6] ^ 4]) + raw[7:]
    yield "flipped short header flag", raw[:6] + bytes([raw[6] ^ 8]) + raw[7:]
    yield "unknown type byte", raw[:7] + b"\xee" + raw[8:]
    if raw[6] & 0x08:
        ts = struct.unpack_from(e + "I", raw, 16)[0]
        if ts < 255:
            yield "ack step past the timestamp", raw[:20] + bytes([ts + 1]) + raw[21:]


FUSED = st.one_of(REGULAR, st.builds(HeartbeatMessage, _header(MessageType.HEARTBEAT)))


@settings(max_examples=150, deadline=None)
@given(FUSED)
def test_fused_decode_agrees_with_general_path(msg):
    raw = encode(msg)
    assert decode(raw) == general_decode(raw) == msg
    for what, data in corruptions(raw):
        assert outcome(decode, data) == outcome(general_decode, data), what
        assert outcome(decode, memoryview(data)) == outcome(decode, data), what


@pytest.mark.parametrize("little", [True, False])
def test_regular_announcing_more_payload_than_it_carries(little):
    # valid magic and length, payload length overstated: the fused
    # branch must hand over to the general path's "truncated payload"
    msg = RegularMessage(
        FTMPHeader(MessageType.REGULAR, 1, 1, 1, 1, 0, little_endian=little),
        ConnectionId.none(), 7, b"abcdef")
    raw = bytearray(encode(msg))
    # the payload length: 24 bytes into the body of the short header
    struct.pack_into("<I" if little else ">I", raw, 21 + 24, 7)
    for fn in (decode, general_decode):
        with pytest.raises(CodecError, match="truncated payload"):
            fn(bytes(raw))
