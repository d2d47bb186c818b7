"""Codec tests: every FTMP message type round-trips, both byte orders,
both header forms; the exact sizes of each form."""

import dataclasses

import pytest

from repro.analysis.harness import make_cluster
from repro.core import (
    HEADER_SIZE,
    SHORT_HEADER_SIZE,
    AddProcessorMessage,
    BatchMessage,
    CodecError,
    ConnectionId,
    ConnectMessage,
    FTMPConfig,
    ConnectRequestMessage,
    FTMPHeader,
    HeartbeatMessage,
    MembershipMessage,
    MessageType,
    RegularMessage,
    RemoveProcessorMessage,
    RetransmitRequestMessage,
    SuspectMessage,
    decode,
    encode,
    peek_header,
)
from repro.core.wire import decode_view, regular_size


def header(mtype: MessageType, little: bool = True, timestamp: int = 99) -> FTMPHeader:
    """Ack 55: 44 ticks behind the default timestamp, the short header's
    range; ``timestamp=FULL`` puts it 256 behind, and the 40 B header on."""
    return FTMPHeader(
        message_type=mtype,
        source=7,
        group=42,
        sequence_number=1234,
        timestamp=timestamp,
        ack_timestamp=55,
        little_endian=little,
    )


#: a timestamp whose ack step (256) the short header cannot hold
FULL = 55 + 256


CID = ConnectionId(1, 2, 3, 4)


def sample_messages(little: bool, timestamp: int = 99):
    def h(mtype):
        return header(mtype, little, timestamp)

    return [
        RegularMessage(h(MessageType.REGULAR), CID, 17, b"payload!"),
        RetransmitRequestMessage(h(MessageType.RETRANSMIT_REQUEST), 9, 5, 11),
        HeartbeatMessage(h(MessageType.HEARTBEAT)),
        ConnectRequestMessage(h(MessageType.CONNECT_REQUEST), CID, (8, 9)),
        ConnectMessage(h(MessageType.CONNECT), CID, 1000, 2000, 77, (1, 2, 8, 9)),
        AddProcessorMessage(h(MessageType.ADD_PROCESSOR), 77, (1, 2, 3), {1: 10, 2: 20, 3: 0}, 4),
        RemoveProcessorMessage(h(MessageType.REMOVE_PROCESSOR), 2),
        SuspectMessage(h(MessageType.SUSPECT), 77, (3,)),
        MembershipMessage(h(MessageType.MEMBERSHIP), 77, (1, 2, 3), {1: 10, 2: 20, 3: 5}, (1, 2)),
    ]


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_all_types_round_trip(little):
    for msg in sample_messages(little) + sample_messages(little, FULL):
        raw = encode(msg)
        assert len(raw) == msg.header.message_size
        assert bool(raw[6] & 0x08) == (msg.header.timestamp != FULL)
        out = decode(raw)
        assert type(out) is type(msg)
        assert out.header.message_type == msg.header.message_type
        assert out.header.source == msg.header.source
        assert out.header.group == msg.header.group
        assert out.header.sequence_number == msg.header.sequence_number
        assert out.header.timestamp == msg.header.timestamp
        assert out.header.ack_timestamp == msg.header.ack_timestamp
        assert out.header.little_endian == little
        # body fields
        for f in (fld.name for fld in dataclasses.fields(msg)):
            if f == "header":
                continue
            assert getattr(out, f) == getattr(msg, f), f


def test_message_size_covers_header_and_body():
    msg = RegularMessage(header(MessageType.REGULAR), CID, 1, b"x" * 100)
    raw = encode(msg)
    assert len(raw) == msg.header.message_size
    assert msg.header.message_size > HEADER_SIZE + 100


def test_heartbeat_is_header_only():
    raw = encode(HeartbeatMessage(header(MessageType.HEARTBEAT)))
    assert len(raw) == SHORT_HEADER_SIZE
    assert len(encode(HeartbeatMessage(header(MessageType.HEARTBEAT, timestamp=FULL)))) \
        == HEADER_SIZE


def test_peek_header_without_body_decode():
    msg = RegularMessage(header(MessageType.REGULAR), CID, 1, b"data")
    h = peek_header(encode(msg))
    assert h.message_type == MessageType.REGULAR
    assert h.source == 7
    assert h.sequence_number == 1234


def test_retransmission_flag_round_trip():
    h = header(MessageType.REGULAR)
    h.retransmission = True
    raw = encode(RegularMessage(h, CID, 1, b""))
    assert decode(raw).header.retransmission is True


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_mark_retransmission_round_trip(little):
    # §3.2: the send path marks a retransmission by re-encoding a copy
    # whose header has the flag set; it differs in flag bit 1 only
    for ts in (99, FULL):
        for msg in sample_messages(little, ts):
            raw = encode(msg)
            marked = encode(dataclasses.replace(
                msg, header=dataclasses.replace(msg.header, retransmission=True)))
            assert not raw[6] & 0x02
            assert marked == raw[:6] + bytes([raw[6] | 0x02]) + raw[7:]
            out = decode(marked)
            assert out.header.retransmission is True
            assert out.header.little_endian == little
            assert out.header.sequence_number == msg.header.sequence_number
            # the retained original is untouched and still encodes unflagged
            assert msg.header.retransmission is False
            assert encode(msg) == raw


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_batch_round_trip(little):
    parts = tuple(
        sized(RegularMessage(header(MessageType.REGULAR, little), CID, i, b"p%d" % i))
        for i in range(3)
    )
    msg = BatchMessage(header(MessageType.BATCH, little), parts)
    out = decode(encode(msg))
    assert isinstance(out, BatchMessage)
    assert out.parts == parts
    # every part is its original Regular, which encodes alone as before
    for i, part in enumerate(out.parts):
        assert isinstance(part, RegularMessage)
        assert part.payload == b"p%d" % i
        assert encode(part) == encode(parts[i])


def sized(msg):
    """``msg`` with the ``message_size`` of its standalone encoding, as
    the send path windows a Regular and a BATCH decode gives it back."""
    regular_size(msg)
    return msg


def _coalesced(little, n, cid=ConnectionId.none(), request_num=0):
    """What the send path coalesces: one sender's consecutive Regulars,
    each a few ticks after the last, acks a step apart, 64 B payloads."""
    parts = tuple(sized(RegularMessage(
        FTMPHeader(MessageType.REGULAR, source=7, group=42, sequence_number=100 + i,
                   timestamp=500 + 3 * i, ack_timestamp=480 + i // 2, little_endian=little),
        cid, request_num, b"x" * 64)) for i in range(n))
    return parts, encode(BatchMessage(header(MessageType.BATCH, little), parts))


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_delta_record_below_the_orb_costs_5_bytes_plus_payload(little):
    # flags, ts step, ack step, payload length — the first record too,
    # whose base is the envelope header's (seq - 1, ts, ack)
    for n in (1, 2, 8):
        parts, raw = _coalesced(little, n)
        # every part and the envelope in the short header: the acks lag
        # the timestamps by ~20 ticks
        assert len(encode(parts[0])) == SHORT_HEADER_SIZE + 64
        assert len(raw) == SHORT_HEADER_SIZE + 2 + n * (5 + 64)
        out = decode(raw)
        assert out.parts == parts
        first = parts[0].header
        assert (out.header.sequence_number, out.header.timestamp, out.header.ack_timestamp) \
            == (first.sequence_number - 1, first.timestamp, first.ack_timestamp)


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_delta_record_on_a_connection_costs_29_bytes_plus_payload(little):
    # + the connection id and request number
    for n in (1, 2, 8):
        parts, raw = _coalesced(little, n, CID, 9)
        assert len(encode(parts[0])) == SHORT_HEADER_SIZE + 28 + 64
        assert len(raw) == SHORT_HEADER_SIZE + 2 + n * (29 + 64)
        assert decode(raw).parts == parts


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_a_step_of_256_takes_a_full_record(little):
    # ts 256 past the previous record's: seq, ts and ack in full (23 B).
    # The first part's ack step, 6, takes the short header, the second's,
    # 262, the full one; the record says neither, the decode finds both
    parts = tuple(sized(RegularMessage(
        FTMPHeader(MessageType.REGULAR, source=7, group=42, sequence_number=1 + i,
                   timestamp=10 + 256 * i, ack_timestamp=4, little_endian=little),
        ConnectionId.none(), 0, b"x" * 64)) for i in range(2))
    assert [len(encode(p)) for p in parts] == [SHORT_HEADER_SIZE + 64, HEADER_SIZE + 64]
    raw = encode(BatchMessage(header(MessageType.BATCH, little), parts))
    assert len(raw) == SHORT_HEADER_SIZE + 2 + (5 + 64) + (23 + 64)
    out = decode(raw).parts
    assert out == parts
    assert [p.header.message_size for p in out] == [SHORT_HEADER_SIZE + 64, HEADER_SIZE + 64]


def _below_the_orb(little, n, timestamp, size):
    below = RegularMessage(header(MessageType.REGULAR, little, timestamp), ConnectionId.none(),
                           0, b"x" * n)
    raw = encode(below)
    assert len(raw) == below.header.message_size == size + n
    assert raw[6] & 0x04  # the connectionless flag
    assert bool(raw[6] & 0x08) == (size == SHORT_HEADER_SIZE)  # the short header's
    assert raw[size:] == b"x" * n
    assert decode(raw) == below
    view = decode_view(raw)
    assert type(view.payload) is memoryview and bytes(view.payload) == b"x" * n
    assert view.connection_id == ConnectionId.none() and view.request_num == 0


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
@pytest.mark.parametrize("n", [0, 1, 64, 2048])
def test_a_regular_below_the_orb_is_40_bytes_plus_payload(little, n):
    # an ack 256 ticks behind: the full header
    _below_the_orb(little, n, FULL, HEADER_SIZE)


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
@pytest.mark.parametrize("n", [0, 1, 64, 2048])
def test_a_regular_below_the_orb_with_a_short_header_is_27_bytes_plus_payload(little, n):
    # 21 B since the short header dropped its size field and narrowed
    # source and group; the name keeps the first short form's figure
    _below_the_orb(little, n, 99, SHORT_HEADER_SIZE)


def _on_a_connection(little, cid, request_num, timestamp, size):
    msg = RegularMessage(header(MessageType.REGULAR, little, timestamp), cid, request_num,
                         b"x" * 64)
    raw = encode(msg)
    assert len(raw) == size + 64 and not raw[6] & 0x04
    assert decode(raw) == msg
    assert bytes(decode_view(raw).payload) == b"x" * 64


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
@pytest.mark.parametrize("cid,request_num", [(CID, 17), (CID, 0),
                                             (ConnectionId.none(), 17)])
def test_a_regular_on_a_connection_is_68_bytes_plus_payload(little, cid, request_num):
    _on_a_connection(little, cid, request_num, FULL, 68)


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
@pytest.mark.parametrize("cid,request_num", [(CID, 17), (CID, 0),
                                             (ConnectionId.none(), 17)])
def test_a_regular_on_a_connection_with_a_short_header_is_55_bytes_plus_payload(
        little, cid, request_num):
    # 49 B since the 21 B short header (the name keeps the 27 B form's 55)
    _on_a_connection(little, cid, request_num, 99, 49)


@pytest.mark.parametrize("timestamp", [99, FULL], ids=["short", "full"])
@pytest.mark.parametrize("cid,request_num", [(CID, 17), (ConnectionId.none(), 0)])
def test_a_batch_window_counts_every_regular_as_68_bytes_plus_payload(timestamp, cid,
                                                                      request_num):
    # whichever layout and header form: batch composition does not move.
    # A window of 2 x (68 + 64) B closes on its second such message
    cluster = make_cluster((1, 2), config=FTMPConfig(batch_window=0.01,
                                                     batch_max_bytes=2 * (68 + 64)))
    try:
        g = cluster.stacks[1].group(1)
        for seq in (1, 2):
            g.send_path._append(RegularMessage(
                FTMPHeader(MessageType.REGULAR, 1, 1, seq, timestamp + seq, 55), cid,
                request_num, b"x" * 64))
            assert g.send_path.pending_batch == 2 - seq
        assert g.batch_stats.flushes_on_size == 1
        assert g.batch_stats.messages_batched == 2
    finally:
        cluster.stop()


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_a_regular_under_the_short_size_limit_takes_the_short_header(little):
    # the 21 B header has no size field to bound it: a datagram past
    # 65,535 B takes it as well as one under
    for n, size in ((65_514, SHORT_HEADER_SIZE), (65_515, SHORT_HEADER_SIZE)):
        msg = RegularMessage(header(MessageType.REGULAR, little), ConnectionId.none(), 0,
                             b"x" * n)
        raw = encode(msg)
        assert len(raw) == size + n
        assert decode(raw) == msg


@pytest.mark.parametrize("mtype", [t for t in MessageType if t != MessageType.REGULAR])
def test_the_connectionless_flag_on_another_type_is_rejected(mtype):
    # a type sample_messages leaves out is a bare header of that type
    msg = next((m for m in sample_messages(True) if m.header.message_type == mtype),
               HeartbeatMessage(header(mtype)))
    raw = encode(msg)
    flagged = raw[:6] + bytes((raw[6] | 0x04,)) + raw[7:]
    for data in (flagged, memoryview(flagged)):
        with pytest.raises(CodecError, match=f"connectionless flag on a {mtype.name}"):
            decode(data)
        with pytest.raises(CodecError, match="connectionless flag"):
            decode_view(data)
        with pytest.raises(CodecError, match="connectionless flag"):
            peek_header(data)


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_a_connectionless_regular_must_state_the_datagram_length(little):
    # the full header's size field; the short header has none
    raw = encode(RegularMessage(header(MessageType.REGULAR, little, FULL), ConnectionId.none(),
                                0, b"payload"))
    for data in (raw + b"\0", raw[:-1]):
        for fn in (decode, decode_view):
            with pytest.raises(CodecError, match=r"size field \d+ != datagram length"):
                fn(data)


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_a_short_connectionless_regulars_payload_is_the_rest_of_the_datagram(little):
    # the 21 B twin: no size field, so the datagram's length is its size
    raw = encode(RegularMessage(header(MessageType.REGULAR, little), ConnectionId.none(), 0,
                                b"payload"))
    assert len(raw) == SHORT_HEADER_SIZE + 7
    for data, payload in ((raw + b"\0", b"payload\0"), (raw[:-1], b"payloa")):
        for fn in (decode, decode_view):
            out = fn(data)
            assert bytes(out.payload) == payload
            assert out.header.message_size == len(data)
    with pytest.raises(CodecError, match="datagram shorter than header"):
        decode(raw[:SHORT_HEADER_SIZE - 1])


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_a_full_form_part_with_a_zero_connection_block_is_refused(little):
    # what an encoder that always wrote the 68 B layout would send: it
    # decodes, but no record could give it back byte for byte, so no
    # BATCH carries it; the same message as encode gives it is batched
    import struct

    e = "<" if little else ">"
    full = struct.pack(e + "4sBBBBIIIIQQIIIIQI", b"FTMP", 1, 0, int(little), 1, 68 + 3,
                       7, 42, 5, 100, 50, 0, 0, 0, 0, 0, 3) + b"abc"
    assert decode(full) == RegularMessage(
        FTMPHeader(MessageType.REGULAR, 7, 42, 5, 100, 50, little_endian=little,
                   message_size=71), ConnectionId.none(), 0, b"abc")
    encoded = encode(decode(full))
    assert len(encoded) == SHORT_HEADER_SIZE + 3  # the other layout and header form
    with pytest.raises(CodecError, match="BATCH part"):
        encode(BatchMessage(header(MessageType.BATCH, little), (encoded, full)))
    # the message itself, or its bytes as encode gives them, is batched
    message = decode(encoded)
    for part in (message, encoded):
        raw = encode(BatchMessage(header(MessageType.BATCH, little), (part,)))
        # the envelope header is the part's (seq - 1, ts, ack): a delta record
        assert len(raw) == SHORT_HEADER_SIZE + 2 + (5 + 3)
        assert decode(raw).parts == (message,)


def test_empty_batch_round_trip():
    out = decode(encode(BatchMessage(header(MessageType.BATCH), ())))
    assert isinstance(out, BatchMessage)
    assert out.parts == ()


def test_bad_magic_rejected():
    raw = bytearray(encode(HeartbeatMessage(header(MessageType.HEARTBEAT))))
    raw[0:4] = b"JUNK"
    with pytest.raises(CodecError):
        decode(bytes(raw))


def test_truncated_datagram_rejected():
    raw = encode(RegularMessage(header(MessageType.REGULAR), CID, 1, b"abcdef"))
    with pytest.raises(CodecError):
        decode(raw[: HEADER_SIZE + 2])
    with pytest.raises(CodecError):
        peek_header(raw[:10])


def test_unknown_message_type_rejected():
    raw = bytearray(encode(HeartbeatMessage(header(MessageType.HEARTBEAT))))
    raw[7] = 200
    with pytest.raises(CodecError):
        decode(bytes(raw))


def test_size_mismatch_rejected():
    # the full header's size field (the short one has none)
    raw = encode(RegularMessage(header(MessageType.REGULAR, timestamp=FULL), CID, 1, b"abc"))
    with pytest.raises(CodecError):
        decode(raw + b"extra")


def test_a_short_regular_on_a_connection_cut_into_its_payload_is_rejected():
    # the 21 B twin: its payload length is the one length it states
    raw = encode(RegularMessage(header(MessageType.REGULAR), CID, 1, b"abc"))
    assert len(raw) == SHORT_HEADER_SIZE + 28 + 3
    with pytest.raises(CodecError, match="truncated payload"):
        decode(raw[:-1])


def test_empty_collections_round_trip():
    msg = MembershipMessage(header(MessageType.MEMBERSHIP), 0, (), {}, ())
    out = decode(encode(msg))
    assert out.current_membership == ()
    assert out.sequence_numbers == {}
    assert out.new_membership == ()


def test_connection_id_reversed():
    assert CID.reversed() == ConnectionId(3, 4, 1, 2)
    assert CID.reversed().reversed() == CID


def test_large_payload_round_trip():
    payload = bytes(range(256)) * 100
    msg = RegularMessage(header(MessageType.REGULAR), CID, 2**63, payload)
    out = decode(encode(msg))
    assert out.payload == payload
    assert out.request_num == 2**63
