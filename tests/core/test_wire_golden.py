"""Golden wire-format vectors.

Pins the exact byte layout of the FTMP header in both its forms and of
representative bodies, so accidental format changes (field order,
widths, endianness handling, the choice of header form) are caught even
when encode/decode remain mutually consistent.
"""

import pytest

from repro.core import (
    BatchMessage,
    CodecError,
    ConnectionId,
    FTMPHeader,
    HeartbeatMessage,
    MessageType,
    RegularMessage,
    RetransmitRequestMessage,
    decode,
    encode,
    peek_header,
)


def test_heartbeat_little_endian_golden():
    h = FTMPHeader(
        message_type=MessageType.HEARTBEAT,
        source=0x01020304,
        group=0x0A0B0C0D,
        sequence_number=0x11223344,
        timestamp=0x0102030405060708,
        ack_timestamp=0x1112131415161718,
        little_endian=True,
    )
    raw = encode(HeartbeatMessage(h))
    expected = (
        b"FTMP"                     # magic
        b"\x01\x00"                 # version 1.0
        b"\x01"                     # flags: little endian
        b"\x03"                     # type HEARTBEAT
        b"\x28\x00\x00\x00"         # size = 40
        b"\x04\x03\x02\x01"         # source (LE)
        b"\x0d\x0c\x0b\x0a"         # group (LE)
        b"\x44\x33\x22\x11"         # seq (LE)
        b"\x08\x07\x06\x05\x04\x03\x02\x01"  # timestamp (LE)
        b"\x18\x17\x16\x15\x14\x13\x12\x11"  # ack (LE)
    )
    assert raw == expected


def test_heartbeat_big_endian_golden():
    h = FTMPHeader(
        message_type=MessageType.HEARTBEAT,
        source=0x01020304,
        group=0x0A0B0C0D,
        sequence_number=0x11223344,
        timestamp=0x0102030405060708,
        ack_timestamp=0x1112131415161718,
        little_endian=False,
    )
    raw = encode(HeartbeatMessage(h))
    expected = (
        b"FTMP"
        b"\x01\x00"
        b"\x00"                     # flags: big endian
        b"\x03"
        b"\x00\x00\x00\x28"
        b"\x01\x02\x03\x04"
        b"\x0a\x0b\x0c\x0d"
        b"\x11\x22\x33\x44"
        b"\x01\x02\x03\x04\x05\x06\x07\x08"
        b"\x11\x12\x13\x14\x15\x16\x17\x18"
    )
    assert raw == expected


def test_short_heartbeat_little_endian_golden():
    h = FTMPHeader(
        message_type=MessageType.HEARTBEAT,
        source=0x0102,
        group=0x0A0B,
        sequence_number=0x11223344,
        timestamp=0x05060708,
        ack_timestamp=0x05060708 - 0x2A,
        little_endian=True,
    )
    raw = encode(HeartbeatMessage(h))
    expected = (
        b"FTMP"                     # magic
        b"\x01\x00"                 # version 1.0
        b"\x09"                     # flags: little endian | short header
        b"\x03"                     # type HEARTBEAT
        b"\x02\x01"                 # source (LE u16); no size field: 21 B
        b"\x0b\x0a"                 # group (LE u16)
        b"\x44\x33\x22\x11"         # seq (LE)
        b"\x08\x07\x06\x05"         # timestamp (LE u32)
        b"\x2a"                     # ack step: timestamp - ack
    )
    assert raw == expected
    assert decode(raw) == HeartbeatMessage(h)


def test_short_heartbeat_big_endian_golden():
    h = FTMPHeader(
        message_type=MessageType.HEARTBEAT,
        source=0x0102,
        group=0x0A0B,
        sequence_number=0x11223344,
        timestamp=0x05060708,
        ack_timestamp=0x05060708 - 0x2A,
        little_endian=False,
    )
    raw = encode(HeartbeatMessage(h))
    expected = (
        b"FTMP"
        b"\x01\x00"
        b"\x08"                     # flags: big endian | short header
        b"\x03"
        b"\x01\x02"
        b"\x0a\x0b"
        b"\x11\x22\x33\x44"
        b"\x05\x06\x07\x08"
        b"\x2a"
    )
    assert raw == expected
    assert decode(raw) == HeartbeatMessage(h)


def _heartbeat(ts, ack, little=True, source=1, group=2):
    return encode(HeartbeatMessage(FTMPHeader(
        MessageType.HEARTBEAT, source=source, group=group, sequence_number=3, timestamp=ts,
        ack_timestamp=ack, little_endian=little)))


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_a_source_or_group_of_0xffff_is_the_last_that_takes_the_short_header(little):
    e = (lambda b: b) if little else (lambda b: b[::-1])
    raw = _heartbeat(5, 5, little, source=0xFFFF, group=0xFFFF)
    assert len(raw) == 21 and raw[8:12] == b"\xff" * 4
    for source, group in ((0x10000, 2), (1, 0x10000)):
        raw = _heartbeat(5, 5, little, source=source, group=group)
        assert len(raw) == 40 and raw[6] == little
        assert raw[12:20] == e(source.to_bytes(4, "little")) + e(group.to_bytes(4, "little"))
        assert decode(raw).header.source == source and decode(raw).header.group == group


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_the_largest_u32_timestamp_is_the_last_that_takes_the_short_header(little):
    e = (lambda b: b) if little else (lambda b: b[::-1])
    raw = _heartbeat(2**32 - 1, 2**32 - 1, little)
    assert raw[6] == 0x08 | little and len(raw) == 21
    assert raw[16:] == b"\xff\xff\xff\xff\x00"  # timestamp, ack step 0
    raw = _heartbeat(2**32, 2**32, little)
    assert raw[6] == little and raw[8:12] == e(b"\x28\x00\x00\x00")
    assert raw[24:] == e(b"\x00\x00\x00\x00\x01\x00\x00\x00") * 2  # ts and ack, u64
    for ts in (2**32 - 1, 2**32):
        assert decode(_heartbeat(ts, ts, little)).header.ack_timestamp == ts


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
def test_an_ack_step_of_255_is_the_last_that_takes_the_short_header(little):
    e = (lambda b: b) if little else (lambda b: b[::-1])
    raw = _heartbeat(1000, 1000 - 255, little)
    assert len(raw) == 21 and raw[16:] == e(b"\xe8\x03\x00\x00") + b"\xff"
    raw = _heartbeat(1000, 1000 - 256, little)
    assert len(raw) == 40 and raw[24:] == (e(b"\xe8\x03\x00\x00\x00\x00\x00\x00")
                                           + e(b"\xe8\x02\x00\x00\x00\x00\x00\x00"))
    # an ack ahead of the timestamp is a negative step: the full header too
    assert len(_heartbeat(1000, 1001, little)) == 40
    for ack in (745, 744, 1001):
        assert decode(_heartbeat(1000, ack, little)).header.ack_timestamp == ack


def test_an_ack_step_past_the_timestamp_does_not_decode():
    raw = bytearray(_heartbeat(5, 5))
    raw[20] = 6  # ack = 5 - 6
    for fn in (decode, peek_header):
        with pytest.raises(CodecError, match="ack step 6 past timestamp 5"):
            fn(bytes(raw))


def test_regular_body_golden():
    # an ack ahead of the timestamp: the full 40 B header
    h = FTMPHeader(
        message_type=MessageType.REGULAR,
        source=1, group=2, sequence_number=3, timestamp=4, ack_timestamp=5,
        little_endian=True,
    )
    msg = RegularMessage(h, ConnectionId(0x0A, 0x0B, 0x0C, 0x0D), 0x0E, b"HI")
    raw = encode(msg)
    body = raw[40:]
    assert body == (
        b"\x0a\x00\x00\x00"          # client domain
        b"\x0b\x00\x00\x00"          # client group
        b"\x0c\x00\x00\x00"          # server domain
        b"\x0d\x00\x00\x00"          # server group
        b"\x0e\x00\x00\x00\x00\x00\x00\x00"  # request num (u64)
        b"\x02\x00\x00\x00"          # payload length
        b"HI"
    )
    assert len(raw) == 40 + 16 + 8 + 4 + 2


def test_short_regular_golden():
    # the same message with its ack one tick behind: the 21 B header
    h = FTMPHeader(
        message_type=MessageType.REGULAR,
        source=1, group=2, sequence_number=3, timestamp=4, ack_timestamp=3,
        little_endian=True,
    )
    msg = RegularMessage(h, ConnectionId(0x0A, 0x0B, 0x0C, 0x0D), 0x0E, b"HI")
    raw = encode(msg)
    assert raw == (
        b"FTMP"
        b"\x01\x00"                 # version 1.0
        b"\x09"                     # flags: little endian | short header
        b"\x01"                     # type REGULAR
        b"\x01\x00"                 # source (u16); no size field
        b"\x02\x00"                 # group (u16)
        b"\x03\x00\x00\x00"          # seq
        b"\x04\x00\x00\x00"          # timestamp (u32)
        b"\x01"                     # ack step
        b"\x0a\x00\x00\x00"          # client domain: the body at byte 21
        b"\x0b\x00\x00\x00"
        b"\x0c\x00\x00\x00"
        b"\x0d\x00\x00\x00"
        b"\x0e\x00\x00\x00\x00\x00\x00\x00"  # request num (u64)
        b"\x02\x00\x00\x00"          # payload length
        b"HI"
    )
    assert len(raw) == 21 + 16 + 8 + 4 + 2


def test_retransmit_request_body_golden():
    h = FTMPHeader(
        message_type=MessageType.RETRANSMIT_REQUEST,
        source=1, group=2, sequence_number=3, timestamp=4, ack_timestamp=5,
        little_endian=True,
    )
    raw = encode(RetransmitRequestMessage(h, processor_id=9, start_seq=10, stop_seq=12))
    assert raw[40:] == (
        b"\x09\x00\x00\x00"
        b"\x0a\x00\x00\x00"
        b"\x0c\x00\x00\x00"
    )


def test_retransmission_flag_bit_position():
    h = FTMPHeader(
        message_type=MessageType.HEARTBEAT, source=1, group=1,
        sequence_number=1, timestamp=1, ack_timestamp=1,
        little_endian=True, retransmission=True,
    )
    raw = encode(HeartbeatMessage(h))
    assert raw[6] == 0x0B  # little-endian bit | retransmission bit | short header


def test_batch_delta_and_full_record_golden():
    # pinned from the codec that batched parts given as wire bytes: the
    # first part a delta record on the envelope header's base (its seq
    # - 1, ts, ack), the second, two seqs on, a full one on a connection
    def regular(seq, ts, ack, cid, request_num, payload):
        return RegularMessage(FTMPHeader(MessageType.REGULAR, 3, 1, seq, ts, ack), cid,
                              request_num, payload)

    parts = (regular(8, 1000, 990, ConnectionId.none(), 0, b"ab"),
             regular(10, 1300, 1001, ConnectionId(1, 2, 3, 4), 5, b"cd"))
    raw = encode(BatchMessage(FTMPHeader(MessageType.BATCH, 3, 1, 0, 0, 0), parts))
    assert raw.hex() == (
        "46544d50" "0100" "09" "0a"                # magic, version, LE + short, BATCH
        "0300" "0100" "07000000" "e8030000" "0a"   # source, group, seq 7, ts 1000, step 10
        "0200"                                     # two parts
        "05" "00" "00" "0200" "6162"               # delta: steps 0 and 0, "ab"
        "09" "0a000000" "1405000000000000" "e903000000000000"  # full: seq 10, ts, ack
        "01000000020000000300000004000000" "0500000000000000"  # connection, request 5
        "0200" "6364")                             # "cd"
    assert decode(raw).parts[1].header.message_size == 40 + 28 + 2
