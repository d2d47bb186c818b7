"""Hostile input at the codec, for every type but Regular, Heartbeat and BATCH.

Regular and Heartbeat are held to the general decode path by
``test_wire_property.py`` (every prefix, every header fault) and BATCH
by ``test_batch_hostile_input.py``.  Here the other ten types — the
membership, connection, multi-group, NACK and overlay control messages —
are encoded in both header forms, then mutated the ways a datagram is
damaged or forged: cut short, extended, a flag bit flipped (bit 3, the
short header's, included), the type octet replaced, the full header's
size field moved by one (the 21 B short header has none: its length is
the datagram's).  Whatever arrives, ``decode``, ``decode_view`` and
``peek_header`` either return or raise :class:`CodecError`: nothing else
escapes to the receive path, which counts a ``CodecError`` as a decode
error and drops the datagram.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SHORT_HEADER_SIZE,
    AckSummaryMessage,
    AddProcessorMessage,
    ConnectionId,
    ConnectMessage,
    ConnectRequestMessage,
    FTMPHeader,
    MembershipMessage,
    MessageType,
    MultiGroupCommitMessage,
    MultiGroupProposeMessage,
    RemoveProcessorMessage,
    RetransmitRequestMessage,
    SuspectMessage,
)
from repro.core.wire import CodecError, decode, decode_view, encode, peek_header

U16 = st.integers(0, 0xFFFF)
U32 = st.integers(0, 0xFFFFFFFF)
U64 = st.integers(0, 2**64 - 1)
PIDS = st.lists(U32, max_size=5).map(tuple)
SEQ_VECTOR = st.dictionaries(U32, U32, max_size=5)
CID = st.builds(ConnectionId, U32, U32, U32, U32)
SHORT = 0x08


def _fits(ts, ack, source, group):
    return ts < 2**32 and 0 <= ts - ack < 256 and source < 2**16 and group < 2**16


@st.composite
def headers(draw, mtype, short):
    """A header whose stamps, source and group fit the short form, or do
    not: its stamps, or its source or group past a u16."""
    if short:
        ts = draw(st.sampled_from([0, 255, 2**32 - 1]) | st.integers(0, 2**32 - 1))
        ack = ts - draw(st.integers(0, min(ts, 255)))
        source, group = draw(st.sampled_from([0, 0xFFFF]) | U16), draw(U16)
    else:
        ts, ack = draw(st.sampled_from([(2**32, 2**32), (300, 44), (5, 6), (9, 9)])
                       | st.tuples(U64, U64))
        source = draw(st.sampled_from([0x10000, 0xFFFF]) | U32)
        group = draw(st.sampled_from([0x10000, 2]) | U32)
        if _fits(ts, ack, source, group):
            source = 0x10000 + source
    return FTMPHeader(mtype, source, group, draw(U32), ts, ack,
                      retransmission=draw(st.booleans()), little_endian=draw(st.booleans()))


def bodies(short):
    """Every type but Regular, Heartbeat and BATCH, header form ``short``."""
    def h(mtype):
        return headers(mtype, short)

    return st.one_of(
        st.builds(RetransmitRequestMessage, h(MessageType.RETRANSMIT_REQUEST), U32, U32, U32),
        st.builds(AckSummaryMessage, h(MessageType.ACK_SUMMARY),
                  st.sampled_from([AckSummaryMessage.KIND_UP, AckSummaryMessage.KIND_DOWN]),
                  U64, U64, st.lists(st.tuples(U32, U32, U64), max_size=4).map(tuple)),
        st.builds(ConnectRequestMessage, h(MessageType.CONNECT_REQUEST), CID, PIDS),
        st.builds(ConnectMessage, h(MessageType.CONNECT), CID, U32, U32, U64, PIDS),
        st.builds(AddProcessorMessage, h(MessageType.ADD_PROCESSOR), U64, PIDS, SEQ_VECTOR,
                  U32),
        st.builds(RemoveProcessorMessage, h(MessageType.REMOVE_PROCESSOR), U32),
        st.builds(SuspectMessage, h(MessageType.SUSPECT), U64, PIDS),
        st.builds(MembershipMessage, h(MessageType.MEMBERSHIP), U64, PIDS, SEQ_VECTOR, PIDS),
        st.builds(MultiGroupProposeMessage, h(MessageType.MULTI_GROUP_PROPOSE), U64, U32, PIDS,
                  st.binary(max_size=40)),
        st.builds(MultiGroupCommitMessage, h(MessageType.MULTI_GROUP_COMMIT), U32, U64, U64),
    )


CONTROL = st.booleans().flatmap(
    lambda short: bodies(short).map(lambda msg: (short, msg)))


def move_size(raw, by):
    """The full header's size field moved by ``by`` (wrapping); a short
    header, which has none, is left as it is."""
    if len(raw) < 12 or raw[6] & SHORT:
        return raw
    e = "<" if raw[6] & 1 else ">"
    (size,) = struct.unpack_from(e + "I", raw, 8)
    return raw[:8] + struct.pack(e + "I", (size + by) % 2**32) + raw[12:]


@st.composite
def mutations(draw, raw):
    """``raw`` after one to three of: cut short, extended, a flag bit
    flipped, the type octet replaced, a full header's size field moved by
    one."""
    for _ in range(draw(st.integers(1, 3))):
        what = draw(st.sampled_from(["truncate", "extend", "flag", "type", "size"]))
        if what == "truncate":
            raw = raw[:draw(st.integers(0, max(len(raw) - 1, 0)))]
        elif what == "extend":
            raw = raw + draw(st.binary(min_size=1, max_size=8))
        elif what == "flag" and len(raw) > 6:
            raw = raw[:6] + bytes((raw[6] ^ 1 << draw(st.integers(0, 7)),)) + raw[7:]
        elif what == "type" and len(raw) > 7:
            raw = raw[:7] + bytes((draw(st.integers(0, 255)),)) + raw[8:]
        elif what == "size":
            raw = move_size(raw, draw(st.sampled_from([-1, 1])))
    return raw


def only_codec_errors(data):
    for fn in (decode, decode_view, peek_header):
        for buffer in (data, memoryview(data)):
            try:
                fn(buffer)
            except CodecError:
                pass


@settings(max_examples=300, deadline=None)
@given(CONTROL, st.data())
def test_mutated_control_datagrams_raise_only_codec_errors(form_and_msg, data):
    short, msg = form_and_msg
    raw = encode(msg)
    assert bool(raw[6] & SHORT) == short
    assert decode(raw) == msg
    only_codec_errors(data.draw(mutations(raw)))


@settings(max_examples=100, deadline=None)
@given(CONTROL)
def test_each_single_mutation_raises_only_codec_errors(form_and_msg):
    short, msg = form_and_msg
    raw = encode(msg)
    for n in range(len(raw)):
        only_codec_errors(raw[:n])
    only_codec_errors(raw + b"\x00")
    for bit in range(8):
        only_codec_errors(raw[:6] + bytes((raw[6] ^ 1 << bit,)) + raw[7:])
    for mtype in range(256):
        only_codec_errors(raw[:7] + bytes((mtype,)) + raw[8:])
    if short:
        return  # no size field to move: its cut and its extension are above
    for by in (-1, 1):
        moved = move_size(raw, by)
        only_codec_errors(moved)
        with pytest.raises(CodecError, match="size field"):
            decode(moved)


@settings(max_examples=100, deadline=None)
@given(bodies(short=True))
def test_bit3_on_a_datagram_shorter_than_the_short_header(msg):
    raw = encode(msg)
    for n in range(7, SHORT_HEADER_SIZE):
        cut = raw[:6] + bytes((raw[6] | SHORT,)) + raw[7:n]
        for fn in (decode, decode_view, peek_header):
            with pytest.raises(CodecError, match=f"datagram shorter than header: {n} bytes"):
                fn(cut)


@settings(max_examples=100, deadline=None)
@given(bodies(short=True), st.integers(0, 254), st.data())
def test_an_ack_step_larger_than_the_timestamp(msg, ts, data):
    msg.header.timestamp = msg.header.ack_timestamp = ts
    raw = bytearray(encode(msg))
    step = data.draw(st.integers(ts + 1, 255))
    raw[20] = step
    for fn in (decode, decode_view, peek_header):
        with pytest.raises(CodecError, match=f"ack step {step} past timestamp {ts}"):
            fn(bytes(raw))


@settings(max_examples=100, deadline=None)
@given(bodies(short=True), st.integers(1, 8))
def test_a_short_datagram_is_as_long_as_it_is(msg, n):
    # the 21 B twin of the size field moved by one: the short header
    # states no length, so a datagram cut or extended by n bytes is read
    # at the length it has, and raises nothing but a CodecError
    raw = encode(msg)
    assert raw[6] & SHORT and decode(raw).header.message_size == len(raw)
    for data in (raw[:-n], raw + bytes(n)):
        only_codec_errors(data)
        try:
            out = decode(data)
        except CodecError:
            continue
        assert out.header.message_size == len(data)


@settings(max_examples=100, deadline=None)
@given(bodies(short=True), st.sampled_from(["source", "group"]))
def test_a_source_or_group_past_u16_takes_the_full_header(msg, field):
    # the 21 B header's third condition: either id past 0xFFFF is 40 B
    setattr(msg.header, field, 0x10000)
    raw = encode(msg)
    assert not raw[6] & SHORT
    assert decode(raw) == msg
    only_codec_errors(raw[:6] + bytes((raw[6] | SHORT,)) + raw[7:])
