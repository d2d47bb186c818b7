"""Hostile BATCH input, at the codec and at the receive path.

A BATCH datagram is the one FTMP message whose body is other messages, so
it is where a sender chooses how much work one datagram costs its
receivers — and since the codec builds its parts' messages straight
from the records (``BatchMessage.parts``) and RMP / ROMP take them as a
run, it is also where a second way through the receiver begins.  A BATCH holds one
sender's first-transmission Regulars and nothing else.  Records are laid
out by hand here so that every fault can be planted where ``encode``
would never put it: a sequence number carried past 0xFFFFFFFF or a
timestamp past 2**64 - 1, a length past the end, and a flags byte
opening no record — among them the 0x80 "verbatim" record, which once
carried any other part, and the retransmission bit records once had.
Whatever arrives:

* ``CodecError``, counted once by the stack as a decode error for the
  whole datagram — nothing else escapes ``FTMPStack._on_datagram``, and
  the reader's work is bounded by the bytes present;
* wherever the decode yields a part, the part equals ``decode`` of its
  own standalone encoding field for field, ``message_size`` its length
  and a ``bytes`` payload included when the datagram was a
  ``memoryview``;
* a receiver fed the datagrams ends in the same state, counters and
  deliveries as one whose RMP took none of each run, and so routed
  every part one by one.
"""

import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FTMPConfig, FTMPStack, MessageType, RecordingListener, wire
from repro.core.constants import MAGIC, VERSION_MAJOR, VERSION_MINOR
from repro.core.messages import (
    BatchMessage,
    ConnectionId,
    FTMPHeader,
    HeartbeatMessage,
    RegularMessage,
)
from repro.core.rmp import RMP
from repro.core.wire import CodecError, decode, decode_view, encode
from repro.simnet import Network, lan

GROUP, ADDRESS = 1, 5001
SENDER = 2  #: the source every hand-built BATCH claims
PEER = 3  #: a third member, heard only through hand-built heartbeats
LITTLE, RETRANSMISSION, DELTA, CONNECTION, VERBATIM = 0x01, 0x02, 0x04, 0x08, 0x80
#: the header flag of the 21 B header form
SHORT = 0x08
U64_MAX = 2**64 - 1


# ----------------------------------------------------------------------
# hand-laid records (wire.py's module docstring has the format)
# ----------------------------------------------------------------------
def heartbeat(source, ts, ack=0, seq=0):
    return encode(HeartbeatMessage(FTMPHeader(
        MessageType.HEARTBEAT, source=source, group=GROUP, sequence_number=seq,
        timestamp=ts, ack_timestamp=ack)))


def connection_of(payload):
    # below the ORB (all-zero connection id, request 0) or on a
    # connection, or a request number alone, by length
    cid = (7, 100, 7, len(payload)) if len(payload) % 3 == 0 else (0, 0, 0, 0)
    return cid, len(payload) if len(payload) % 2 else 0


def record(e, *, seq=0, ts=0, ack=0, payload=b"", cid=(0, 0, 0, 0), req=0, flags=0,
           delta=None, plen=None):
    """One Regular record: a full one, or with ``delta=(ts step, ack
    step)`` a delta record; ``flags`` is XORed into what the fields imply."""
    connection = any(cid) or req
    first = ((LITTLE if e == "<" else 0) | (DELTA if delta else 0)
             | (CONNECTION if connection else 0)) ^ flags
    out = struct.pack(e + "B", first)
    out += struct.pack(e + "BB", *delta) if delta else struct.pack(e + "IQQ", seq, ts, ack)
    if connection:
        out += struct.pack(e + "IIIIQ", *cid, req)
    return out + struct.pack(e + "H", len(payload) if plen is None else plen) + payload


def verbatim(part, e, *, plen=None, marker=VERBATIM):
    """The record a part of any kind once took: 0x80, u32 length, the
    part as it came.  It opens no record now."""
    return struct.pack(e + "BI", marker, len(part) if plen is None else plen) + part


def full_regular(seq, ts, e, *, source=SENDER, group=GROUP, payload=b"x",
                 retransmission=False):
    return encode(RegularMessage(
        FTMPHeader(MessageType.REGULAR, source=source, group=group, sequence_number=seq,
                   timestamp=ts, ack_timestamp=0, little_endian=e == "<",
                   retransmission=retransmission),
        ConnectionId.none(), seq, payload))


def envelope(records, e="<", *, count=None, source=SENDER, head=(0, 0, 0), short=True):
    """A BATCH datagram; ``head`` is its header's (seq, ts, ack), the
    record before the first.  Its header is the 21 B one where ``head``
    fits it and ``short`` holds — what ``encode`` gives a small envelope
    — else the 40 B one, which decodes too."""
    body = struct.pack(e + "H", len(records) if count is None else count) + b"".join(records)
    seq, ts, ack = head
    flags = LITTLE if e == "<" else 0
    if short and ts < 2**32 and 0 <= ts - ack < 256:
        return struct.pack(e + "4sBBBBHHIIB", MAGIC, VERSION_MAJOR, VERSION_MINOR,
                           flags | SHORT, int(MessageType.BATCH), source, GROUP, seq, ts,
                           ts - ack) + body
    return struct.pack(e + "4sBBBBIIIIQQ", MAGIC, VERSION_MAJOR, VERSION_MINOR, flags,
                       int(MessageType.BATCH), 40 + len(body), source, GROUP, *head) + body


def _regular(flags=0, delta=True):
    def build(e, seq, ts, p, prev):
        ack = ts - ts % 4  # shared by runs of records, as acks are
        cid, req = connection_of(p)
        steps = None
        if delta and prev is not None and seq == prev[0] + 1:
            steps = (ts - prev[1], ack - prev[2])
            if not all(0 <= step < 256 for step in steps):
                steps = None
        return record(e, seq=seq, ts=ts, ack=ack, payload=p, cid=cid, req=req, flags=flags,
                      delta=steps), (seq, ts, ack)
    return build


def _delta(e, seq, ts, p, prev):
    # a delta record whatever came before: its seq is the predecessor's
    # + 1 and its steps are what they can be of the ts drawn; with no
    # known predecessor (after a record that opens none) any steps do
    cid, req = connection_of(p)
    if prev is None:
        return record(e, payload=p, cid=cid, req=req, delta=(1, 0)), None
    steps = (min(max(ts - prev[1], 0), 255), len(p) % 3)
    after = (prev[0] + 1, prev[1] + steps[0], prev[2] + steps[1])
    return record(e, payload=p, cid=cid, req=req, delta=steps), after


def below_the_orb(seq, ts, e, payload=b"x"):
    """A Regular with no connection: the connectionless layout, in the
    21 B header below ts 256 (its ack is 0), else the 40 B one."""
    return encode(RegularMessage(
        FTMPHeader(MessageType.REGULAR, source=SENDER, group=GROUP, sequence_number=seq,
                   timestamp=ts, ack_timestamp=0, little_endian=e == "<"),
        ConnectionId.none(), 0, payload))


def zero_block(seq, ts, e, payload=b"x"):
    """The same in the 68 B layout, connection block all zero: it decodes,
    but ``encode`` never emits it, so no BATCH carries it."""
    return struct.pack(e + "4sBBBBIIIIQQ24xI", MAGIC, VERSION_MAJOR, VERSION_MINOR,
                       LITTLE if e == "<" else 0, int(MessageType.REGULAR),
                       68 + len(payload), SENDER, GROUP, seq, ts, 0, len(payload)) + payload


def full_header(seq, ts, e, payload=b"x"):
    """A Regular below the ORB in the 40 B header whatever its fields: it
    decodes, but where they fit the 21 B header ``encode`` never emits
    it, so no BATCH carries it."""
    return struct.pack(e + "4sBBBBIIIIQQ", MAGIC, VERSION_MAJOR, VERSION_MINOR,
                       (LITTLE if e == "<" else 0) | 0x04, int(MessageType.REGULAR),
                       40 + len(payload), SENDER, GROUP, seq, ts, 0) + payload


def _ack_step_past_ts(part, e):
    # a short header's ack step one past its timestamp (below 255 in
    # every session here): the part does not decode
    if part[6] & SHORT:
        part[20] = struct.unpack_from(e + "I", part, 16)[0] + 1


def _verbatim(**kw):
    return lambda e, seq, ts, p, prev: (verbatim(full_regular(seq, ts, e, payload=p, **kw), e),
                                        None)


def _verbatim_part(damage):
    """A former verbatim record of a Regular ``damage(bytearray)`` has
    spoiled."""
    def build(e, seq, ts, p, prev):
        part = bytearray(full_regular(seq, ts, e, payload=p))
        damage(part, e)
        return verbatim(bytes(part), e), None
    return build


def body_start(part):
    """Where a datagram's body starts: after the 21 B or the 40 B header."""
    return 21 if part[6] & SHORT else 40


def _set_payload_length(plen):
    return lambda part, e: struct.pack_into(e + "I", part, body_start(part) + 24, plen(part))


def _cut_body(part, e):
    # 27 of the 28 bytes of the fixed body prefix, a full header's size
    # field to match (the short one's length is the datagram's)
    del part[body_start(part) + 27:]
    if not part[6] & SHORT:
        struct.pack_into(e + "I", part, 8, len(part))


def _framing(build):
    return lambda e, seq, ts, p, prev: (build(e, seq, ts, p), None)


#: record kind -> builder(e, seq, ts, payload, prev) -> (bytes, prev after),
#: where ``prev`` is the (seq, ts, ack) a delta record would extend: the
#: envelope header's at the start of a datagram, None after a record that
#: opens none.  The first row is what the send path coalesces; every other
#: one a way for a record to be different
RECORDS = {
    "regular": _regular(),
    "full": _regular(delta=False),  # a full record that could be a delta
    "delta": _delta,
    # a record with the retransmission bit records once had
    "retransmitted": lambda e, seq, ts, p, prev: (_regular(flags=RETRANSMISSION)(
        e, seq, ts, p, prev)[0], None),
    # the former verbatim record, around every kind of part it once
    # carried: each is a decode error for the whole datagram
    "verbatim": _verbatim(),
    "verbatim_retransmitted": _verbatim(retransmission=True),
    "verbatim_foreign_source": _verbatim(source=9),
    "verbatim_foreign_group": _verbatim(group=GROUP + 1),
    "verbatim_connectionless": lambda e, seq, ts, p, prev: (
        verbatim(below_the_orb(seq, ts, e, payload=p), e), None),
    "verbatim_zero_block": lambda e, seq, ts, p, prev: (
        verbatim(zero_block(seq, ts, e, payload=p), e), None),
    "verbatim_full_header": lambda e, seq, ts, p, prev: (
        verbatim(full_header(seq, ts, e, payload=p), e), None),
    "ack_step_past_ts": _verbatim_part(_ack_step_past_ts),
    "heartbeat": lambda e, seq, ts, p, prev: (verbatim(encode(HeartbeatMessage(FTMPHeader(
        MessageType.HEARTBEAT, source=SENDER, group=GROUP, sequence_number=seq,
        timestamp=ts, ack_timestamp=0, little_endian=e == "<"))), e), None),
    "unknown_type": _verbatim_part(lambda part, e: part.__setitem__(7, 0xEE)),
    "endianness_flipped": _verbatim_part(lambda part, e: part.__setitem__(6, part[6] ^ LITTLE)),
    "payload_past_body": _verbatim_part(
        _set_payload_length(lambda part: len(part) - body_start(part) - 27)),
    "payload_length_huge": _verbatim_part(_set_payload_length(lambda part: 0xFFFFFFFF)),
    "body_short_of_regular_prefix": _verbatim_part(_cut_body),
    "nested_batch": lambda e, seq, ts, p, prev: (verbatim(encode(BatchMessage(
        FTMPHeader(MessageType.BATCH, source=SENDER, group=GROUP, sequence_number=0,
                   timestamp=0, ack_timestamp=0, little_endian=e == "<"),
        (full_regular(seq, ts, e, payload=p),))), e), None),
    # framing faults: the datagram is a CodecError
    "record_endianness_flipped": _framing(
        lambda e, seq, ts, p: record(e, seq=seq, ts=ts, payload=p, flags=LITTLE)),
    "spare_flag_bits": _framing(
        lambda e, seq, ts, p: record(e, seq=seq, ts=ts, payload=p, flags=0x40)),
    "verbatim_and_new_bit": _framing(
        lambda e, seq, ts, p: verbatim(full_regular(seq, ts, e, payload=p), e,
                                       marker=VERBATIM | DELTA)),
    "body_length_past_end": _framing(
        lambda e, seq, ts, p: record(e, seq=seq, ts=ts, payload=p, plen=0xFFFF)),
    "verbatim_length_past_end": _framing(
        lambda e, seq, ts, p: verbatim(full_regular(seq, ts, e, payload=p), e,
                                       plen=0xFFFFFF)),
}
#: the kinds a BATCH holds: a datagram of these alone decodes
RUN_KINDS = ("regular", "full", "delta")
#: the parts the verbatim record once carried, and the receive path
#: decoded one by one
VERBATIM_KINDS = ("verbatim", "verbatim_retransmitted", "verbatim_foreign_source",
                  "verbatim_foreign_group", "verbatim_connectionless",
                  "verbatim_zero_block", "verbatim_full_header", "ack_step_past_ts",
                  "heartbeat", "unknown_type",
                  "endianness_flipped", "payload_past_body", "payload_length_huge",
                  "body_short_of_regular_prefix", "nested_batch")

endianness = st.sampled_from("<>")
clean_kinds = st.sampled_from(RUN_KINDS + ("regular",) * 4)
hostile_kinds = st.sampled_from(sorted(RECORDS)) | clean_kinds
#: a record's sequence number and timestamp relative to what an in-order
#: stream would carry next: mostly exactly that, so runs do form
steps = st.sampled_from([0, 0, 0, 0, 0, 1, 2, -1])
ENVELOPE_DAMAGE = ["none", "none", "none", "prefix", "count_over", "count_under"]
#: the envelope header's (seq, ts, ack) against the first record's (seq,
#: ts, ack): what ``encode`` writes, zeros, or a base a delta record
#: carries past 0xFFFFFFFF or 2**64 - 1
HEADS = ["encoded", "encoded", "encoded", "zeros", "seq_max", "ts_max", "ack_max"]


def head_of(kind, seq, ts):
    ack = ts - ts % 4
    return {"encoded": (seq - 1, ts, ack), "zeros": (0, 0, 0),
            "seq_max": (0xFFFFFFFF, ts, ack), "ts_max": (seq - 1, U64_MAX - 1, ack),
            "ack_max": (seq - 1, ts, U64_MAX)}[kind]


@st.composite
def sessions(draw, max_datagrams=1, peer=False):
    """BATCH datagrams one sender might emit in turn, each a ``(raw,
    record kinds, envelope intact)`` triple; sequence numbers start at 2
    and timestamps at 10.  Delta and full records mix with records a
    BATCH no longer holds, on the base ``encode`` puts in the envelope
    header or another.  With
    ``peer``, PEER's heartbeats come in between: how far it has been
    heard is what lets the ordering gate deliver — and its
    acknowledgements, stability move — part of the way into a batch."""
    seq, ts = 2, 10
    out = []
    for _ in range(draw(st.integers(1, max_datagrams))):
        if peer and draw(st.booleans()):
            heard = draw(st.integers(ts - 2, ts + 8))
            out.append((heartbeat(PEER, heard, ack=draw(st.integers(0, heard))), [], True))
        e = draw(endianness)
        # half the datagrams are what a sender would emit, so that the
        # faults in the other half meet a receiver in mid-stream
        hostile = draw(st.booleans())
        head = head_of(draw(st.sampled_from(HEADS)) if hostile else "encoded", seq, ts)
        records, record_kinds, prev = [], [], head
        for _ in range(draw(st.integers(0, 6) if hostile else st.integers(1, 8))):
            kind = draw(hostile_kinds if hostile else clean_kinds)
            step = draw(steps) if hostile else 0
            raw, prev = RECORDS[kind](e, seq + step, ts + step, draw(st.binary(max_size=12)),
                                      prev)
            records.append(raw)
            record_kinds.append(kind)
            if step == 0:
                seq, ts = seq + 1, ts + 1
        damage = draw(st.sampled_from(ENVELOPE_DAMAGE)) if hostile else "none"
        count = None
        if damage == "count_over":
            count = len(records) + draw(st.integers(1, 3))
        elif damage == "count_under" and records:
            count = len(records) - 1
        # a hostile sender may put a header that fits 21 B in 40
        raw = envelope(records, e, count=count, head=head,
                       short=draw(st.booleans()) if hostile else True)
        if damage == "prefix":
            # a full header's size field goes on announcing the whole
            # datagram, as if the tail were lost; a second variant
            # repairs it so that the cut is found inside the records.
            # The short header has no size field: its cut is the second.
            cut = draw(st.integers(0, len(raw)))
            raw = raw[:cut]
            if cut >= 12 and not raw[6] & SHORT and draw(st.booleans()):
                raw = raw[:8] + struct.pack(e + "I", cut) + raw[12:]
        out.append((raw, record_kinds, damage in ("none", "count_under")))
    return out


def decoded_or_error(data):
    try:
        return decode(data)
    except CodecError as exc:
        return str(exc)


def part_by_part():
    """The receive path with RMP taking none of any run: it routes every
    part of a batch one by one."""
    return mock.patch.object(RMP, "on_run", lambda rmp, run: 0)


# ----------------------------------------------------------------------
# the codec
# ----------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(sessions(), st.sampled_from([bytes, memoryview]))
@example([(envelope([], "<"), [], True)], bytes)
@example([(envelope([], ">", count=2), [], False)], memoryview)
def test_in_pass_decode_is_the_record_loop_and_decode_of_each_part(session, buffer):
    (raw, kinds, intact), = session
    got = decoded_or_error(buffer(raw))
    if isinstance(got, str):
        return
    # whatever decodes is records of the kinds a BATCH holds, and each
    # part is a message, what its standalone encoding decodes to
    if intact:
        assert all(k in RUN_KINDS for k in kinds[:len(got.parts)])
    for message in got.parts:
        assert type(message) is RegularMessage and type(message.payload) is bytes
        size = message.header.message_size
        alone = encode(message)
        assert len(alone) == size
        assert decode(alone) == message
    # and the parts are what the envelope encodes again
    assert decode(encode(got)).parts == got.parts


@pytest.mark.parametrize("e", "<>")
def test_what_the_send_path_coalesces_decodes_in_the_envelope_pass(e):
    # the same parts given as the wire bytes ``perf/`` builds them in
    raws = tuple(full_regular(seq, 10 + seq, e, payload=b"p" * seq) for seq in range(1, 9))
    parts = tuple(decode(raw) for raw in raws)

    def batch(parts):
        return encode(BatchMessage(
            FTMPHeader(MessageType.BATCH, source=SENDER, group=GROUP, sequence_number=0,
                       timestamp=0, ack_timestamp=0, little_endian=e == "<"), parts))

    sent = batch(parts)
    assert batch(raws) == sent
    for data in (sent, memoryview(sent)):
        for got in (decode(data), decode_view(data)):
            assert got.parts == parts
            assert all(type(m.payload) is bytes for m in got.parts)
            assert tuple(encode(m) for m in got.parts) == raws


# ----------------------------------------------------------------------
# the receive path
# ----------------------------------------------------------------------
def receiver(seed=1):
    """Member 1 of the group (1, SENDER, PEER), alone on its network:
    the other two exist only as the datagrams it is handed.  It has had
    SENDER's message 1 (RMP expects 2 next) and has heard itself far
    past every timestamp used here, so what it can deliver is set by
    how far the other two have been heard."""
    net = Network(lan(), seed=seed)
    listener = RecordingListener()
    stack = FTMPStack(net.endpoint(1), FTMPConfig(), listener)
    stack.create_group(GROUP, ADDRESS, (1, SENDER, PEER))
    stack.clock.observe(500)
    net.run_for(0.05)  # its own heartbeats, looped back
    assert stack._groups[GROUP].romp.order_ts(1) > 500
    stack._on_datagram(full_regular(1, 5, "<"))
    return stack, listener, net


def state_of(stack, listener):
    g = stack._groups[GROUP]
    return {
        "counters": stack.snapshot(),
        "deliveries": [(d.source, d.sequence_number, d.timestamp, d.payload)
                       for d in listener.deliveries],
        "rmp": {src: (s.next_seq, s.highest_heard, sorted(s.pending),
                      s.nack_timer is not None, s.deferred_heartbeat is not None)
                for src, s in g.rmp.sources().items()},
        "retained": sorted(k for k in g.buffer._store),
        "queued": g.romp.queued(),
        "order_ts": dict(g.romp._order_ts),
        "peer_ack": dict(g.romp._peer_ack),
        "clock": stack.clock.time,
    }


@settings(max_examples=150, deadline=None)
@given(sessions(max_datagrams=3, peer=True), st.sampled_from([bytes, memoryview]))
def test_nothing_escapes_and_the_run_path_ends_where_part_by_part_does(session, buffer):
    (fast, fast_l, fast_net), (slow, slow_l, slow_net) = receiver(), receiver()
    for raw, _kinds, _intact in session:
        fast._on_datagram(buffer(raw))  # must not raise, whatever ``raw`` is
        with part_by_part():
            slow._on_datagram(buffer(raw))
        assert state_of(fast, fast_l) == state_of(slow, slow_l)
    # and after the NACK / heartbeat timers the datagrams armed have run
    fast_net.run_for(0.05)
    slow_net.run_for(0.05)
    assert state_of(fast, fast_l) == state_of(slow, slow_l)


def counter(stack, name):
    return stack.snapshot()[f"group.{GROUP}.{name}"]


@pytest.mark.parametrize("e", "<>")
@pytest.mark.parametrize("kind", VERBATIM_KINDS)
def test_one_bad_part_costs_the_datagram(kind, e):
    # between two good records: the record it takes opens none, and the
    # receiver counts one decode error for the datagram and takes nothing
    # of it
    stack, listener, net = receiver()
    good = RECORDS["regular"]
    raw = envelope([good(e, 2, 11, b"a", None)[0], RECORDS[kind](e, 3, 12, b"b", None)[0],
                    good(e, 3, 13, b"c", None)[0]], e)
    for data in (raw, memoryview(raw)):
        with pytest.raises(CodecError, match="bad batch record flags 0x80"):
            decode(data)
    stack._on_datagram(raw)
    assert stack.snapshot()["stack.decode_errors"] == 1
    assert counter(stack, "batch.batches_received") == 0
    assert counter(stack, "batch.messages_unbatched") == 0
    assert counter(stack, "rmp.delivered") == 1
    assert stack._groups[GROUP].rmp.sources()[SENDER].next_seq == 2


@pytest.mark.parametrize("kind, message", [
    ("body_length_past_end", "truncated batch part"),
    # the former verbatim record's own length: its flags byte opens no
    # record before the length is read
    ("verbatim_length_past_end", "bad batch record flags 0x80"),
])
def test_a_record_running_past_the_datagram_is_a_decode_error(kind, message):
    stack, listener, net = receiver()
    raw = envelope([RECORDS["regular"]("<", 2, 11, b"a", None)[0],
                    RECORDS[kind]("<", 3, 12, b"b", None)[0]])
    with pytest.raises(CodecError, match=message):
        decode(raw)
    stack._on_datagram(raw)
    assert stack.snapshot()["stack.decode_errors"] == 1
    assert counter(stack, "batch.batches_received") == 0
    assert counter(stack, "rmp.delivered") == 1


def _good(e):
    return record(e, seq=2, ts=11, payload=b"a")


#: a record the reader cannot frame, after what comes first -> the error,
#: and the envelope header's (seq, ts, ack) where it is the fault (a
#: length running past the end is the test above).  Every delta fault
#: here carries a field past its width: it must be the codec's error
FRAMING_FAULTS = {
    "follows_after_verbatim": (
        lambda e: [verbatim(full_regular(2, 11, e), e),
                   record(e, payload=b"b", delta=(1, 0))],
        "bad batch record flags 0x80"),
    # records have no retransmission bit: a BATCH carries first
    # transmissions only
    "retransmission_bit": (
        lambda e: [_good(e), record(e, seq=3, ts=12, payload=b"b", flags=RETRANSMISSION)],
        "bad batch record flags 0x0[23]"),
    "seq_past_u32": (
        lambda e: [record(e, seq=0xFFFFFFFF, ts=11, payload=b"a"),
                   record(e, payload=b"b", delta=(1, 0))],
        "batch record sequence number past 0xFFFFFFFF"),
    "seq_past_u32_from_the_header": (
        lambda e: [record(e, payload=b"a", delta=(0, 0))],
        "batch record sequence number past 0xFFFFFFFF", (0xFFFFFFFF, 11, 0)),
    "ts_past_u64": (
        lambda e: [record(e, seq=2, ts=U64_MAX - 1, payload=b"a"),
                   record(e, payload=b"b", delta=(2, 0))],
        r"batch record timestamp past 2\*\*64 - 1"),
    "ack_past_u64": (
        lambda e: [record(e, seq=2, ts=11, ack=U64_MAX, payload=b"a"),
                   record(e, payload=b"b", delta=(1, 1))],
        r"batch record timestamp past 2\*\*64 - 1"),
    "ts_past_u64_from_the_header": (
        lambda e: [record(e, payload=b"a", delta=(255, 0))],
        r"batch record timestamp past 2\*\*64 - 1", (1, U64_MAX - 254, 0)),
    "verbatim_and_new_bit": (
        lambda e: [_good(e), verbatim(full_regular(3, 12, e), e, marker=VERBATIM | DELTA)],
        "bad batch record flags 0x84"),
    "verbatim_and_connection_bit": (
        lambda e: [_good(e), verbatim(full_regular(3, 12, e), e, marker=VERBATIM | CONNECTION)],
        "bad batch record flags 0x88"),
    "spare_flag_bits": (
        lambda e: [_good(e), record(e, seq=3, ts=12, payload=b"b", flags=0x40)],
        "bad batch record flags"),
    "record_endianness_flipped": (
        lambda e: [_good(e), record(e, seq=3, ts=12, payload=b"b", flags=LITTLE)],
        "bad batch record flags"),
    "record_cut_short": (
        lambda e: [_good(e), record(e, seq=3, ts=12, payload=b"")[:10]],
        "truncated batch record"),
    "delta_head_cut_short": (
        lambda e: [_good(e), record(e, payload=b"", delta=(1, 0))[:4]],
        "truncated batch record"),
}


@pytest.mark.parametrize("e", "<>")
@pytest.mark.parametrize("fault", sorted(FRAMING_FAULTS))
def test_a_record_that_cannot_be_framed_is_a_decode_error(fault, e):
    records, message, *head = FRAMING_FAULTS[fault]
    raw = envelope(records(e), e, head=head[0] if head else (0, 0, 0))
    for data in (raw, memoryview(raw)):
        with pytest.raises(CodecError, match=message):
            decode(data)
    stack, listener, net = receiver()
    stack._on_datagram(raw)
    assert stack.snapshot()["stack.decode_errors"] == 1
    assert counter(stack, "batch.batches_received") == 0
    assert counter(stack, "rmp.delivered") == 1


@pytest.mark.parametrize("e", "<>")
def test_work_is_bounded_by_the_bytes_present(e):
    # every record the reader frames takes at least 5 bytes (a delta
    # record's head), or the datagram is an error: the part count cannot
    # make it read past what arrived
    layouts = [layout for layout in wire._RECORD_LAYOUTS[e == "<"] if layout is not None]
    assert min(layout.size for layout in layouts) == 5
    assert len(layouts) == 4  # endianness fixed; delta x connection
    raw = envelope([_good(e)], e, count=0xFFFF)
    with pytest.raises(CodecError, match="truncated batch record"):
        decode(raw)


def test_parts_naming_another_group_do_not_move_the_senders_stream():
    # two Regulars headed for another group, numbered 1 and 2, inside an
    # envelope for this one: once fed to this group they took SENDER's
    # numbers 1 and 2, so its real first two messages were discarded as
    # duplicates and never asked for again.  Such a part has no record:
    # the datagram is refused whole
    foreign = [full_regular(seq, 100 + seq, "<", group=GROUP + 1, payload=b"foreign-%d" % seq)
               for seq in (1, 2)]
    with pytest.raises(CodecError, match="BATCH part"):
        encode(BatchMessage(FTMPHeader(MessageType.BATCH, source=SENDER, group=GROUP,
                                       sequence_number=0, timestamp=0, ack_timestamp=0),
                            tuple(foreign)))
    net = Network(lan(), seed=1)
    stacks, listeners = {}, {}
    for p in (1, SENDER, PEER):
        listeners[p] = RecordingListener()
        stacks[p] = FTMPStack(net.endpoint(p), FTMPConfig(), listeners[p])
        stacks[p].create_group(GROUP, ADDRESS, (1, SENDER, PEER))
    net.run_for(0.05)
    stacks[1]._on_datagram(envelope([verbatim(part, "<") for part in foreign]))
    for payload in (b"real-1", b"real-2"):
        stacks[SENDER].multicast(GROUP, payload)
    net.run_for(0.2)
    for p in (1, SENDER, PEER):
        assert [d.payload for d in listeners[p].deliveries] == [b"real-1", b"real-2"], p
    assert stacks[1].snapshot()["stack.decode_errors"] == 1
    assert counter(stacks[1], "batch.messages_unbatched") == 0
    assert counter(stacks[1], "rmp.duplicates") == 0
    assert stacks[1]._groups[GROUP].rmp.sources()[SENDER].next_seq == 3


def test_nested_batch_is_dropped_and_counted_not_recursed_into():
    # 1,276 envelopes, each the single part of the next, fit one 59,998
    # byte datagram; following them was a RecursionError out of
    # FTMPStack._on_datagram.  ``encode`` refuses to nest, and the
    # receiver stops at the outer envelope's first record
    def wrap(parts):
        return envelope([verbatim(part, "<") for part in parts])

    with pytest.raises(CodecError, match="BATCH part"):
        encode(BatchMessage(FTMPHeader(MessageType.BATCH, source=SENDER, group=GROUP,
                                       sequence_number=0, timestamp=0, ack_timestamp=0),
                            (wrap([]),)))
    raw, depth = wrap([]), 1
    while len(bigger := wrap([raw])) <= 59_999:
        raw, depth = bigger, depth + 1
    assert depth > 1000
    with pytest.raises(CodecError, match="bad batch record flags 0x80"):
        decode(raw)
    net = Network(lan(), seed=1)
    stacks, listeners = {}, {}
    for p in (1, SENDER):
        listeners[p] = RecordingListener()
        stacks[p] = FTMPStack(net.endpoint(p), FTMPConfig(), listeners[p])
        stacks[p].create_group(GROUP, ADDRESS, (1, SENDER))
    net.run_for(0.05)
    stacks[1]._on_datagram(raw)
    assert stacks[1].snapshot()["stack.decode_errors"] == 1
    assert counter(stacks[1], "batch.batches_received") == 0
    assert counter(stacks[1], "batch.messages_unbatched") == 0
    # the receiver is still a working member
    stacks[SENDER].multicast(GROUP, b"after")
    net.run_for(0.05)
    assert [d.payload for d in listeners[1].deliveries] == [b"after"]
