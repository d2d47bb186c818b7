"""Property-based tests (hypothesis) for core data structures and codecs."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    AddProcessorMessage,
    ConnectionId,
    DuplicateDetector,
    FTMPHeader,
    LamportClock,
    MembershipMessage,
    MessageType,
    RegularMessage,
    RetransmissionBuffer,
    SuspectMessage,
    decode,
    encode,
)

u32 = st.integers(min_value=0, max_value=2**32 - 1)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
pid_list = st.lists(u32, max_size=8, unique=True).map(tuple)
seq_vec = st.dictionaries(u32, u32, max_size=8)


@st.composite
def headers(draw, mtype):
    return FTMPHeader(
        message_type=mtype,
        source=draw(u32),
        group=draw(u32),
        sequence_number=draw(u32),
        timestamp=draw(u64),
        ack_timestamp=draw(u64),
        retransmission=draw(st.booleans()),
        little_endian=draw(st.booleans()),
    )


@st.composite
def connection_ids(draw):
    return ConnectionId(draw(u32), draw(u32), draw(u32), draw(u32))


@given(h=headers(MessageType.REGULAR), cid=connection_ids(),
       num=u64, payload=st.binary(max_size=2048))
def test_regular_round_trip(h, cid, num, payload):
    out = decode(encode(RegularMessage(h, cid, num, payload)))
    assert out.connection_id == cid
    assert out.request_num == num
    assert out.payload == payload
    assert out.header.timestamp == h.timestamp
    assert out.header.retransmission == h.retransmission
    assert out.header.little_endian == h.little_endian


@given(h=headers(MessageType.ADD_PROCESSOR), ts=u64, members=pid_list,
       vec=seq_vec, new=u32)
def test_add_processor_round_trip(h, ts, members, vec, new):
    out = decode(encode(AddProcessorMessage(h, ts, members, vec, new)))
    assert out.membership_timestamp == ts
    assert out.membership == members
    assert out.sequence_numbers == vec
    assert out.new_member == new


@given(h=headers(MessageType.MEMBERSHIP), ts=u64, cur=pid_list,
       vec=seq_vec, new=pid_list)
def test_membership_round_trip(h, ts, cur, vec, new):
    out = decode(encode(MembershipMessage(h, ts, cur, vec, new)))
    assert out.current_membership == cur
    assert out.sequence_numbers == vec
    assert out.new_membership == new


@given(h=headers(MessageType.SUSPECT), ts=u64, suspects=pid_list)
def test_suspect_round_trip(h, ts, suspects):
    out = decode(encode(SuspectMessage(h, ts, suspects)))
    assert out.suspects == suspects


@given(st.lists(st.one_of(st.just("tick"), u64), min_size=1, max_size=200))
def test_lamport_clock_strictly_monotonic_per_send(events):
    clock = LamportClock()
    sent = []
    for ev in events:
        if ev == "tick":
            sent.append(clock.tick())
        else:
            clock.observe(ev)
            # invariant: clock never goes backwards
            assert clock.time >= (sent[-1] if sent else 0)
    assert sent == sorted(sent)
    assert len(set(sent)) == len(sent)


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 50), u64,
                          st.binary(max_size=32)), max_size=100),
       u64)
def test_buffer_never_reclaims_unstable(entries, stable_ts):
    buf = RetransmissionBuffer()
    for src, seq, ts, data in entries:
        msg = RegularMessage(FTMPHeader(MessageType.REGULAR, src, 1, seq, ts, 0),
                             ConnectionId.none(), 0, data)
        encode(msg)  # its message_size: the wire length retention counts
        buf.add(src, seq, msg)
    buf.collect(stable_ts)
    # everything left has timestamp above the stability point
    for src, seq, ts, data in entries:
        kept = buf.get(src, seq)
        if kept is not None:
            assert kept.header.timestamp > stable_ts
        else:
            # only reclaimed if some entry at that key was stable
            pass
    # byte accounting is exact
    assert buf.bytes == sum(len(encode(m)) for m in buf._store.values())


@given(st.lists(st.tuples(st.integers(1, 20), st.sampled_from(["request", "reply"])),
                max_size=200))
def test_duplicate_detector_exactly_once(events):
    det = DuplicateDetector()
    cid = ConnectionId(1, 2, 3, 4)
    first_seen = set()
    for num, kind in events:
        dup = det.is_duplicate(cid, num, kind)
        assert dup == ((num, kind) in first_seen)
        first_seen.add((num, kind))


@given(h=headers(MessageType.CONNECT), cid=connection_ids(), gid=u32,
       addr=u32, ts=u64, members=pid_list)
def test_connect_round_trip(h, cid, gid, addr, ts, members):
    from repro.core import ConnectMessage

    out = decode(encode(ConnectMessage(h, cid, gid, addr, ts, members)))
    assert out.connection_id == cid
    assert out.processor_group_id == gid
    assert out.ip_multicast_address == addr
    assert out.membership_timestamp == ts
    assert out.membership == members


@given(h=headers(MessageType.CONNECT_REQUEST), cid=connection_ids(),
       pids=pid_list)
def test_connect_request_round_trip(h, cid, pids):
    from repro.core import ConnectRequestMessage

    out = decode(encode(ConnectRequestMessage(h, cid, pids)))
    assert out.connection_id == cid
    assert out.processor_ids == pids


@given(h=headers(MessageType.RETRANSMIT_REQUEST), pid=u32,
       start=u32, stop=u32)
def test_retransmit_request_round_trip(h, pid, start, stop):
    from repro.core import RetransmitRequestMessage

    out = decode(encode(RetransmitRequestMessage(h, pid, start, stop)))
    assert (out.processor_id, out.start_seq, out.stop_seq) == (pid, start, stop)


@given(h=headers(MessageType.REMOVE_PROCESSOR), member=u32)
def test_remove_processor_round_trip(h, member):
    from repro.core import RemoveProcessorMessage

    out = decode(encode(RemoveProcessorMessage(h, member)))
    assert out.member_to_remove == member


@given(h=headers(MessageType.HEARTBEAT))
def test_heartbeat_round_trip(h):
    from repro.core import HeartbeatMessage

    out = decode(encode(HeartbeatMessage(h)))
    assert out.header.sequence_number == h.sequence_number
    assert out.header.ack_timestamp == h.ack_timestamp


@given(data=st.binary(min_size=0, max_size=200))
def test_decoder_never_crashes_on_garbage(data):
    """decode() on arbitrary bytes raises CodecError, never anything else."""
    from repro.core import CodecError

    try:
        decode(data)
    except CodecError:
        pass
