"""Hostile GIOP input at the adapter's header-first boundary.

``FTMPAdapter.on_deliver`` decides from the 12-byte GIOP header and a
peek at the Request's target who consumes a delivery; only a consumer
runs ``decode_giop``.  Whatever arrives, the three must agree on what is
malformed, do work bounded by the bytes present, and a malformed
delivery must reach ``downstream`` unrecorded — a bad first copy may not
shadow a good second one.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Delivery, FTMPConfig, FTMPStack, RecordingListener
from repro.giop import (
    GIOPHeader,
    GIOPMessageType,
    GroupRef,
    MarshalError,
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    ServiceContext,
    decode_giop,
    encode_giop,
    encode_values,
    giop_header,
    peek_request,
)
from repro.orb import ORB, ClientIdentity, FTMPAdapter
from repro.orb.futures import InvocationFuture
from repro.simnet import Network, lan

REF = GroupRef("T", domain=7, object_group=100, object_key=b"svc")
KINDS = ("request", "reply", "state")
HUGE = b"\xff\xff\xff\xff"  # 2**32 - 1 in either byte order

contexts = st.lists(
    st.builds(ServiceContext, st.integers(0, 2**32 - 1), st.binary(max_size=24)),
    max_size=3,
)
operations = st.sampled_from(["", "ping", "_set_state", "größe", "操作"]) | st.text(max_size=16)


@st.composite
def requests(draw, min_contexts=0):
    return RequestMessage(
        header=GIOPHeader(GIOPMessageType.REQUEST, little_endian=draw(st.booleans())),
        service_context=draw(contexts.filter(lambda c: len(c) >= min_contexts)),
        request_id=draw(st.integers(0, 2**32 - 1)),
        response_expected=draw(st.booleans()),
        object_key=draw(st.binary(max_size=32)),
        operation=draw(operations),
        requesting_principal=draw(st.binary(max_size=8)),
        body=draw(st.binary(max_size=64)),
    )


@st.composite
def replies(draw, min_contexts=0):
    return ReplyMessage(
        header=GIOPHeader(GIOPMessageType.REPLY, little_endian=draw(st.booleans())),
        service_context=draw(contexts.filter(lambda c: len(c) >= min_contexts)),
        request_id=draw(st.integers(0, 2**32 - 1)),
        reply_status=draw(st.sampled_from(list(ReplyStatus))),
        body=draw(st.binary(max_size=64)),
    )


def peek(data):
    """What the adapter does before it records anything."""
    mtype, little = giop_header(data)
    if mtype == GIOPMessageType.REQUEST:
        return peek_request(data, little)
    return mtype


def patched(data, offset, replacement):
    return data[:offset] + replacement + data[offset + len(replacement):]


def header_mutations(data):
    """Encodings every member must reject on the header alone."""
    yield from (data[:n] for n in range(len(data)))  # every strict prefix
    yield patched(data, 6, bytes([data[6] ^ 1]))  # flipped byte order
    yield from (patched(data, 7, bytes([t])) for t in (8, 9, 0x7F, 0xFF))
    little = data[6] == 1
    size = len(data) - 12
    for wrong in (size - 1, size + 1):
        yield patched(data, 8, wrong.to_bytes(4, "little" if little else "big"))


# ----------------------------------------------------------------------
# the helpers against decode_giop
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(msg=requests())
def test_peek_equals_the_decoded_fields(msg):
    raw = encode_giop(msg)
    mtype, little = giop_header(raw)
    assert (mtype, little) == (GIOPMessageType.REQUEST, msg.header.little_endian)
    full = decode_giop(raw)
    assert peek_request(raw, little) == (
        full.response_expected, full.object_key, full.operation)
    assert peek_request(raw, little) == (
        msg.response_expected, msg.object_key, msg.operation)


@settings(max_examples=60, deadline=None)
@given(msg=requests() | replies())
def test_header_mutations_are_rejected_by_peek_and_decode(msg):
    for bad in header_mutations(encode_giop(msg)):
        with pytest.raises(MarshalError):
            peek(bad)
        with pytest.raises(MarshalError):
            decode_giop(bad)


@settings(max_examples=60, deadline=None)
@given(msg=requests() | replies())
def test_a_context_count_of_4g_costs_one_failed_read(msg):
    bad = patched(encode_giop(msg), 12, HUGE)
    with pytest.raises(MarshalError):
        decode_giop(bad)
    if isinstance(msg, RequestMessage):
        with pytest.raises(MarshalError):
            peek(bad)


@settings(max_examples=60, deadline=None)
@given(msg=requests(min_contexts=1) | replies(min_contexts=1))
def test_a_context_length_of_4g_costs_one_failed_read(msg):
    bad = patched(encode_giop(msg), 20, HUGE)
    with pytest.raises(MarshalError):
        decode_giop(bad)
    if isinstance(msg, RequestMessage):
        with pytest.raises(MarshalError):
            peek(bad)


@settings(max_examples=100, deadline=None)
@given(msg=requests() | replies(), data=st.data())
def test_a_corrupted_byte_raises_nothing_but_marshal_error(msg, data):
    raw = encode_giop(msg)
    at = data.draw(st.integers(0, len(raw) - 1))
    bad = patched(raw, at, bytes([raw[at] ^ data.draw(st.integers(1, 255))]))
    for parse in (peek, decode_giop):
        try:
            parse(bad)
        except MarshalError:
            pass


# ----------------------------------------------------------------------
# the adapter: hand on, record nothing, never raise
# ----------------------------------------------------------------------
class Servant:
    def ping(self, i=0):
        return i


def cluster():
    """One server, one client, the connection open; deliveries are then
    handed to the adapters directly, one fresh request number each.

    Built afresh for every example (1 ms): the adapters keep state across
    deliveries — the detector, the reassembler's partial messages — and
    one example's hostile bytes must not decide the next one's outcome."""
    net = Network(lan(), seed=0)
    sorb, corb = ORB(1, net.scheduler), ORB(8, net.scheduler)
    sink = RecordingListener()
    server = FTMPAdapter(sorb, FTMPStack(net.endpoint(1), FTMPConfig()), downstream=sink)
    client = FTMPAdapter(corb, FTMPStack(net.endpoint(8), FTMPConfig()), downstream=sink)
    sorb.poa.activate(REF.object_key, Servant())
    server.export(REF.domain, REF.object_group, (1,))
    client.set_client(ClientIdentity(3, 200, (8,)))
    assert corb.call(corb.proxy(REF), "ping", 1) == 1
    cid = client.connection_id_for(REF)
    group = client.stack.connection_binding(cid).group_id
    numbers = itertools.count(1000)

    def deliver(adapter, source, payload, request_num=None):
        d = Delivery(group=group, source=source, sequence_number=0, timestamp=0,
                     connection_id=cid, payload=payload, delivered_at=0.0,
                     request_num=next(numbers) if request_num is None else request_num)
        adapter.on_deliver(d)
        return d

    return server, client, sink, cid, deliver, numbers


def assert_handed_on_unrecorded(adapter, sink, cid, delivery):
    assert sink.deliveries[-1] is delivery
    assert not any(adapter.stack.duplicates.seen(cid, delivery.request_num, kind)
                   for kind in KINDS)


@settings(max_examples=25, deadline=None)
@given(msg=requests() | replies())
def test_adapter_hands_header_mutations_downstream_unrecorded(msg):
    server, client, sink, cid, deliver, numbers = cluster()
    for bad in header_mutations(encode_giop(msg)):
        for adapter, source in ((server, 8), (client, 1)):
            assert_handed_on_unrecorded(adapter, sink, cid, deliver(adapter, source, bad))


@settings(max_examples=50, deadline=None)
@given(msg=requests(min_contexts=1), offset=st.sampled_from([12, 20]))
def test_adapter_hands_hostile_request_contexts_downstream_unrecorded(msg, offset):
    server, client, sink, cid, deliver, numbers = cluster()
    bad = patched(encode_giop(msg), offset, HUGE)
    # every member peeks at a Request, consumer or not
    for adapter, source in ((server, 8), (client, 8)):
        assert_handed_on_unrecorded(adapter, sink, cid, deliver(adapter, source, bad))


@settings(max_examples=50, deadline=None)
@given(msg=replies(min_contexts=1), offset=st.sampled_from([12, 20]))
def test_malformed_reply_leaves_the_pending_future_pending(msg, offset):
    server, client, sink, cid, deliver, numbers = cluster()
    bad = patched(encode_giop(msg), offset, HUGE)
    # the member holding the future is the one that opens a Reply's body
    fut, number = InvocationFuture(), next(numbers)
    client._pending[(cid, number)] = fut
    assert_handed_on_unrecorded(client, sink, cid, deliver(client, 1, bad, number))
    assert not fut.done and client._pending[(cid, number)] is fut
    # the malformed first copy does not shadow a well-formed second one
    deliver(client, 1, encode_giop(msg), number)
    assert fut.done and (cid, number) not in client._pending
    assert client.stack.duplicates.seen(cid, number, "reply")


@settings(max_examples=100, deadline=None)
@given(msg=requests() | replies(), data=st.data())
def test_adapter_never_raises_on_a_corrupted_byte(msg, data):
    server, client, sink, cid, deliver, numbers = cluster()
    raw = encode_giop(msg)
    at = data.draw(st.integers(0, len(raw) - 1))
    bad = patched(raw, at, bytes([raw[at] ^ data.draw(st.integers(1, 255))]))
    deliver(server, 8, bad)
    deliver(client, 1, bad)


def test_a_set_more_fragments_bit_costs_one_message_not_the_connection():
    """A flags octet with the more-fragments bit set and no Fragment to
    follow leaves a partial message behind; the source's next message
    interrupts it, is handed on with the partial dropped, and the one
    after is served — the connection is not rejected from then on."""
    server, client, sink, cid, deliver, numbers = cluster()
    reply = encode_giop(ReplyMessage(header=GIOPHeader(GIOPMessageType.REPLY),
                                     body=encode_values([1])))
    handed_on = len(sink.deliveries)
    deliver(client, 1, patched(reply, 6, bytes([reply[6] | 0x02])))
    assert client._reassembler.pending() == 1 and len(sink.deliveries) == handed_on
    fut, number = InvocationFuture(), next(numbers)
    client._pending[(cid, number)] = fut
    assert_handed_on_unrecorded(client, sink, cid, deliver(client, 1, reply, number))
    assert client._reassembler.pending() == 0 and not fut.done
    deliver(client, 1, reply, number)
    assert fut.result() == 1


def test_reply_whose_values_do_not_unmarshal_ends_the_invocation_with_marshal():
    from repro.giop import Marshal

    server, client, sink, cid, deliver, numbers = cluster()
    fut, number = InvocationFuture(), next(numbers)
    client._pending[(cid, number)] = fut
    reply = ReplyMessage(header=GIOPHeader(GIOPMessageType.REPLY), body=b"\xff" * 7)
    deliver(client, 1, encode_giop(reply), number)
    with pytest.raises(Marshal):
        fut.result()
    assert client.stack.duplicates.seen(cid, number, "reply")
