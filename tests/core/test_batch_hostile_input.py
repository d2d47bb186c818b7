"""Hostile BATCH input at the receive path.

A BATCH datagram is the one FTMP message whose body is other messages, so
it is where a sender chooses how much work one datagram costs its
receivers.  Whatever arrives: ``CodecError`` (counted by the stack as a
decode error) or a counted per-part drop, nothing else escapes
``FTMPStack._on_datagram``, and one bad part costs that part only.
"""

from repro.core import FTMPConfig, FTMPStack, MessageType, RecordingListener
from repro.core.messages import BatchMessage, ConnectionId, FTMPHeader, RegularMessage
from repro.core.wire import encode
from repro.simnet import Network, lan

GROUP, ADDRESS = 1, 5001


def envelope(parts, source=2, little=True):
    return encode(BatchMessage(
        FTMPHeader(MessageType.BATCH, source=source, group=GROUP, sequence_number=0,
                   timestamp=0, ack_timestamp=0, little_endian=little),
        tuple(parts)))


def regular(seq, ts, source=2, payload=b"x", little=True, retransmission=False):
    return encode(RegularMessage(
        FTMPHeader(MessageType.REGULAR, source=source, group=GROUP, sequence_number=seq,
                   timestamp=ts, ack_timestamp=0, little_endian=little,
                   retransmission=retransmission),
        ConnectionId.none(), seq, payload))


def live_pair(seed=1):
    """Two founding members with heartbeats flowing; returns member 1's
    stack, its listener and the network."""
    net = Network(lan(), seed=seed)
    stacks, listeners = {}, {}
    for p in (1, 2):
        listeners[p] = RecordingListener()
        stacks[p] = FTMPStack(net.endpoint(p), FTMPConfig(), listeners[p])
        stacks[p].create_group(GROUP, ADDRESS, (1, 2))
    net.run_for(0.05)
    return stacks, listeners, net


def counter(stack, name):
    return stack.snapshot()[f"group.{GROUP}.{name}"]


def test_nested_batch_is_dropped_and_counted_not_recursed_into():
    # 2,307 envelopes, each the single part of the next, fit one 59,998
    # byte datagram; following them was a RecursionError out of
    # FTMPStack._on_datagram
    raw, depth = envelope([]), 1
    while len(bigger := envelope([raw])) <= 59_999:
        raw, depth = bigger, depth + 1
    assert depth > 2000
    stacks, listeners, net = live_pair()
    stacks[1]._on_datagram(raw)
    assert counter(stacks[1], "batch.batches_received") == 1
    assert counter(stacks[1], "batch.batch_decode_errors") == 1
    assert counter(stacks[1], "batch.messages_unbatched") == 0
    # the receiver is still a working member
    stacks[2].multicast(GROUP, b"after")
    net.run_for(0.05)
    assert [d.payload for d in listeners[1].deliveries] == [b"after"]


def test_nested_batch_costs_that_part_only():
    stacks, listeners, net = live_pair()
    seq = stacks[2]._groups[GROUP].last_sent_seq
    ts = stacks[2].clock.time
    parts = [regular(seq + 1, ts + 1), envelope([regular(seq + 2, ts + 2)]),
             regular(seq + 2, ts + 3)]
    stacks[1]._on_datagram(envelope(parts))
    assert counter(stacks[1], "batch.batch_decode_errors") == 1
    assert counter(stacks[1], "batch.messages_unbatched") == 2
    assert counter(stacks[1], "rmp.delivered") == 2
