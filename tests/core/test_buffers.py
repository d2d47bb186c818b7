"""Retransmission buffer + ack-timestamp garbage collection tests.

The buffer holds the message object itself and counts it by the length
of its standalone encoding (``header.message_size``)."""

from repro.core import MessageType, RetransmissionBuffer
from repro.core.messages import ConnectionId, FTMPHeader, RegularMessage


def message(source, seq, ts, size):
    """A Regular whose standalone encoding is ``size`` bytes long."""
    return RegularMessage(
        FTMPHeader(MessageType.REGULAR, source=source, group=1, sequence_number=seq,
                   timestamp=ts, ack_timestamp=0, message_size=size),
        ConnectionId.none(), 0, b"")


def test_add_and_get():
    b = RetransmissionBuffer()
    m = message(1, 1, 10, 3)
    b.add(1, 1, m)
    assert b.get(1, 1) is m
    assert b.get(1, 2) is None
    assert (1, 1) in b and (2, 1) not in b


def test_add_is_idempotent():
    b = RetransmissionBuffer()
    first = message(1, 1, 10, 3)
    b.add(1, 1, first)
    b.add(1, 1, message(1, 1, 10, 3))  # duplicate (retransmission)
    assert len(b) == 1
    assert b.get(1, 1) is first
    assert b.bytes == 3


def test_collect_reclaims_stable_messages_only():
    b = RetransmissionBuffer()
    b.add(1, 1, message(1, 1, 10, 1))
    b.add(1, 2, message(1, 2, 20, 1))
    b.add(2, 1, message(2, 1, 15, 1))
    reclaimed = b.collect(stable_timestamp=15)
    assert reclaimed == 2
    assert b.get(1, 2) is not None  # ts 20 > 15: kept
    assert b.get(1, 1) is None
    assert b.get(2, 1) is None


def test_collect_disabled_never_reclaims():
    b = RetransmissionBuffer(gc_enabled=False)
    b.add(1, 1, message(1, 1, 10, 1))
    assert b.collect(100) == 0
    assert len(b) == 1


def test_high_water_marks():
    b = RetransmissionBuffer()
    for i in range(10):
        b.add(1, i + 1, message(1, i + 1, i + 1, 10))
    b.collect(5)
    assert b.high_water_messages == 10
    assert b.high_water_bytes == 100
    assert len(b) == 5
    assert b.bytes == 50


def test_range_for_yields_only_held():
    b = RetransmissionBuffer()
    b.add(1, 1, message(1, 1, 1, 1))
    b.add(1, 3, message(1, 3, 3, 1))
    got = [m.header.sequence_number for m in b.range_for(1, 1, 5)]
    assert got == [1, 3]
    assert list(b.range_for(2, 1, 5)) == []


def test_counters():
    b = RetransmissionBuffer()
    b.add(1, 1, message(1, 1, 1, 1))
    b.add(1, 2, message(1, 2, 2, 1))
    b.collect(2)
    assert b.total_added == 2
    assert b.total_reclaimed == 2
