"""Retransmission buffer + ack-timestamp garbage collection tests."""

from repro.core import RetransmissionBuffer


def test_add_and_get():
    b = RetransmissionBuffer()
    b.add(1, 1, 10, b"aaa")
    m = b.get(1, 1)
    assert m is not None and m.data == b"aaa" and m.timestamp == 10
    assert b.get(1, 2) is None
    assert (1, 1) in b and (2, 1) not in b


def test_add_is_idempotent():
    b = RetransmissionBuffer()
    b.add(1, 1, 10, b"aaa")
    b.add(1, 1, 10, b"bbb")  # duplicate (retransmission)
    assert len(b) == 1
    assert b.get(1, 1).data == b"aaa"
    assert b.bytes == 3


def test_collect_reclaims_stable_messages_only():
    b = RetransmissionBuffer()
    b.add(1, 1, 10, b"a")
    b.add(1, 2, 20, b"b")
    b.add(2, 1, 15, b"c")
    reclaimed = b.collect(stable_timestamp=15)
    assert reclaimed == 2
    assert b.get(1, 2) is not None  # ts 20 > 15: kept
    assert b.get(1, 1) is None
    assert b.get(2, 1) is None


def test_collect_disabled_never_reclaims():
    b = RetransmissionBuffer(gc_enabled=False)
    b.add(1, 1, 10, b"a")
    assert b.collect(100) == 0
    assert len(b) == 1


def test_high_water_marks():
    b = RetransmissionBuffer()
    for i in range(10):
        b.add(1, i + 1, i + 1, b"x" * 10)
    b.collect(5)
    assert b.high_water_messages == 10
    assert b.high_water_bytes == 100
    assert len(b) == 5
    assert b.bytes == 50


def test_range_for_yields_only_held():
    b = RetransmissionBuffer()
    b.add(1, 1, 1, b"a")
    b.add(1, 3, 3, b"c")
    got = [m.sequence_number for m in b.range_for(1, 1, 5)]
    assert got == [1, 3]
    assert list(b.range_for(2, 1, 5)) == []


def test_counters():
    b = RetransmissionBuffer()
    b.add(1, 1, 1, b"a")
    b.add(1, 2, 2, b"b")
    b.collect(2)
    assert b.total_added == 2
    assert b.total_reclaimed == 2
