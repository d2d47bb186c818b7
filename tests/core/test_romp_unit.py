"""Direct unit tests of the ROMP layer against a mock group context."""

from typing import List

from repro.core import FTMPConfig, LamportClock, MessageType, RetransmissionBuffer
from repro.core.messages import FTMPHeader, HeartbeatMessage, RegularMessage, ConnectionId
from repro.core.romp import ROMP


class MockGroup:
    """Minimal group-context stand-in for exercising ROMP in isolation."""

    def __init__(self, pid=1, membership=(1, 2, 3)):
        self._pid = pid
        self.membership = tuple(membership)
        self.config = FTMPConfig()
        self.clock = LamportClock()
        self.buffer = RetransmissionBuffer()
        self.legacy_keys = set()
        self.delivered: List[RegularMessage] = []
        self.ordered_control: List = []
        self.source_ordered: List = []
        self.alive: List[int] = []
        self.barrier_cleared = 0
        self.stability_advances: List[int] = []

    @property
    def pid(self):
        return self._pid

    def deliver_regular(self, msg):
        self.delivered.append(msg)

    def pgmp_receive_ordered(self, msg):
        self.ordered_control.append(msg)

    def pgmp_receive_source_ordered(self, msg):
        self.source_ordered.append(msg)

    def note_alive(self, src):
        self.alive.append(src)

    def on_send_barrier_cleared(self):
        self.barrier_cleared += 1

    def on_stability_advance(self, stable):
        self.stability_advances.append(stable)


def regular(src, ts, seq=None, ack=0):
    return RegularMessage(
        header=FTMPHeader(MessageType.REGULAR, source=src, group=1,
                          sequence_number=seq if seq is not None else ts,
                          timestamp=ts, ack_timestamp=ack),
        connection_id=ConnectionId.none(),
        request_num=0,
        payload=f"{src}:{ts}".encode(),
    )


def heartbeat(src, ts, seq=0, ack=0):
    return HeartbeatMessage(
        header=FTMPHeader(MessageType.HEARTBEAT, source=src, group=1,
                          sequence_number=seq, timestamp=ts, ack_timestamp=ack)
    )


def test_no_delivery_until_all_members_cover_timestamp():
    g = MockGroup()
    r = ROMP(g)
    r.receive(regular(1, ts=5))
    assert g.delivered == []  # members 2,3 not heard past ts 5
    r.receive_heartbeat(heartbeat(2, ts=6))
    assert g.delivered == []  # member 3 still behind
    r.receive_heartbeat(heartbeat(3, ts=7))
    assert [m.header.source for m in g.delivered] == [1]


def test_delivery_in_timestamp_then_source_order():
    g = MockGroup()
    r = ROMP(g)
    r.receive(regular(3, ts=5))
    r.receive(regular(2, ts=5, seq=5))
    r.receive(regular(1, ts=4))
    r.receive_heartbeat(heartbeat(1, ts=9))
    r.receive_heartbeat(heartbeat(2, ts=9, seq=5))
    r.receive_heartbeat(heartbeat(3, ts=9, seq=5))
    keys = [(m.header.timestamp, m.header.source) for m in g.delivered]
    assert keys == [(4, 1), (5, 2), (5, 3)]


def test_equal_timestamp_coverage_suffices():
    # coverage uses >= : a member whose last timestamp equals the head's
    # cannot produce anything earlier
    g = MockGroup(membership=(1, 2))
    r = ROMP(g)
    r.receive(regular(1, ts=5))
    r.receive_heartbeat(heartbeat(2, ts=5))
    assert len(g.delivered) == 1


def test_ack_advances_with_deliveries_and_drives_stability():
    g = MockGroup(membership=(1, 2))
    r = ROMP(g)
    g.buffer.add(1, 1, 5, b"raw")
    r.receive(regular(1, ts=5, ack=0))
    r.receive_heartbeat(heartbeat(2, ts=6, ack=0))
    assert r.ack_timestamp == 5
    # stability is the min over members' acks; peer ack still 0
    assert r.stability_timestamp() == 0
    assert len(g.buffer) == 1
    # peer acks past ts 5 -> stable -> buffer reclaimed
    r.receive_heartbeat(heartbeat(2, ts=7, ack=5))
    assert r.stability_timestamp() == 5
    assert len(g.buffer) == 0


def test_bypass_types_never_enter_the_queue():
    from repro.core.messages import SuspectMessage

    g = MockGroup(membership=(1, 2))
    r = ROMP(g)
    s = SuspectMessage(
        header=FTMPHeader(MessageType.SUSPECT, source=2, group=1,
                          sequence_number=1, timestamp=50, ack_timestamp=0),
        membership_timestamp=0,
        suspects=(9,),
    )
    r.receive(s)
    assert g.source_ordered == [s]
    assert r.queued() == 0


def test_staging_holds_non_member_sources_until_flush():
    g = MockGroup(membership=(1, 2))
    r = ROMP(g)
    r.receive(regular(9, ts=5))  # 9 is not a member
    assert r.queued() == 0
    assert g.delivered == []
    # admit 9 and flush: the staged message enters the queue
    g.membership = (1, 2, 9)
    r.flush_staging(9)
    assert r.queued() == 1
    r.receive_heartbeat(heartbeat(1, ts=9))
    r.receive_heartbeat(heartbeat(2, ts=9))
    r.evaluate()
    assert [m.header.source for m in g.delivered] == [9]


def test_staging_is_capacity_bounded():
    g = MockGroup(membership=(1,))
    r = ROMP(g)
    r._STAGING_CAP = 3
    for ts in range(1, 10):
        r.receive(regular(9, ts=ts, seq=ts))
    assert len(r._staging[9]) == 3


def test_send_barrier_blocks_until_coverage():
    g = MockGroup(membership=(1, 2))
    r = ROMP(g)
    assert r.can_send_ordered()
    r.set_send_barrier(10)
    assert not r.can_send_ordered()
    r.receive_heartbeat(heartbeat(1, ts=11))
    assert not r.can_send_ordered()  # member 2 not past the barrier
    r.receive_heartbeat(heartbeat(2, ts=12))
    assert r.can_send_ordered()
    assert g.barrier_cleared == 1


def test_purge_queue_after_seq_cutoff():
    g = MockGroup(membership=(1, 2, 3))
    r = ROMP(g)
    r.receive(regular(3, ts=5, seq=1))
    r.receive(regular(3, ts=6, seq=2))
    r.receive(regular(3, ts=7, seq=3))
    assert r.queued() == 3
    dropped = r.purge_queue_after(3, seq_cutoff=1)
    assert dropped == 2
    assert r.queued_from(3) == 1
    assert r.keys_from(3) == [(5, 3)]


def test_legacy_keys_allow_delivery_from_departed_member():
    g = MockGroup(membership=(1, 2, 3))
    r = ROMP(g)
    r.receive(regular(3, ts=5, seq=1))
    # 3 departs; its queued message is grandfathered
    g.membership = (1, 2)
    g.legacy_keys = {(5, 3)}
    r.purge_source(3)
    r.receive_heartbeat(heartbeat(1, ts=9))
    r.receive_heartbeat(heartbeat(2, ts=9))
    assert [m.header.source for m in g.delivered] == [3]


def test_duplicate_keys_not_enqueued_twice():
    g = MockGroup(membership=(1, 2))
    r = ROMP(g)
    m = regular(1, ts=5)
    r.receive(m)
    r.receive(m)
    assert r.queued() == 1


def test_observe_header_notes_liveness():
    g = MockGroup(membership=(1, 2))
    r = ROMP(g)
    r.observe_header(heartbeat(2, ts=3).header)
    assert g.alive == [2]
    assert g.clock.time >= 3


def test_header_is_observed_once_per_datagram():
    g = MockGroup(membership=(1, 2, 3))
    r = ROMP(g)
    m = regular(2, ts=5)
    r.observe_header(m.header)  # the receive path, before RMP
    r.receive(m)                # RMP hands the same message up
    assert g.alive == [2]
    # the token is one-shot: a message handed in again (or one RMP had
    # parked while other datagrams went by) is observed by ROMP itself
    r.receive(m)
    assert g.alive == [2, 2]
    parked = regular(3, ts=6)
    hb = heartbeat(2, ts=7)
    r.observe_header(parked.header)
    r.observe_header(hb.header)
    r.receive_heartbeat(hb)
    r.receive(parked)
    assert g.alive == [2, 2, 3, 2, 3]


def test_stability_jump_without_an_ack_moving_is_still_reported():
    # member 3 never acknowledges; a view without it lifts the minimum
    # although no acknowledgement advances — evaluate() must report it
    g = MockGroup(membership=(1, 2, 3))
    r = ROMP(g)
    r.receive(regular(1, ts=5))
    r.receive_heartbeat(heartbeat(2, ts=6))
    r.receive_heartbeat(heartbeat(3, ts=6))   # delivers ts 5: own ack = 5
    r.receive_heartbeat(heartbeat(2, ts=7, ack=5))
    assert g.stability_advances == []
    g.membership = (1, 2)
    r.evaluate()
    assert g.stability_advances == [5]
    r.evaluate()  # nothing changed: nothing reported twice
    assert g.stability_advances == [5]


# ----------------------------------------------------------------------
# §7 quiescence barrier: empty membership must NOT clear it
# ----------------------------------------------------------------------
def test_send_barrier_holds_while_membership_is_empty():
    # A still-joining group has membership (): the all() over members is
    # vacuously true, so without an explicit guard the barrier would clear
    # before any real member has been heard past it.
    g = MockGroup(membership=())
    romp = ROMP(g)
    romp.set_send_barrier(5)
    assert not romp.can_send_ordered()
    romp.evaluate()  # evaluate() re-checks the barrier every time
    assert not romp.can_send_ordered()
    assert g.barrier_cleared == 0


def test_send_barrier_clears_once_members_are_heard_past_it():
    g = MockGroup(membership=())
    romp = ROMP(g)
    romp.set_send_barrier(5)
    # membership arrives (join completes) and every member is heard past
    # the barrier timestamp: now — and only now — the barrier lifts
    g.membership = (1, 2)
    romp.receive_heartbeat(heartbeat(1, 6))
    romp.receive_heartbeat(heartbeat(2, 7))
    assert romp.can_send_ordered()
    assert g.barrier_cleared == 1
