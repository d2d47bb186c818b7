"""Direct unit tests of the ROMP layer against a mock group context."""

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FTMPConfig, LamportClock, MessageType, RetransmissionBuffer
from repro.core.messages import (
    AddProcessorMessage,
    ConnectionId,
    FTMPHeader,
    HeartbeatMessage,
    RegularMessage,
    RemoveProcessorMessage,
)
from repro.core.romp import DEPARTED, JOINING, LEAVING, ROMP, Peer


class MockGroup:
    """Minimal group-context stand-in for exercising ROMP in isolation."""

    def __init__(self, pid=1, membership=(1, 2, 3)):
        self._pid = pid
        self.membership = tuple(membership)
        self.config = FTMPConfig()
        self.clock = LamportClock()
        self.buffer = RetransmissionBuffer()
        self.delivered: List[RegularMessage] = []
        self.ordered_control: List = []
        self.source_ordered: List = []
        self.alive: List[int] = []
        self.barrier_cleared = 0
        self.stability_advances: List[int] = []
        #: its own neighbours: what ROMP hands PGMP and the credit window
        self.pgmp = self.flow = self
        #: the member lifecycle table
        self.peers = {}
        self.joining = False

    @property
    def pid(self):
        return self._pid

    def deliver_regular(self, msg):
        self.delivered.append(msg)

    def pgmp_receive_ordered(self, msg):
        self.ordered_control.append(msg)

    def on_source_ordered(self, msg):
        self.source_ordered.append(msg)

    def note_alive(self, src):
        self.alive.append(src)

    def drain(self):
        self.barrier_cleared += 1

    def on_stability(self, stable):
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
    own = regular(1, ts=4)
    r.on_own_send(own)  # stamped before the others arrived, back after
    r.receive(regular(3, ts=5))
    r.receive(regular(2, ts=5, seq=5))
    r.receive(own)
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
    g.buffer.add(1, 1, regular(1, ts=5))
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


def add_processor(src, ts, seq, new_member):
    return AddProcessorMessage(
        FTMPHeader(MessageType.ADD_PROCESSOR, source=src, group=1,
                   sequence_number=seq, timestamp=ts, ack_timestamp=0),
        membership_timestamp=0, membership=(1, 2), sequence_numbers={1: 0, 2: 0},
        new_member=new_member)


def test_a_joiner_counts_in_stability_from_its_add_processor_on():
    # The join hang: a Regular in flight when the AddProcessor was built
    # lies above the baseline it gives the joiner, and every member can
    # acknowledge it one round before the add is ordered.  From the
    # AddProcessor on, the joiner counts with the ack heard from it — 0
    # before any — so the message stays retained for its NACK.
    g = MockGroup(membership=(1, 2))
    r = ROMP(g)
    g.buffer.add(2, 1, regular(2, ts=5, seq=1))
    r.receive(regular(2, ts=5, seq=1))
    r.receive(add_processor(2, ts=6, seq=2, new_member=4))
    r.receive_heartbeat(heartbeat(1, ts=7, ack=0))
    assert [type(m) for m in g.ordered_control] == [AddProcessorMessage]
    assert r.ack_timestamp == 6
    r.receive_heartbeat(heartbeat(2, ts=8, ack=6))  # both members are past it
    assert r.stability_timestamp() == 0
    assert len(g.buffer) == 1
    r.observe_header(heartbeat(4, ts=3, ack=2).header)
    assert r.stability_timestamp() == 2
    assert len(g.buffer) == 1
    # ordered: a view admits the joiner (it counts as a member from
    # then on), or the add was abandoned
    r.settle_joiner(4, (6, 2))
    assert r.stability_timestamp() == 6
    r.recheck_stability()
    assert len(g.buffer) == 0


def rows(g):
    """The lifecycle table as {pid: (state, key)}."""
    return {pid: (peer.state, peer.key) for pid, peer in g.peers.items()}


def test_a_joiner_hold_ends_with_its_newest_add_or_its_sponsor():
    g = MockGroup(membership=(1, 2, 3))
    r = ROMP(g)
    r.hold_for_joiner(add_processor(2, ts=6, seq=1, new_member=4))
    r.hold_for_joiner(add_processor(3, ts=9, seq=1, new_member=4))  # re-issued
    r.hold_for_joiner(add_processor(2, ts=6, seq=1, new_member=4))  # a resend
    r.hold_for_joiner(add_processor(2, ts=7, seq=2, new_member=1))  # ourselves
    assert rows(g) == {4: (JOINING, (9, 3))}
    r.settle_joiner(4, (6, 2))  # the stale one, ordered and dropped
    assert rows(g) == {4: (JOINING, (9, 3))}
    r.purge_source(3)  # its sponsor left: nobody orders it now
    assert rows(g) == {}


def test_a_leaver_counts_in_stability_until_it_acknowledges_its_removal():
    # The same for a member on its way out: its removal ordered here, it
    # has not necessarily ordered that itself, and what it still lacks
    # to do so must stay retained until its ack passes the removal
    g = MockGroup(membership=(1, 2, 3))
    r = ROMP(g)
    r.receive_heartbeat(heartbeat(3, ts=4, ack=3))
    r.hold_for_leaver(3, removal_ts=10)
    assert rows(g) == {3: (LEAVING, 10)}
    g.membership = (1, 2)
    r.purge_source(3)
    g.buffer.add(2, 1, regular(2, ts=12, seq=1))
    r.receive(regular(2, ts=12, seq=1))
    r.receive_heartbeat(heartbeat(1, ts=13, ack=0))
    r.receive_heartbeat(heartbeat(2, ts=14, ack=12))
    assert r.ack_timestamp == 12
    assert r.stability_timestamp() == 3
    # the receive path records the ack it hears from the leaver
    g.peers[3].ack = 8
    r.recheck_stability()
    assert r.stability_timestamp() == 8
    assert len(g.buffer) == 1
    g.peers[3].state = DEPARTED  # its ack passed the removal: it ordered that
    r.recheck_stability()
    assert r.stability_timestamp() == 12
    assert len(g.buffer) == 0
    r.hold_for_leaver(2, removal_ts=12)  # heard past it already: no hold
    assert rows(g) == {3: (DEPARTED, 10)}


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


def test_a_departed_members_queued_message_is_not_delivered():
    g = MockGroup(membership=(1, 2, 3))
    r = ROMP(g)
    r.receive(regular(3, ts=5, seq=1))
    # 3 departs with its message still queued: no view delivers it
    g.membership = (1, 2)
    r.purge_source(3)
    r.receive_heartbeat(heartbeat(1, ts=9))
    r.receive_heartbeat(heartbeat(2, ts=9))
    assert g.delivered == []


def test_the_fault_drain_drops_what_a_convicted_member_sends_past_its_synced_prefix():
    # 3 is convicted with its stream synced through seq 1.  Back from a
    # crash it sends on — seq 2, stamped by a clock that slept through the
    # survivors' progress — and the drain must not deliver it behind (8, 2)
    g = MockGroup(membership=(1, 2, 3))
    r = ROMP(g)
    r.receive(regular(3, ts=5, seq=1))
    r.receive(regular(2, ts=8, seq=1))
    r.receive_heartbeat(heartbeat(1, ts=9))
    r.begin_transition(frozenset({1, 2}), cut_ts=20, targets={1: 0, 2: 1, 3: 1})
    r.receive(regular(3, ts=6, seq=2))
    assert [(m.header.timestamp, m.header.source) for m in g.delivered] == [(5, 3), (8, 2)]
    assert r.queued() == 0 and r.transition_drained(20)


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


# ----------------------------------------------------------------------
# a run (the Regulars of one BATCH datagram) == the same messages one by one
# ----------------------------------------------------------------------
class RunGroup(MockGroup):
    """MockGroup that applies an ordered RemoveProcessor the way the group
    does — queue and source purged, membership tuple replaced, gate
    re-entered — and keeps one log of everything delivered or reported."""

    def __init__(self, membership, safe=False):
        super().__init__(pid=1, membership=membership)
        if safe:
            self.config = FTMPConfig(delivery_mode="safe")
        self.romp = None
        self.log = []

    def deliver_regular(self, msg):
        self.log.append(("deliver", msg.header.timestamp, msg.header.source,
                         self.clock.time, len(self.buffer)))

    def pgmp_receive_ordered(self, msg):
        gone = msg.member_to_remove
        self.log.append(("remove", msg.header.timestamp, gone))
        self.romp.purge_queue_of(gone)
        self.romp.purge_source(gone)
        self.membership = tuple(p for p in self.membership if p != gone)
        self.romp.evaluate()

    def on_stability(self, stable):
        self.log.append(("stable", stable, self.clock.time, self.romp.ack_timestamp))

    def drain(self):
        self.log.append(("barrier cleared",))


def remove_processor(src, ts, member, ack=0):
    return RemoveProcessorMessage(
        FTMPHeader(MessageType.REMOVE_PROCESSOR, source=src, group=1,
                   sequence_number=ts, timestamp=ts, ack_timestamp=ack),
        member_to_remove=member)


def romp_under(g):
    """A ROMP on ``g`` whose every gate entry logs what it did."""
    r = g.romp = ROMP(g)
    inner = r.evaluate

    def evaluate():
        before = len(g.log)
        inner()
        if len(g.log) > before:
            g.log.insert(before, ("gate", len(g.log) - before))

    r.evaluate = evaluate
    return r


def one_by_one(r, g, msg):
    """What the receive path and RMP do around ROMP for one message."""
    h = msg.header
    r.observe_header(h)
    g.buffer.add(h.source, h.sequence_number, msg)
    if h.message_type == MessageType.HEARTBEAT:
        r.receive_heartbeat(msg)
    else:
        r.receive(msg)


def as_run(r, g, run):
    """What ``RMP.on_run`` does with a run: ROMP folds in up to the
    message after which the gate is due, the caller enters it."""
    taken = 0
    while taken < len(run):
        n, gate_due = r.receive_run(run, taken, len(run))
        assert n > 0
        taken += n
        if gate_due:
            r.evaluate()


def observable(r, g):
    alive = [p for i, p in enumerate(g.alive) if i == 0 or g.alive[i - 1] != p]
    return {
        "log": g.log,
        "order_ts": dict(r._order_ts), "peer_ack": dict(r._peer_ack),
        "queue": sorted(e[:2] for e in r._queue), "keys": sorted(r._queue_keys),
        "by_src": {s: dict(i) for s, i in r._by_src.items()},
        "staging": {s: [m.header.timestamp for m in ms] for s, ms in r._staging.items()},
        "unsafe": [m.header.timestamp for m in r._unsafe],
        # (not stability_timestamp(): asking re-syncs the min trackers)
        "ack": r.ack_timestamp, "notified": r._stable_notified,
        "barrier": r.can_send_ordered(), "stats": r.stats,
        "clock": g.clock.time, "alive": alive, "membership": g.membership,
        "retained": sorted(g.buffer._store),
    }


def check_run_equals_one_by_one(before, run, after, *, membership=(1, 2, 3),
                                safe=False, barrier=None, then=None):
    """Feed ``before`` and ``after`` one by one to two ROMPs and ``run``
    as a run to one of them; both must stand the same after every stage.
    ``then(romp, group)`` is applied to both just ahead of the run."""
    groups = RunGroup(membership, safe), RunGroup(membership, safe)
    romps = [romp_under(g) for g in groups]
    for r, g in zip(romps, groups):
        if barrier is not None:
            r.set_send_barrier(barrier)
        for msg in before():
            one_by_one(r, g, msg)
        if then is not None:
            then(r, g)
    assert observable(romps[0], groups[0]) == observable(romps[1], groups[1])
    as_run(romps[0], groups[0], run())
    for msg in run():
        one_by_one(romps[1], groups[1], msg)
    assert observable(romps[0], groups[0]) == observable(romps[1], groups[1])
    for r, g in zip(romps, groups):
        for msg in after():
            one_by_one(r, g, msg)
    assert observable(romps[0], groups[0]) == observable(romps[1], groups[1])
    return groups[0].log


def run_of(src, first_ts, count, ack_lag=2):
    return lambda: [regular(src, ts=first_ts + i, ack=max(0, first_ts + i - ack_lag))
                    for i in range(count)]


def test_run_delivers_part_way_and_skips_the_gate_for_the_rest():
    # members 1 and 3 have been heard to 12: the run's messages up to 12
    # are deliverable as they arrive, the rest wait — no gate entry
    def before():
        return [heartbeat(1, ts=12, ack=3), heartbeat(3, ts=12, ack=3)]

    g = RunGroup((1, 2, 3))
    r = romp_under(g)
    for msg in before():
        one_by_one(r, g, msg)
    entered = []
    inner = r.evaluate
    r.evaluate = lambda: (entered.append(len(g.log)), inner())
    as_run(r, g, run_of(2, 10, 6)())
    assert [e[1] for e in g.log if e[0] == "deliver"] == [10, 11, 12]
    assert len(entered) == 3  # not six: 13, 14 and 15 only looked at the head
    log = check_run_equals_one_by_one(
        before, run_of(2, 10, 6),
        lambda: [heartbeat(1, ts=40, ack=20), heartbeat(3, ts=40, ack=20)])
    assert [e[1] for e in log if e[0] == "deliver"] == [10, 11, 12, 13, 14, 15]


def test_run_reports_stability_where_one_by_one_does():
    # the run's own acknowledgements lift the stability minimum in
    # mid-run: each report must see the clock and our ack of that moment
    def before():
        return [regular(1, ts=4), regular(3, ts=5, ack=0), heartbeat(1, ts=30, ack=9),
                heartbeat(3, ts=30, ack=9)]

    log = check_run_equals_one_by_one(
        before, lambda: [regular(2, ts=6 + i, ack=4 + i) for i in range(6)],
        lambda: [heartbeat(3, ts=50, ack=40)])
    assert [e for e in log if e[0] == "stable"]


def test_run_under_safe_delivery_enters_the_gate_while_a_hold_exists():
    def before():
        return [heartbeat(1, ts=30, ack=0), heartbeat(3, ts=30, ack=0)]

    log = check_run_equals_one_by_one(
        before, run_of(2, 10, 5, ack_lag=1),
        lambda: [heartbeat(1, ts=60, ack=50), heartbeat(3, ts=60, ack=50),
                 heartbeat(2, ts=60, ack=50)],
        safe=True)
    assert [e[1] for e in log if e[0] == "deliver"] == [10, 11, 12, 13, 14]


def test_run_behind_a_send_barrier_clears_it_at_the_same_message():
    def before():
        return [heartbeat(1, ts=30), heartbeat(3, ts=30)]

    log = check_run_equals_one_by_one(before, run_of(2, 10, 6), lambda: [], barrier=12)
    cleared = log.index(("barrier cleared",))
    assert [e[1] for e in log[:cleared] if e[0] == "deliver"] == [10, 11, 12, 13]


def test_run_clears_a_send_barrier_its_head_is_still_waiting_behind():
    # member 2 was the least heard (8); its next message (13) hands that
    # place to member 3 (11): the cover passes the barrier at 10 although
    # the head, 13, stays put — the gate has to be entered for the barrier
    def before():
        return [heartbeat(1, ts=30), heartbeat(3, ts=11), heartbeat(2, ts=8)]

    log = check_run_equals_one_by_one(
        before, lambda: [regular(2, ts=13), regular(2, ts=14)], lambda: [], barrier=10)
    assert log == [("gate", 1), ("barrier cleared",)]


def test_run_after_a_membership_swap_reports_the_stability_jump_at_once():
    # member 3, who never acknowledged, is gone from the membership tuple
    # when the run arrives: stability jumps with no acknowledgement moving
    def before():
        return [regular(1, ts=5), heartbeat(2, ts=6), heartbeat(3, ts=6),
                heartbeat(2, ts=7, ack=5), heartbeat(1, ts=30)]

    def swap(r, g):
        g.membership = (1, 2)

    log = check_run_equals_one_by_one(
        before, lambda: [regular(2, ts=40, ack=5), regular(2, ts=41, ack=5)],
        lambda: [], then=swap)
    assert [e[:2] for e in log if e[0] == "stable"] == [("stable", 5)]


def test_run_repeating_a_timestamp_queues_its_key_once():
    log = check_run_equals_one_by_one(
        lambda: [heartbeat(1, ts=5)],
        lambda: [regular(2, ts=10, seq=1), regular(2, ts=10, seq=2), regular(2, ts=9, seq=3)],
        lambda: [heartbeat(1, ts=60), heartbeat(3, ts=60)])
    assert [e[1] for e in log if e[0] == "deliver"] == [9, 10]


def test_run_from_a_non_member_is_staged_not_queued():
    log = check_run_equals_one_by_one(
        lambda: [heartbeat(1, ts=30), heartbeat(3, ts=30)], run_of(9, 10, 5),
        lambda: [heartbeat(1, ts=60), heartbeat(3, ts=60)])
    assert not [e for e in log if e[0] == "deliver"]


def test_remove_of_the_runs_own_source_delivered_from_inside_the_run():
    # member 3's RemoveProcessor(2) at (12, 3) becomes deliverable when
    # the run reaches 12, behind the run's own (12, 2): the rest of the
    # run then comes from a processor that is no longer a member
    def before():
        return [heartbeat(1, ts=30), remove_processor(3, ts=12, member=2),
                heartbeat(3, ts=30)]

    log = check_run_equals_one_by_one(
        before, run_of(2, 10, 6),
        lambda: [heartbeat(1, ts=60), heartbeat(3, ts=60)])
    assert [e[:2] for e in log if e[0] in ("deliver", "remove")] == [
        ("deliver", 10), ("deliver", 11), ("deliver", 12), ("remove", 12)]


@st.composite
def run_cases(draw):
    """(before, run, after, options): events from members 1 and 3 around
    a run from member 2 (or from the non-member 9), timestamps rising per
    source, acknowledgements trailing them by a drawn lag."""
    clocks = {1: 0, 2: 0, 3: 0}

    def events(limit, sources):
        out = []
        for _ in range(draw(st.integers(0, limit))):
            src = draw(st.sampled_from(sources))
            clocks[src] += draw(st.integers(1, 6))
            ts = clocks[src]
            ack = max(0, ts - draw(st.integers(0, 8)))
            kind = draw(st.sampled_from(["regular", "heartbeat", "heartbeat", "remove"]))
            out.append((kind, src, ts, ack))
        return out

    before = events(8, [1, 2, 3])
    src = draw(st.sampled_from([2, 2, 2, 9]))
    run, ts = [], clocks[2]
    for _ in range(draw(st.integers(1, 8))):
        ts += draw(st.integers(1, 6))
        run.append((src, ts, max(0, ts - draw(st.integers(0, 6)))))
    after = events(4, [1, 3]) + [("heartbeat", 1, 190, 180), ("heartbeat", 3, 190, 180)]
    options = dict(safe=draw(st.booleans()),
                   barrier=draw(st.none() | st.integers(1, 20)))
    return before, run, after, options


def build(events):
    made = {"regular": lambda s, ts, ack: regular(s, ts=ts, ack=ack),
            "heartbeat": lambda s, ts, ack: heartbeat(s, ts=ts, ack=ack),
            "remove": lambda s, ts, ack: remove_processor(s, ts=ts, member=2, ack=ack)}
    return lambda: [made[kind](src, ts, ack) for kind, src, ts, ack in events]


@settings(max_examples=300, deadline=None)
@given(run_cases())
def test_any_run_equals_the_same_messages_one_by_one(case):
    before, run, after, options = case
    check_run_equals_one_by_one(
        build(before), lambda: [regular(s, ts=ts, ack=ack) for s, ts, ack in run],
        build(after), **options)


def test_leader_ordering_declines_runs():
    from repro.core.llft import LeaderOrdering

    assert LeaderOrdering.receive_run is not ROMP.receive_run
    # every discipline that decides differently must say what a run is to it
    for cls in ROMP.__subclasses__():
        if cls._take_ordered is not ROMP._take_ordered or cls.evaluate is not ROMP.evaluate:
            assert cls.receive_run is not ROMP.receive_run, cls


def test_a_convicted_members_messages_past_our_report_wait_for_the_drain():
    # we reported 3's stream through seq 1; 3 comes back and sends seq 2.
    # Held, not delivered in the old view and not dropped: another
    # survivor reported it, so the round's targets reach it and the
    # drain delivers it
    g = MockGroup(membership=(1, 2, 3))
    r = ROMP(g)
    r.receive(regular(3, ts=5, seq=1))
    r.hold_past({3: 1})
    r.receive(regular(3, ts=6, seq=2))
    r.receive_heartbeat(heartbeat(1, ts=9))
    r.receive_heartbeat(heartbeat(2, ts=9))
    r.receive_heartbeat(heartbeat(3, ts=9))
    assert [(m.header.timestamp, m.header.source) for m in g.delivered] == [(5, 3)]
    r.begin_transition(frozenset({1, 2}), cut_ts=20, targets={1: 0, 2: 0, 3: 2})
    assert [(m.header.timestamp, m.header.source) for m in g.delivered] == [(5, 3), (6, 3)]


def test_a_view_that_ends_a_drain_cuts_the_old_view_of_the_convicted():
    # the drain delivered 1's and 2's messages past 3's synced prefix
    # (seq 1); then an AddProcessor at key (20, 1) installed a view and
    # ended the drain with 3 still a member.  3's seq 2 at ts 6 is the
    # old view's, below what was delivered: dropped.  Its seq 3 at ts 25
    # follows the view, and is delivered as the gate allows
    g = MockGroup(membership=(1, 2, 3))
    r = ROMP(g)
    r.receive(regular(3, ts=5, seq=1))
    r.begin_transition(frozenset({1, 2}), cut_ts=20, targets={1: 1, 2: 1, 3: 1})
    r.receive(regular(1, ts=8, seq=1))
    r.receive(regular(2, ts=9, seq=1))
    r.end_transition()
    r.cut_old_view({3: 1}, (20, 1))
    r.receive(regular(3, ts=6, seq=2))
    r.receive(regular(3, ts=25, seq=3))
    for src in (1, 2, 3):
        r.receive_heartbeat(heartbeat(src, ts=30, seq=1 if src != 3 else 3))
    assert [(m.header.timestamp, m.header.source) for m in g.delivered] == [
        (5, 3), (8, 1), (9, 2), (25, 3)]


def test_stability_is_computed_only_when_the_minimum_ack_can_move():
    g = MockGroup()
    r = ROMP(g)
    for src in (1, 2, 3):
        r.receive(regular(src, ts=src, seq=1))
    for src in (1, 2, 3):
        r.receive_heartbeat(heartbeat(src, ts=10, seq=1))
    assert r.ack_timestamp == 3
    computed = []
    stability = r.stability_timestamp
    r.stability_timestamp = lambda: computed.append(1) or stability()
    r.observe_header(heartbeat(2, ts=11, seq=1, ack=3).header)
    assert len(computed) == 1  # 2 held the minimum, 0, with 3
    # 2 no longer holds it (3's ack is still 0): stability cannot move
    r.observe_header(heartbeat(2, ts=12, seq=1, ack=4).header)
    assert len(computed) == 1
    r.observe_header(heartbeat(3, ts=12, seq=1, ack=3).header)
    assert len(computed) == 2
    assert g.stability_advances == [3]
    # a lifecycle row counts in stability: every advance computes it
    g.peers[4] = Peer(JOINING, (1, 1))
    r.observe_header(heartbeat(2, ts=13, seq=1, ack=5).header)
    assert len(computed) == 3
