"""Direct unit tests of PGMP's conviction rule and round bookkeeping."""

from types import SimpleNamespace
from typing import Dict, List, Tuple

from repro.core import FTMPConfig
from repro.core.messages import (
    FTMPHeader,
    MembershipMessage,
    RetransmitRequestMessage,
    SuspectMessage,
)
from repro.core.constants import MessageType
from repro.core.pgmp import PGMP
from repro.core.rmp import RMP


class MockTimer:
    def cancel(self):
        pass


class MockRMP:
    def __init__(self):
        self.tops: Dict[int, int] = {}

    def contiguous_top(self, pid):
        return self.tops.get(pid, 0)

    def set_baseline(self, pid, seq):
        self.tops[pid] = seq


class MockROMP:
    """Everyone is always heard arbitrarily far ahead: the fault-view
    drain phase completes immediately, so these tests exercise the
    conviction/sync logic without a live ordering layer."""

    def __init__(self):
        self.transition = None
        self.held = {}

    def order_ts(self, pid):
        return 10**9

    def hold_past(self, reported):
        self.held = dict(reported)

    def begin_transition(self, survivors, cut_ts, targets=None):
        self.transition = (frozenset(survivors), cut_ts)

    def end_transition(self):
        self.transition = None

    def transition_drained(self, cut_ts):
        return True

    def evaluate(self):
        pass


class MockGroup:
    def __init__(self, pid=1, membership=(1, 2, 3, 4, 5)):
        self._pid = pid
        self.membership = tuple(membership)
        self.view_timestamp = 0
        self.config = FTMPConfig()
        self.rmp = MockRMP()
        self.romp = MockROMP()
        self.fault_detector = SimpleNamespace(suspected=set())
        self.last_sent_seq = 0
        self.sent_suspects: List[Tuple[int, Tuple[int, ...]]] = []
        self.sent_memberships: List[Tuple] = []
        self.nacks: List[Tuple[int, int, int]] = []
        self.installed: List[Tuple] = []
        self.evicted: List[Tuple] = []

    @property
    def pid(self):
        return self._pid

    def trace(self, *a, **k):
        pass

    def schedule(self, delay, fn, *args):
        return MockTimer()

    def send(self, cls, *body, address=None):
        """The stamped-send service: each message's body, by class."""
        {SuspectMessage: self.sent_suspects, MembershipMessage: self.sent_memberships,
         RetransmitRequestMessage: self.nacks}[cls].append(body)

    def install_fault_view(self, membership, view_timestamp, removed):
        self.installed.append((membership, view_timestamp, removed))
        self.membership = membership
        self.view_timestamp = view_timestamp

    def evict_self(self, reason, view_timestamp):
        self.evicted.append((reason, view_timestamp))


def suspect_msg(src, view_ts, suspects, seq=1, ts=10):
    return SuspectMessage(
        header=FTMPHeader(MessageType.SUSPECT, source=src, group=1,
                          sequence_number=seq, timestamp=ts, ack_timestamp=0),
        membership_timestamp=view_ts,
        suspects=tuple(suspects),
    )


def membership_msg(src, view_ts, current, vec, new, ts=20):
    return MembershipMessage(
        header=FTMPHeader(MessageType.MEMBERSHIP, source=src, group=1,
                          sequence_number=2, timestamp=ts, ack_timestamp=0),
        membership_timestamp=view_ts,
        current_membership=tuple(current),
        sequence_numbers=dict(vec),
        new_membership=tuple(new),
    )


def test_no_conviction_below_majority():
    g = MockGroup(membership=(1, 2, 3, 4, 5))
    p = PGMP(g)
    p.raise_suspicion(5)  # me (1) accuses
    p.on_source_ordered(suspect_msg(2, 0, (5,)))  # one more accuser
    # 2 votes of 5: not > 2.5
    assert p._convicted() == set()
    assert not p.in_fault_round


def test_conviction_at_strict_majority():
    g = MockGroup(membership=(1, 2, 3, 4, 5))
    p = PGMP(g)
    p.raise_suspicion(5)
    p.on_source_ordered(suspect_msg(2, 0, (5,)))
    p.on_source_ordered(suspect_msg(3, 0, (5,)))
    # 3 of 5 accuse: conviction; a round starts and Membership is sent
    assert p.in_fault_round
    assert g.sent_memberships
    assert g.sent_memberships[0][3] == (1, 2, 3, 4)  # proposal excludes 5


def test_accused_members_do_not_vote():
    g = MockGroup(membership=(1, 2, 3, 4))
    p = PGMP(g)
    # 3 and 4 accuse each other; 1 accuses nobody yet
    p.on_source_ordered(suspect_msg(3, 0, (4,)))
    p.on_source_ordered(suspect_msg(4, 0, (3,)))
    # each has one (unsuspected?) vote — but both are accused, so neither
    # votes: no conviction from their mutual accusations alone
    assert p._convicted() == set()


def test_two_member_exception():
    g = MockGroup(membership=(1, 2))
    p = PGMP(g)
    p.raise_suspicion(2)
    assert p._convicted() == {2}


def test_stale_view_suspicions_ignored():
    g = MockGroup(membership=(1, 2, 3))
    g.view_timestamp = 50
    p = PGMP(g)
    p.on_source_ordered(suspect_msg(2, 49, (3,)))  # old view
    p.on_source_ordered(suspect_msg(3, 51, (2,)))  # future view
    assert p._accusations == {}


def test_withdrawal_clears_accusation_via_full_set_semantics():
    g = MockGroup(membership=(1, 2, 3, 4, 5))
    p = PGMP(g)
    p.on_source_ordered(suspect_msg(2, 0, (5,)))
    p.on_source_ordered(suspect_msg(2, 0, ()))  # 2 withdraws (empty set)
    p.raise_suspicion(5)
    p.on_source_ordered(suspect_msg(3, 0, (5,)))
    # only 1 and 3 accuse now: 2 of 5 — no conviction
    assert p._convicted() == set()


def test_round_completes_after_vectors_and_sync():
    g = MockGroup(pid=1, membership=(1, 2, 3))
    p = PGMP(g)
    g.rmp.tops = {2: 5, 3: 7}
    p.raise_suspicion(3)
    p.on_source_ordered(suspect_msg(2, 0, (3,)))
    assert p.in_fault_round  # 2 of 3 accuse: conviction
    # our own Membership loops back through the network (self-delivery)
    own_ts, own_cur, own_vec, own_new = g.sent_memberships[0]
    p.on_source_ordered(membership_msg(1, own_ts, own_cur, own_vec, own_new))
    # survivor 2's Membership arrives with a vector we already satisfy
    p.on_source_ordered(membership_msg(2, 0, (1, 2, 3), {1: 0, 2: 5, 3: 7},
                                       (1, 2)))
    assert g.installed
    membership, view_ts, removed = g.installed[0]
    assert membership == (1, 2)
    assert removed == (3,)
    assert not p.in_fault_round


def test_round_syncs_missing_messages_first():
    g = MockGroup(pid=1, membership=(1, 2, 3))
    p = PGMP(g)
    g.rmp.tops = {2: 5, 3: 2}
    p.raise_suspicion(3)
    p.on_source_ordered(suspect_msg(2, 0, (3,)))
    own_ts, own_cur, own_vec, own_new = g.sent_memberships[0]
    p.on_source_ordered(membership_msg(1, own_ts, own_cur, own_vec, own_new))
    # survivor 2 has seen more of 3's messages than we have
    p.on_source_ordered(membership_msg(2, 0, (1, 2, 3), {1: 0, 2: 5, 3: 6},
                                       (1, 2)))
    assert g.nacks == [(3, 3, 6)]  # fetch the missing block first
    assert not g.installed
    # the retransmissions arrive; the pending sync step re-runs
    g.rmp.tops[3] = 6
    p._sync_step()
    assert g.installed


def test_exclusion_triggers_self_eviction():
    g = MockGroup(pid=3, membership=(1, 2, 3))
    p = PGMP(g)
    p.on_source_ordered(membership_msg(1, 0, (1, 2, 3), {1: 1, 2: 1, 3: 1},
                                       (1, 2)))
    assert g.evicted and g.evicted[0][0] == "evicted"


def test_membership_sent_once_per_proposal():
    g = MockGroup(pid=1, membership=(1, 2, 3, 4, 5))
    p = PGMP(g)
    p.raise_suspicion(5)
    p.on_source_ordered(suspect_msg(2, 0, (5,)))
    p.on_source_ordered(suspect_msg(3, 0, (5,)))
    count_after_first = len(g.sent_memberships)
    # repeated conviction checks must not re-send for the same proposal
    p.on_source_ordered(suspect_msg(4, 0, (5,)))
    assert len(g.sent_memberships) == count_after_first == 1


def test_a_round_reformed_after_a_view_counts_its_conviction_once():
    # an AddProcessor ordered mid-round installs a view; the detector
    # still suspects 5, so the round re-forms in the new view: that is
    # the same conviction, not a second one
    g = MockGroup(membership=(1, 2, 3, 4, 5))
    g.fault_detector.suspected = {5}
    p = PGMP(g)
    p.raise_suspicion(5)
    p.on_source_ordered(suspect_msg(2, 0, (5,)))
    p.on_source_ordered(suspect_msg(3, 0, (5,)))
    assert p.in_fault_round and p.stats.convictions == 1
    g.membership, g.view_timestamp = (1, 2, 3, 4, 5, 6), 30
    p.reset_after_view()
    for src in (2, 3, 4):
        p.on_source_ordered(suspect_msg(src, 30, (5,), seq=3, ts=31))
    assert p.in_fault_round
    assert p.stats.convictions == 1
    # a round convicting one more member counts only that one
    p.on_source_ordered(suspect_msg(2, 30, (4, 5), seq=4, ts=32))
    p.on_source_ordered(suspect_msg(3, 30, (4, 5), seq=4, ts=32))
    p.on_source_ordered(suspect_msg(6, 30, (4, 5), seq=4, ts=32))
    p.raise_suspicion(4)
    assert p._convicted() == {4, 5}
    assert p.stats.convictions == 2
