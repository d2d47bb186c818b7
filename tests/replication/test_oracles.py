"""Unit tests of the protocol-invariant oracles on synthetic histories.

Each oracle gets a clean history it must accept and a minimally-corrupted
history it must flag — proving the chaos campaign's verdicts mean
something (an oracle that never fires checks nothing).
"""

from repro.core.events import Delivery, RecordingListener, ViewChange
from repro.core.messages import ConnectionId
from repro.core.multigroup import (
    MULTI_GROUP_CID,
    MULTI_GROUP_COMMUTATIVE_CID,
    mg_request_num,
)
from repro.replication.oracles import (
    check_convergence,
    check_fifo,
    check_membership_agreement,
    check_multigroup_acyclicity,
    check_no_duplicates,
    check_total_order,
    check_virtual_synchrony,
    run_history_oracles,
)

GROUP = 1


def deliver(lst, source, seq, ts, payload=None, cid=None, req=0, group=GROUP):
    lst.on_deliver(Delivery(
        group=group, source=source, sequence_number=seq, timestamp=ts,
        connection_id=cid if cid is not None else ConnectionId.none(),
        request_num=req,
        payload=payload if payload is not None else f"{source}:{seq}".encode(),
        delivered_at=float(ts),
    ))


def view(lst, membership, ts, removed=(), added=(), reason="fault"):
    lst.on_view_change(ViewChange(
        group=GROUP, membership=tuple(membership), view_timestamp=ts,
        added=tuple(added), removed=tuple(removed), reason=reason,
        installed_at=float(ts),
    ))


def pair(stream=((1, 1, 10), (2, 1, 11), (1, 2, 12), (2, 2, 13))):
    """Two members that both delivered ``stream`` in the same order."""
    listeners = {1: RecordingListener(), 2: RecordingListener()}
    for lst in listeners.values():
        view(lst, (1, 2), 0, reason="connect")
        for src, seq, ts in stream:
            deliver(lst, src, seq, ts)
    return listeners


def oracles_of(violations):
    return {v.oracle for v in violations}


def test_clean_history_passes_every_oracle():
    listeners = pair()
    assert run_history_oracles(listeners, GROUP, final_members=(1, 2)) == []


def test_total_order_flags_swapped_common_messages():
    listeners = pair()
    d = listeners[2].deliveries
    d[0], d[1] = d[1], d[0]  # member 2 saw (2,1) before (1,1)
    violations = check_total_order(listeners, GROUP)
    assert "total-order" in oracles_of(violations)
    assert any({1, 2} <= set(v.members) for v in violations)


def test_total_order_flags_diverging_content():
    listeners = pair()
    lst3 = RecordingListener()
    view(lst3, (1, 2), 0, reason="connect")
    deliver(lst3, 1, 1, 10, payload=b"DIFFERENT")  # same id, other payload
    listeners[3] = lst3
    violations = check_total_order(listeners, GROUP)
    assert any("diverging" in v.detail for v in violations)


def test_fifo_flags_out_of_order_source_sequence():
    lst = RecordingListener()
    deliver(lst, 1, 2, 10)
    deliver(lst, 1, 1, 11)  # seq went backwards for source 1
    assert oracles_of(check_fifo({1: lst}, GROUP)) == {"fifo"}


def test_no_duplicates_flags_repeated_message_id():
    lst = RecordingListener()
    deliver(lst, 1, 1, 10)
    deliver(lst, 1, 1, 12)
    assert oracles_of(check_no_duplicates({1: lst}, GROUP)) == {"no-duplicates"}


def test_no_duplicates_flags_repeated_giop_request():
    cid = ConnectionId(1, 1, 2, 2)
    lst = RecordingListener()
    # distinct FTMP messages carrying the same GIOP (cid, request) pair
    deliver(lst, 1, 1, 10, cid=cid, req=7)
    deliver(lst, 1, 2, 11, cid=cid, req=7)
    violations = check_no_duplicates({1: lst}, GROUP)
    assert any("GIOP" in v.detail for v in violations)


def test_virtual_synchrony_flags_diverging_cut_between_survivors():
    listeners = {1: RecordingListener(), 2: RecordingListener()}
    for pid, lst in listeners.items():
        view(lst, (1, 2, 3), 0, reason="connect")
        deliver(lst, 1, 1, 10)
        if pid == 1:
            deliver(lst, 3, 1, 12)  # only member 1 got 3's message pre-cut
        view(lst, (1, 2), 100, removed=(3,))
    violations = check_virtual_synchrony(listeners, GROUP)
    assert oracles_of(violations) == {"virtual-synchrony"}


def test_virtual_synchrony_flags_a_delivery_from_outside_the_view():
    # both survivors deliver 3's message, but member 2 only after the view
    # that removed 3: the sets agree once it is counted, the cut does not
    listeners = {1: RecordingListener(), 2: RecordingListener()}
    for pid, lst in listeners.items():
        view(lst, (1, 2, 3), 0, reason="connect")
        deliver(lst, 1, 1, 10)
        if pid == 1:
            deliver(lst, 3, 1, 12)
        view(lst, (1, 2), 100, removed=(3,))
        if pid == 2:
            deliver(lst, 3, 1, 12)
    violations = check_virtual_synchrony(listeners, GROUP)
    assert oracles_of(violations) == {"virtual-synchrony"}
    assert any("outside" in v.detail and v.members == (2,) for v in violations)


def test_virtual_synchrony_exempts_the_evicted_member():
    listeners = {1: RecordingListener(), 2: RecordingListener(),
                 3: RecordingListener()}
    for pid, lst in listeners.items():
        view(lst, (1, 2, 3), 0, reason="connect")
        deliver(lst, 1, 1, 10)
        if pid != 3:
            deliver(lst, 2, 1, 12)  # the victim missed this one
            view(lst, (1, 2), 100, removed=(3,))
        else:
            view(lst, (), 100, removed=(3,), reason="evicted")
    # a failed processor's set may be a prefix of the survivors': no breach
    assert check_virtual_synchrony(listeners, GROUP) == []


def test_convergence_flags_a_message_one_final_member_never_got():
    listeners = pair()
    del listeners[2].deliveries[-2:]  # member 2 is missing the tail
    listeners[2].events[:] = listeners[2].deliveries
    violations = check_convergence(listeners, GROUP, (1, 2))
    assert oracles_of(violations) == {"convergence"}


def test_convergence_exempts_sources_outside_final_membership():
    # member 3 was convicted: its prefix is delivered at the old view's
    # members only, so a joiner that never saw it owes nothing
    listeners = pair(stream=((3, 5, 9), (1, 1, 10), (2, 1, 11)))
    late = RecordingListener()
    view(late, (1, 2, 4), 0, reason="connect")
    deliver(late, 1, 1, 10)
    deliver(late, 2, 1, 11)
    listeners[4] = late
    assert check_convergence(listeners, GROUP, (1, 2, 4)) == []


def test_membership_agreement_flags_divergent_views():
    listeners = pair()
    view(listeners[2], (1, 2, 9), 50, added=(9,), reason="add")
    violations = check_membership_agreement(listeners, GROUP, (1, 2),
                                            expected=(1, 2))
    assert oracles_of(violations) == {"membership-agreement"}


# ----------------------------------------------------------------------
# cross-group acyclicity (multi-group atomic multicast)
# ----------------------------------------------------------------------
A = mg_request_num(5, 1)  # multicast A = (origin 5, mg_seq 1)
B = mg_request_num(6, 1)  # multicast B = (origin 6, mg_seq 1)


def mg_deliver(lst, group, req, ts, cid=MULTI_GROUP_CID):
    origin, mg_seq = req >> 32, req & 0xFFFFFFFF
    deliver(lst, origin, mg_seq, ts, payload=b"mg", cid=cid, req=req,
            group=group)


def test_acyclicity_flags_a_known_cross_group_cycle():
    # A<B in group 1 (at member 1), B<A in group 2 (at member 2)
    listeners = {1: RecordingListener(), 2: RecordingListener()}
    mg_deliver(listeners[1], 1, A, 10)
    mg_deliver(listeners[1], 1, B, 12)
    mg_deliver(listeners[2], 2, B, 11)
    mg_deliver(listeners[2], 2, A, 13)
    violations = check_multigroup_acyclicity(listeners, {1: (1,), 2: (2,)})
    assert oracles_of(violations) == {"multigroup-acyclicity"}
    (v,) = violations
    # the result carries the offending cycle as a closed (origin, mg_seq) walk
    assert v.cycle[0] == v.cycle[-1]
    assert {(5, 1), (6, 1)} <= set(v.cycle)
    assert set(v.members) == {1, 2}
    assert v.signature == ("multigroup-acyclicity",)
    assert v.as_dict()["cycle"] == [list(m) for m in v.cycle]


def test_acyclicity_accepts_consistent_overlapping_histories():
    # same relative order A<B in both groups, several members per group
    listeners = {p: RecordingListener() for p in (1, 2, 3)}
    for pid in (1, 2):
        mg_deliver(listeners[pid], 1, A, 10)
        mg_deliver(listeners[pid], 1, B, 12)
    for pid in (2, 3):
        mg_deliver(listeners[pid], 2, A, 10)
        mg_deliver(listeners[pid], 2, B, 12)
    assert check_multigroup_acyclicity(
        listeners, {1: (1, 2), 2: (2, 3)}) == []


def test_acyclicity_ignores_commutative_and_ordinary_deliveries():
    # conflicting orders, but only via commutative sentinels and plain
    # GIOP traffic — neither carries a cross-group ordering promise
    listeners = {1: RecordingListener(), 2: RecordingListener()}
    mg_deliver(listeners[1], 1, A, 10, cid=MULTI_GROUP_COMMUTATIVE_CID)
    mg_deliver(listeners[1], 1, B, 12, cid=MULTI_GROUP_COMMUTATIVE_CID)
    mg_deliver(listeners[2], 2, B, 11, cid=MULTI_GROUP_COMMUTATIVE_CID)
    mg_deliver(listeners[2], 2, A, 13, cid=MULTI_GROUP_COMMUTATIVE_CID)
    deliver(listeners[1], 7, 1, 20, group=1)
    deliver(listeners[2], 7, 1, 20, group=2)
    assert check_multigroup_acyclicity(listeners, {1: (1,), 2: (2,)}) == []


def test_acyclicity_flags_a_three_group_rotation():
    # A<B in g1, B<C in g2, C<A in g3: cycle spans three projections
    C = mg_request_num(7, 1)
    listeners = {p: RecordingListener() for p in (1, 2, 3)}
    mg_deliver(listeners[1], 1, A, 10)
    mg_deliver(listeners[1], 1, B, 12)
    mg_deliver(listeners[2], 2, B, 10)
    mg_deliver(listeners[2], 2, C, 12)
    mg_deliver(listeners[3], 3, C, 10)
    mg_deliver(listeners[3], 3, A, 12)
    violations = check_multigroup_acyclicity(
        listeners, {1: (1,), 2: (2,), 3: (3,)})
    (v,) = violations
    assert {(5, 1), (6, 1), (7, 1)} <= set(v.cycle)


#: multicast C = (origin 2, mg_seq 1): a multi-group origin is a member
#: of every group it addresses, so its delivery lies inside the view
C = mg_request_num(2, 1)


def _join_epoch_listeners(joiner_gap_req=None, joiner_gap_ordinary=False):
    """Members 1, 2 incumbent; 9 joins at ts 50; member 3 joins at ts 100.

    In the epoch between the two joins the incumbents deliver multicast C
    and one ordinary message; ``joiner_gap_req``/``joiner_gap_ordinary``
    select which of the two member 9 misses.
    """
    listeners = {p: RecordingListener() for p in (1, 2, 9)}
    for pid in (1, 2):
        view(listeners[pid], (1, 2), 0, reason="connect")
    view(listeners[9], (1, 2, 9), 50, added=(9,), reason="add")
    for pid in (1, 2):
        view(listeners[pid], (1, 2, 9), 50, added=(9,), reason="add")
    for pid, lst in listeners.items():
        if not (pid == 9 and joiner_gap_req is not None):
            mg_deliver(lst, GROUP, C, 60)
        if not (pid == 9 and joiner_gap_ordinary):
            deliver(lst, 1, 5, 70)
    for lst in listeners.values():
        view(lst, (1, 2, 3, 9), 100, added=(3,), reason="add")
    return listeners


def test_virtual_synchrony_exempts_mg_gap_in_a_joiners_first_epoch():
    # the joiner's replay starts at its join barrier: a multicast whose
    # Propose predates the barrier but whose Commit landed after it is
    # delivered by incumbents only — documented window, not a breach
    listeners = _join_epoch_listeners(joiner_gap_req=C)
    assert check_virtual_synchrony(listeners, GROUP) == []


def test_virtual_synchrony_still_flags_ordinary_gap_in_first_epoch():
    # the exemption is mg-sentinel-specific: a joiner missing a plain
    # ordered message in its first epoch is a real breach
    listeners = _join_epoch_listeners(joiner_gap_ordinary=True)
    violations = check_virtual_synchrony(listeners, GROUP)
    assert oracles_of(violations) == {"virtual-synchrony"}
