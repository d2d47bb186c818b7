"""A leaver that misses a message just before its removal, pinned.

The twin of the join hang (``test_join_under_load.py``), on the way out:

1. member 2 multicasts Regular *m* a moment before member 4 sends its
   ``RemoveProcessor``; *m* is ordered before the removal, and member 4
   — alone — loses its copy;
2. the others order *m*, then the removal, and forget member 4: its
   acknowledgement (below *m*, which it lacks) stops holding stability,
   so *m* is reclaimed at once;
3. member 4 must deliver *m* before its own removal, so it NACKs *m*;
   the others dropped every datagram of a departed member, its NACKs
   included, and nobody held *m* anyway.  It never ordered its removal.

Fixed by the §6 rule ``ROMP.hold_for_leaver`` states: until a removed
member acknowledges past its removal, its ack still counts in
stability, and its NACKs are answered.  No randomness: fixed link
latency, four members, one lost datagram.
"""

import pytest

from repro.core import FTMPConfig, FTMPStack, MessageType, RecordingListener
from repro.core.romp import MEMBER
from repro.simnet import LinkModel, Network, Topology

GROUP, ADDRESS = 1, 5001
T = 0.1


def leave_with_a_message_lost(lead: float):
    """Member 2 sends ``lead`` seconds before member 4 asks to leave, and
    member 4 loses that one datagram; returns the listeners after 0.3 s."""
    net = Network(Topology(default=LinkModel(latency=1e-4, jitter=0.0, loss=0.0)), seed=0)
    cfg = FTMPConfig(heartbeat_interval=0.002)
    listeners = {p: RecordingListener() for p in (1, 2, 3, 4)}
    stacks = {p: FTMPStack(net.endpoint(p), cfg, listeners[p]) for p in (1, 2, 3, 4)}
    for s in stacks.values():
        s.create_group(GROUP, ADDRESS, (1, 2, 3, 4))
    receive, lost = stacks[4]._on_datagram, []

    def losing_m(raw):
        if not lost and bytes(raw).endswith(b"in flight"):
            lost.append(raw)
            return
        receive(raw)

    net.endpoint(4).set_receiver(losing_m)
    net.scheduler.at(T - lead, stacks[2].multicast, GROUP, b"in flight")
    net.scheduler.at(T, stacks[4].leave_group, GROUP)
    net.run_for(T + 0.3)
    assert lost
    return listeners, stacks


@pytest.mark.parametrize("lead", [10e-6, 50e-6, 90e-6])
def test_a_leaver_recovers_what_it_lost_and_orders_its_removal(lead):
    listeners, stacks = leave_with_a_message_lost(lead)
    for p in (1, 2, 3):
        assert [v.membership for v in listeners[p].views][-1] == (1, 2, 3)
    leaver = listeners[4]
    assert [(v.membership, v.reason) for v in leaver.views][-1] == ((), "remove")
    assert [d.payload for d in leaver.deliveries] == [b"in flight"]
    assert stacks[4].group(GROUP) is None


def test_a_lingering_leaver_hears_acknowledgements_inside_batches():
    # Under batched load the survivors' Regulars travel in BATCH
    # datagrams, and what acknowledges past the removal is each part's
    # ack.  Everything else to the leaver is lost once it lingers, so
    # only the parts can end the linger before ``suspect_timeout``
    net = Network(Topology(default=LinkModel(latency=1e-4, jitter=0.0, loss=0.0)), seed=0)
    cfg = FTMPConfig(heartbeat_interval=0.002, batch_window=0.002)
    stacks = {p: FTMPStack(net.endpoint(p), cfg, RecordingListener()) for p in (1, 2, 3, 4)}
    for s in stacks.values():
        s.create_group(GROUP, ADDRESS, (1, 2, 3, 4))
    leaver, receive, heard = stacks[4], stacks[4]._on_datagram, []

    def lingering():
        return leaver.holds_group(GROUP) and leaver.group(GROUP) is None

    def batches_only_while_lingering(raw):
        if lingering():
            if raw[7] != MessageType.BATCH:
                return
            heard.append(raw)
        receive(raw)

    net.endpoint(4).set_receiver(batches_only_while_lingering)
    linger = {}
    g = leaver.group(GROUP)
    begin, end = g.linger, leaver.end_leaving

    def beginning(removal_ts):
        begin(removal_ts)
        linger["start"] = net.scheduler.now
        linger["waiting"] = {p for p, peer in g.peers.items() if peer.state == MEMBER}

    def ending(group_id):
        linger.setdefault("end", net.scheduler.now)
        end(group_id)

    g.linger, leaver.end_leaving = beginning, ending
    for p in (1, 2, 3):
        for i in range(400):
            net.scheduler.at(0.01 + i * 5e-4 + p * 1e-4, stacks[p].multicast, GROUP, b"%d" % i)
    net.scheduler.at(T, leaver.leave_group, GROUP)
    net.run_for(0.3)
    assert linger["waiting"] == {1, 2, 3}  # nobody had acknowledged the removal yet
    assert not lingering()
    assert set(g.peers) == {4}  # every member acknowledged: only our row was left
    assert linger["end"] - linger["start"] < cfg.suspect_timeout / 2
    assert heard
