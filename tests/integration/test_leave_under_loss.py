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

from repro.core import FTMPConfig, FTMPStack, RecordingListener
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
