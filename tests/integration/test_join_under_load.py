"""The join hang, pinned (perf/README.md, "Found while building this").

A Regular that is *in flight* when ``AddProcessor`` is sent could strand
the newcomer for good:

1. member 2 multicasts Regular *m* a moment before member 1 sends the
   ``AddProcessor``: 1 has not received *m* yet, so the sequence-number
   baseline the ``AddProcessor`` carries for source 2 stops below *m* —
   and the newcomer, not on the group address when *m* was sent, never
   gets a copy (had it got one before the ``AddProcessor`` it would have
   dropped it: nothing to anchor recovery on yet);
2. the heartbeats of the same instant cover *m*'s timestamp but not the
   ``AddProcessor``'s (one tick later), so the old members order *m* one
   heartbeat round *before* the add view;
3. the next round's heartbeats carry acknowledgements of *m* and the
   timestamps that order the ``AddProcessor``; each datagram's
   acknowledgement is folded in before its timestamp, so every old member
   sees *m* stable over the old membership — and reclaims it from its
   retransmission buffer — just before it installs the view that would
   have made the newcomer's (zero) acknowledgement hold *m* back;
4. the newcomer needs *m* (it is above its baseline) to make source 2's
   stream contiguous, without which it can never order the
   ``AddProcessor`` itself; it NACKs for ever, and nobody holds *m*.

No randomness is involved: fixed link latency, three members, one send.
``churn5`` schedules no send within 5 ms of its join for this reason, and
so do the receive-path golden scenarios.  Fixed by the §6 rule
``ROMP.hold_for_joiner`` states: from the moment a member sends or
receives an ``AddProcessor``, the joiner counts in stability with the
ack heard from it (0 before any) until the ``AddProcessor`` is ordered,
so step 3 reclaims nothing the newcomer lacks.  Heartbeats that follow
the last send by one interval (``SendPath._tick``) also move
step 2 off this schedule; on the periodic grid they replaced, the
repro hangs without the rule and completes with it.
"""

from repro.analysis.harness import make_cluster
from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.core.romp import ROMP
from repro.simnet import LinkModel, Network, Topology, lan

GROUP, ADDRESS = 1, 5001
#: a heartbeat instant of the founders' 2 ms periodic grid
T = 0.1


def join_with_send_in_flight(lead: float):
    """Member 2 sends ``lead`` seconds before the heartbeat instant, member 1
    adds processor 4 a microsecond after it; returns (joiner's listener,
    joiner's group, founders' listeners) after half a second."""
    net = Network(Topology(default=LinkModel(latency=1e-4, jitter=0.0, loss=0.0)), seed=0)
    cfg = FTMPConfig(heartbeat_interval=0.002)
    listeners = {p: RecordingListener() for p in (1, 2, 3, 4)}
    stacks = {p: FTMPStack(net.endpoint(p), cfg, listeners[p]) for p in (1, 2, 3)}
    for s in stacks.values():
        s.create_group(GROUP, ADDRESS, (1, 2, 3))

    def join():
        stacks[1].add_processor(GROUP, 4)
        stacks[4] = FTMPStack(net.endpoint(4), cfg, listeners[4])
        stacks[4].join_as_new_member(GROUP, ADDRESS)

    net.scheduler.at(T - lead, stacks[2].multicast, GROUP, b"in flight")
    net.scheduler.at(T + 1e-6, join)
    net.run_for(T + 0.5)
    return listeners[4], stacks[4].group(GROUP), [listeners[p] for p in (1, 2, 3)]


def test_join_completes_when_the_send_has_landed():
    # 150 us ahead: the Regular reached member 1 before the AddProcessor
    # was built, so the baseline covers it and nothing is missing
    joiner, group, founders = join_with_send_in_flight(lead=150e-6)
    assert [v.membership for v in joiner.views] == [(1, 2, 3, 4)]
    assert not group.joining
    assert all(len(l.deliveries) == 1 for l in founders)


def test_join_completes_with_a_send_in_flight():
    # 2 us ahead: still in flight when the AddProcessor is built
    joiner, group, founders = join_with_send_in_flight(lead=2e-6)
    assert all(len(l.deliveries) == 1 for l in founders)
    assert [v.membership for v in joiner.views] == [(1, 2, 3, 4)]
    assert not group.joining


def test_a_joiners_first_send_is_staged_until_its_view(monkeypatch):
    # 4 multicasts from its own add view; 2 and 3, 2 ms apart, have not
    # ordered the AddProcessor yet when the Regular lands: they stage it
    # (ROMP._take_ordered) and queue it when the view admits 4
    staged = []
    take = ROMP._take_ordered

    def spy(self, msg):
        if msg.header.source not in self._g.membership:
            staged.append((self._g.pid, msg.header.source))
        return take(self, msg)

    monkeypatch.setattr(ROMP, "_take_ordered", spy)

    class FirstSend(RecordingListener):
        def on_view_change(self, view):
            super().on_view_change(view)
            if view.reason == "add" and 4 in view.added:
                c.stacks[4].multicast(c.group, b"first")

    topo = lan()
    topo.set_link(2, 3, LinkModel(latency=0.002))
    c = make_cluster((1, 2, 3), topology=topo)

    def join():
        c.listeners[4] = FirstSend()
        c.stacks[4] = FTMPStack(c.net.endpoint(4), c.stacks[1].config, c.listeners[4])
        c.stacks[4].join_as_new_member(c.group, c.addresses[c.group])
        c.stacks[1].add_processor(c.group, 4)

    c.net.scheduler.at(0.01, join)
    c.run_for(0.5)
    assert sorted(staged) == [(2, 4), (3, 4)]
    for lst in c.listeners.values():
        assert [(d.source, d.payload) for d in lst.deliveries] == [(4, b"first")]
    c.assert_agreement()
