"""A BATCH datagram taken as a run leaves the same bytes on the wire as
the same datagram taken part by part.

The same seeded simnet run is made twice: once as shipped, and once with
``RMP.on_run`` taking none of the run it is handed, so that the receive
path routes every part one by one, as every part went before the run
path existed.  The application is as
awkward as the stack allows: listeners multicast from inside
``on_deliver`` (a send stamped in the middle of a run carries the clock
and the acknowledgement of that moment), one adds a processor from
inside a delivery (the AddProcessor's sequence vector is read off RMP in
mid-run), one leaves (its own RemoveProcessor stops its group with the
rest of a batch still in hand), and a window of eight credits keeps
senders queued on stability advances.  Every datagram any member
transmits, with its time, and every upcall must be identical.
"""

import random
from unittest import mock

import pytest

from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.core.rmp import RMP
from repro.simnet import Network, lan

GROUP, ADDRESS = 1, 5001
FOUNDERS, NEWCOMER, LEAVER = (1, 2, 3, 4), 5, 4


class Reactive(RecordingListener):
    """Records every upcall, and acts from inside some deliveries."""

    def __init__(self, pid, act):
        super().__init__()
        self.pid = pid
        self._act = act

    def on_deliver(self, delivery):
        super().on_deliver(delivery)
        self._act(self.pid, len(self.deliveries), delivery)


def run_once(seed, as_runs):
    wire_log, runs = [], []
    transmit, on_run = FTMPStack.transmit, RMP.on_run

    def logging_transmit(self, address, raw):
        wire_log.append((self.endpoint.now, self.pid, address, bytes(raw)))
        transmit(self, address, raw)

    def counting_on_run(self, run):
        taken = on_run(self, run) if as_runs else 0
        runs.append((len(run), taken))
        return taken

    cfg = FTMPConfig(heartbeat_interval=0.002, suspect_timeout=5.0,
                     batch_window=0.002, flow_control_window=8)
    net = Network(lan(loss=0.02), seed=seed)
    stacks, listeners = {}, {}

    def sending(pid):
        g = stacks[pid].group(GROUP)
        return g is not None and not g.joining

    def act(pid, count, delivery):
        stack = stacks[pid]
        if not delivery.payload.startswith(b"echo") and count % 7 == pid and sending(pid):
            stack.multicast(GROUP, b"echo %d of %d" % (pid, count))
        if pid == 1 and count == 400:
            listeners[NEWCOMER] = Reactive(NEWCOMER, act)
            stacks[NEWCOMER] = FTMPStack(net.endpoint(NEWCOMER), cfg, listeners[NEWCOMER])
            stacks[NEWCOMER].join_as_new_member(GROUP, ADDRESS)
            stack.add_processor(GROUP, NEWCOMER)
        if pid == LEAVER and count == 900:
            stack.leave_group(GROUP)

    def send(pid, index):
        if sending(pid):
            stacks[pid].multicast(GROUP, b"%d:%d" % (pid, index))

    with mock.patch.object(FTMPStack, "transmit", logging_transmit), \
            mock.patch.object(RMP, "on_run", counting_on_run):
        for p in FOUNDERS:
            listeners[p] = Reactive(p, act)
            stacks[p] = FTMPStack(net.endpoint(p), cfg, listeners[p])
            stacks[p].create_group(GROUP, ADDRESS, FOUNDERS)
            rng = random.Random(seed * 31 + p)
            t, index = 0.01, 0
            while (t := t + rng.expovariate(2_500.0)) < 0.25:
                net.scheduler.at(t, send, p, index)
                index += 1
        net.run_for(1.0)
    upcalls = {p: [repr(e) for e in l.events] for p, l in listeners.items()}
    counters = {p: s.snapshot() for p, s in stacks.items()}
    for s in stacks.values():
        s.stop()
    return wire_log, upcalls, counters, runs


#: Every seed must give equivalence.  The run cut short from inside is
#: the leaver's: its own RemoveProcessor delivered out of a gate entry in
#: mid-batch stops its group with the rest of the batch in hand.  Whether
#: the datagram that completes the removal's cover there is a batch or a
#: single message is up to the loss stream, so only some seeds have it
#: (about one in four); any NACK, credit or heartbeat timing change moves
#: which.  ``test_some_runs_are_cut_short_from_inside`` asks it of two.
SEEDS = range(12)


def cut_short(runs):
    return [(n, taken) for n, taken in runs if 0 < taken < n]


@pytest.fixture(scope="module")
def cuts():
    """seed -> the runs its shipped run cut short (``n``, ``taken``)."""
    return {}


@pytest.mark.parametrize("seed", SEEDS)
def test_runs_leave_the_wire_and_the_upcalls_as_part_by_part_does(seed, cuts):
    wire_log, upcalls, counters, runs = run_once(seed, as_runs=True)
    cuts[seed] = cut_short(runs)
    ref_wire, ref_upcalls, ref_counters, ref_runs = run_once(seed, as_runs=False)
    # the reference really went part by part
    assert ref_runs and not any(taken for _, taken in ref_runs)
    assert upcalls == ref_upcalls
    assert counters == ref_counters
    assert len(wire_log) == len(ref_wire)
    assert wire_log == ref_wire

    # the scenario did what it is there for: most batched messages were
    # taken as runs, the newcomer joined, the leaver left, and credits
    # ran out
    offered = sum(n for n, _ in runs)
    assert sum(taken for _, taken in runs) > 0.6 * offered > 1000
    assert len(upcalls[NEWCOMER]) > 100
    assert any("removed=(4,)" in e for e in upcalls[1])
    # and ordered its own removal: what it missed was held for its NACKs
    assert any("removed=(4,)" in e for e in upcalls[LEAVER])
    assert sum(c[f"group.{GROUP}.flow.sends_queued"] for p, c in counters.items()
               if f"group.{GROUP}.flow.sends_queued" in c) > 100


def test_some_runs_are_cut_short_from_inside(cuts):
    # the equivalence above covers a run cut short (the leaver's group
    # stopping, a view installed by a delivery) on at least two seeds
    for seed in SEEDS:
        if seed not in cuts:
            cuts[seed] = cut_short(run_once(seed, as_runs=True)[3])
    assert sum(1 for seed in SEEDS if cuts[seed]) >= 2, cuts
