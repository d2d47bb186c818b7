"""Fault detector unit behaviour (suspicion lifecycle, grace, rejoin)."""

import pytest

from repro.analysis import make_cluster
from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.core.tracing import Tracer


def test_no_suspicion_while_everyone_heartbeats():
    c = make_cluster((1, 2, 3), config=FTMPConfig(suspect_timeout=0.050))
    c.run_for(1.0)
    for pid in (1, 2, 3):
        fd = c.stacks[pid].group(1).fault_detector
        assert fd.stats.suspicions_raised == 0
        assert fd.suspected == set()


def test_silence_raises_suspicion_within_bounds():
    # the rule: a member is suspected once it has been silent for
    # suspect_timeout — measured from the last datagram heard from it —
    # and the fault report follows within one round of messages
    cfg = FTMPConfig(heartbeat_interval=0.005, suspect_timeout=0.050)
    c = make_cluster((1, 2, 3), config=cfg)
    tracer = c.stacks[1].tracer = Tracer()
    c.run_for(0.05)
    c.net.crash(3)
    c.run_for(0.5)
    last = max(e.time for e in tracer.events
               if e.kind == "recv" and e.detail["src"] == 3)
    (raised,) = [e.time for e in tracer.events if e.kind == "suspect"]
    assert raised == pytest.approx(last + cfg.suspect_timeout, abs=1e-9)
    fd = c.stacks[1].group(1).fault_detector
    assert fd.stats.suspicions_raised == 1
    elapsed = c.listeners[1].faults[0].reported_at - last
    assert cfg.suspect_timeout <= elapsed <= cfg.suspect_timeout + cfg.heartbeat_interval


def test_grace_period_defers_suspicion_of_new_members():
    cfg = FTMPConfig(suspect_timeout=0.030)
    c = make_cluster((1, 2), config=cfg)
    g = c.stacks[1].group(1)
    # partition 2 away and grant it a long grace window
    c.net.partition({1}, {2})
    g.fault_detector.watch(2, grace=0.2)
    c.run_for(0.1)  # silence > timeout but < grace
    assert g.fault_detector.stats.suspicions_raised == 0
    c.run_for(0.3)  # grace expired, still silent -> suspicion now fires
    assert g.fault_detector.stats.suspicions_raised >= 1


def test_forget_clears_state():
    c = make_cluster((1, 2))
    fd = c.stacks[1].group(1).fault_detector
    c.run_for(0.05)
    fd.forget(2)
    assert 2 not in fd.suspected


def test_evicted_processor_can_rejoin_as_new_member():
    # full lifecycle: crash-evicted pid is later re-added with fresh state
    cfg = FTMPConfig(suspect_timeout=0.050)
    c = make_cluster((1, 2, 3), config=cfg, seed=6)
    c.run_for(0.05)
    c.net.crash(3)
    c.stacks[3].stop()  # the crashed process is gone, not just partitioned
    c.run_for(1.0)
    assert c.listeners[1].current_membership(1) == (1, 2)
    # processor 3 "reboots": new stack, rejoins via AddProcessor
    c.net.recover(3)
    lst3 = RecordingListener()
    st3 = FTMPStack(c.net.endpoint(3), cfg, lst3)
    c.stacks[3] = st3
    c.listeners[3] = lst3
    st3.join_as_new_member(1, 5001)
    c.stacks[1].add_processor(1, 3)
    c.run_for(0.5)
    assert lst3.current_membership(1) == (1, 2, 3)
    assert c.listeners[1].current_membership(1) == (1, 2, 3)
    st3.multicast(1, b"back-from-the-dead")
    c.run_for(0.3)
    assert b"back-from-the-dead" in c.listeners[1].payloads(1)


def test_suspicion_stats_accumulate():
    cfg = FTMPConfig(suspect_timeout=0.040)
    c = make_cluster((1, 2, 3), config=cfg, seed=8)
    c.run_for(0.05)
    # brief partition triggers suspicion then withdrawal
    c.net.partition({1, 2}, {3})
    c.run_for(0.055)
    c.net.heal()
    c.run_for(0.5)
    fd = c.stacks[1].group(1).fault_detector
    total = fd.stats.suspicions_raised
    # either it was withdrawn (heard again) or 3 was convicted; both legal
    assert total >= 1


def test_scan_purges_liveness_entries_for_non_members():
    # note_alive records *every* datagram source (any processor may send
    # to the group address): without the scan-time purge, liveness entries
    # for non-members accumulate without bound under connection traffic,
    # and a stale suspicion of a since-removed processor lingers forever.
    cfg = FTMPConfig(suspect_timeout=0.050)
    c = make_cluster((1, 2, 3), config=cfg)
    c.run_for(0.05)
    fd = c.stacks[1].group(1).fault_detector
    fd.note_alive(9)  # a non-member (e.g. a client's Connect datagram)
    fd._suspected.add(9)
    assert 9 in fd._last_heard
    c.run_for(cfg.suspect_timeout)  # at least one scan elapses
    assert 9 not in fd._last_heard
    assert 9 not in fd.suspected
    # members are of course kept
    assert 2 in fd._last_heard and 3 in fd._last_heard


def test_one_timer_event_per_deadline():
    # heartbeats only write the liveness map: the timer fires at the
    # earliest deadline, finds everyone heard since and re-arms, about
    # once per timeout less a heartbeat interval — not every quarter
    # timeout, as a periodic sweep would
    cfg = FTMPConfig(heartbeat_interval=0.010, suspect_timeout=0.060)
    c = make_cluster((1, 2, 3), config=cfg)
    fd = c.stacks[1].group(1).fault_detector
    fired = []
    expire = fd._expire
    fd._expire = lambda: (fired.append(c.net.scheduler.now), expire())
    c.run_for(1.0)
    assert fd.stats.suspicions_raised == 0
    assert 1.0 / cfg.suspect_timeout <= len(fired) <= 1.0 / (
        cfg.suspect_timeout - cfg.heartbeat_interval)
