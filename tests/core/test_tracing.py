"""Protocol event tracing tests."""

from repro.analysis import make_cluster
from repro.core import FTMPConfig, Tracer
from repro.simnet import lan


def traced_cluster(pids=(1, 2, 3), **kwargs):
    c = make_cluster(pids, **kwargs)
    tracers = {}
    for pid in pids:
        t = Tracer()
        c.stacks[pid].tracer = t
        tracers[pid] = t
    return c, tracers


def test_send_recv_deliver_events():
    c, tracers = traced_cluster()
    c.stacks[1].multicast(1, b"traced")
    c.run_for(0.1)
    t1 = tracers[1]
    sends = t1.of_kind("send")
    assert any(e.detail["type"] == "REGULAR" for e in sends)
    assert t1.count("deliver") == 1
    d = t1.of_kind("deliver")[0]
    assert d.detail["src"] == 1 and d.detail["bytes"] == 6
    assert d.processor == 1 and d.group == 1
    # the receiver saw recv + deliver too
    assert tracers[2].count("deliver") == 1
    assert tracers[2].count("recv") >= 1


def test_gap_nack_resend_events_under_loss():
    c, tracers = traced_cluster(topology=lan(loss=0.3), seed=9,
                                config=FTMPConfig(suspect_timeout=10.0))
    for i in range(20):
        c.net.scheduler.at(0.001 * i, c.stacks[1].multicast, 1, b"x")
    c.run_for(2.0)
    total_gaps = sum(t.count("gap") for t in tracers.values())
    total_nacks = sum(t.count("nack") for t in tracers.values())
    total_resends = sum(t.count("resend") for t in tracers.values())
    assert total_gaps > 0
    assert total_nacks > 0
    assert total_resends > 0
    # nack events carry the missing range
    nack = next(e for t in tracers.values() for e in t.of_kind("nack"))
    assert nack.detail["start"] <= nack.detail["stop"]


def test_suspect_fault_view_events_on_crash():
    c, tracers = traced_cluster()
    c.run_for(0.05)
    c.net.crash(3)
    c.run_for(1.0)
    t1 = tracers[1]
    suspects = t1.of_kind("suspect")
    assert any(e.detail == {"suspect": 3, "action": "raised"} for e in suspects)
    faults = t1.of_kind("fault")
    assert faults and faults[0].detail["convicted"] == (3,)
    views = t1.of_kind("view")
    assert views[-1].detail["membership"] == (1, 2)
    # events are time-ordered: suspicion precedes the fault view
    assert suspects[0].time < faults[0].time


def test_capacity_bound_drops_excess():
    c, tracers = traced_cluster(pids=(1, 2))
    t = Tracer(capacity=5)
    c.stacks[1].tracer = t
    for i in range(10):
        c.stacks[1].multicast(1, b"y")
    c.run_for(0.2)
    assert len(t) == 5
    assert t.dropped > 0


def test_timeline_and_clear():
    c, tracers = traced_cluster(pids=(1, 2))
    c.stacks[1].multicast(1, b"z")
    c.run_for(0.1)
    text = tracers[1].timeline()
    assert "deliver" in text and "p1 g1" in text
    tracers[1].clear()
    assert len(tracers[1]) == 0


def test_no_tracer_means_no_events_and_no_errors():
    c = make_cluster((1, 2))
    c.stacks[1].multicast(1, b"ok")
    c.run_for(0.1)  # simply must not raise
    assert c.listeners[2].payloads(1) == [b"ok"]
