"""Harness and workload generator tests."""

from repro.analysis import (
    PoissonWorkload,
    TimedWorkload,
    make_cluster,
    make_multigroup_cluster,
)
from repro.analysis.workload import RequestReplyDriver
from repro.orb import ORB, IIOPNetwork
from repro.replication.chaos import ChaosEvent, ChaosPlan
from repro.replication.fault_injection import FaultInjector
from repro.simnet import Scheduler


def test_make_cluster_builds_group_everywhere():
    c = make_cluster((1, 2, 3))
    for pid in (1, 2, 3):
        assert c.stacks[pid].group(1) is not None
        assert c.stacks[pid].group(1).membership == (1, 2, 3)


def test_one_builder_records_each_groups_address():
    assert make_cluster((1, 2)).addresses == {1: 5001}
    assert make_cluster((4, 2, 7), group=3, address=6100).addresses == {3: 6100}
    bare = make_cluster((1, 2), create_group=False)
    assert bare.addresses == {} and bare.stacks[1].group(1) is None
    mg = make_multigroup_cluster((1, 2, 3), {2: (2, 3), 1: (1, 2)},
                                 base_address=7000)
    assert (mg.group, mg.addresses) == (1, {1: 7001, 2: 7002})
    assert mg.stacks[2].group(2).membership == (2, 3)
    assert mg.stacks[1].group(2) is None


def test_chaos_join_uses_the_clusters_address_not_a_default():
    # a plan's joiner listens where the group does: on a cluster built
    # away from 5001 it used to join a silent address and never get in
    c = make_cluster((1, 2, 3), address=6100)
    plan = ChaosPlan(seed=0, scenario="churn", initial_members=(1, 2, 3),
                     events=[ChaosEvent("join", 0.1, pids=(4,))])
    plan.apply(c, FaultInjector(c.net))
    c.run_for(1.0)
    assert c.stacks[1].group(1).membership == (1, 2, 3, 4)
    assert c.listeners[4].current_membership(1) == (1, 2, 3, 4)


def test_timed_workload_latency_measurement():
    c = make_cluster((1, 2, 3))
    w = TimedWorkload(c)
    for i in range(5):
        w.send_at(0.01 * (i + 1), sender=1)
    c.run_for(0.5)
    lats = w.latencies(receivers=(2, 3))
    assert len(lats) == 10  # 5 sends x 2 receivers
    assert all(0 < latency < 0.1 for latency in lats)
    assert w.delivered_fraction((2, 3)) == 1.0


def test_timed_workload_uniform_schedule():
    c = make_cluster((1, 2))
    w = TimedWorkload(c)
    w.uniform(senders=(1, 2), start=0.01, stop=0.05, interval=0.01)
    c.run_for(0.5)
    assert len(w.sends) == 8  # 4 rounds x 2 senders
    assert len(w.latencies((1, 2))) == 16


def test_timed_workload_payload_size():
    c = make_cluster((1, 2))
    w = TimedWorkload(c)
    w.send_at(0.01, 1, size=128)
    c.run_for(0.2)
    assert len(w.sends[0].payload) == 128


def test_poisson_workload_is_seeded():
    c1 = make_cluster((1, 2))
    w1 = PoissonWorkload(c1)
    w1.poisson((1,), rate_per_sender=500, start=0.0, stop=0.1, seed=7)
    c2 = make_cluster((1, 2))
    w2 = PoissonWorkload(c2)
    w2.poisson((1,), rate_per_sender=500, start=0.0, stop=0.1, seed=7)
    c1.run_for(0.5)
    c2.run_for(0.5)
    assert [r.sent_at for r in w1.sends] == [r.sent_at for r in w2.sends]
    assert len(w1.sends) > 10


def test_cluster_assert_agreement_detects_divergence():
    c = make_cluster((1, 2))
    c.stacks[1].multicast(1, b"x")
    c.run_for(0.3)
    c.assert_agreement()  # identical -> fine
    # forge divergence
    c.listeners[1].deliveries.clear()
    import pytest

    with pytest.raises(AssertionError):
        c.assert_agreement()


class Echo:
    def ping(self, i):
        return i


def test_request_reply_driver_closed_loop():
    sched = Scheduler()
    iiop = IIOPNetwork(sched)
    server = ORB(1, sched)
    client = ORB(2, sched)
    server.attach_iiop(iiop)
    client.attach_iiop(iiop)
    ref = server.activate(b"echo", Echo())
    finished = []
    driver = RequestReplyDriver(
        orb=client,
        proxy=client.proxy(ref),
        operation="ping",
        make_args=lambda i: (i,),
        requests=10,
        now_fn=lambda: sched.now,
        on_done=finished.append,
    )
    driver.start()
    sched.run(max_events=100_000)
    assert driver.completed == 10
    assert driver.results == list(range(10))
    assert not driver.errors
    assert finished == [driver]
    assert all(lat > 0 for lat in driver.latencies)


def test_request_reply_driver_think_time():
    sched = Scheduler()
    iiop = IIOPNetwork(sched)
    server = ORB(1, sched)
    client = ORB(2, sched)
    server.attach_iiop(iiop)
    client.attach_iiop(iiop)
    ref = server.activate(b"echo", Echo())
    driver = RequestReplyDriver(
        orb=client,
        proxy=client.proxy(ref),
        operation="ping",
        make_args=lambda i: (i,),
        requests=3,
        now_fn=lambda: sched.now,
        think_time=0.050,
    )
    driver.start()
    sched.run(max_events=100_000)
    assert driver.completed == 3
    assert sched.now >= 0.100  # two think pauses elapsed
