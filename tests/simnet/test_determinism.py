"""Seeded determinism: the foundation of reproducible experiments."""

from repro.analysis import make_cluster
from repro.core import FTMPConfig
from repro.simnet import lan


def run(seed):
    c = make_cluster((1, 2, 3), topology=lan(loss=0.15), seed=seed,
                     config=FTMPConfig(suspect_timeout=10.0))
    for i in range(25):
        for pid in (1, 2, 3):
            c.net.scheduler.at(0.001 * i, c.stacks[pid].multicast, 1,
                               f"{pid}:{i}".encode())
    c.run_for(2.0)
    orders = {p: tuple(c.orders(1)[p]) for p in (1, 2, 3)}
    trace = (c.net.trace.sends, c.net.trace.deliveries, c.net.trace.drops)
    stats = tuple(
        (c.stacks[p].group(1).rmp.stats.nacks_sent,
         c.stacks[p].group(1).rmp.stats.retransmissions_sent)
        for p in (1, 2, 3)
    )
    return orders, trace, stats


def test_same_seed_identical_run():
    a = run(seed=123)
    b = run(seed=123)
    assert a == b  # bit-for-bit: orders, packet counts, recovery traffic


def test_different_seeds_diverge():
    a = run(seed=1)
    b = run(seed=2)
    # loss patterns differ, so the packet trace must differ
    assert a[1] != b[1]


def test_crash_scenarios_are_reproducible():
    def crash_run(seed):
        c = make_cluster((1, 2, 3, 4), seed=seed)
        for i in range(20):
            for pid in (1, 2, 3, 4):
                c.net.scheduler.at(0.002 * i, c.stacks[pid].multicast, 1,
                                   f"{pid}:{i}".encode())
        c.net.scheduler.at(0.015, c.net.crash, 4)
        c.run_for(2.0)
        return {p: tuple(c.orders(1)[p]) for p in (1, 2, 3)}, [
            (v.reason, v.membership, v.view_timestamp)
            for v in c.listeners[1].views
        ]

    assert crash_run(7) == crash_run(7)
