"""Safe-delivery mode tests (Totem's agreed/safe distinction on FTMP)."""

from repro.analysis import make_cluster
from repro.core import FTMPConfig
from repro.simnet import LinkModel, lan

SAFE = FTMPConfig(delivery_mode="safe")


def test_safe_mode_delivers_everything_in_order():
    c = make_cluster((1, 2, 3), config=SAFE)
    for i in range(10):
        for pid in (1, 2, 3):
            c.net.scheduler.at(0.002 * i, c.stacks[pid].multicast, 1,
                               f"{pid}:{i}".encode())
    c.run_for(1.0)
    orders = c.orders(1)
    assert len(orders[1]) == 30
    assert orders[1] == orders[2] == orders[3]


def test_safe_delivery_waits_for_stability():
    # a member on a slow link holds stability back: agreed mode delivers
    # long before the slow member's ack arrives, safe mode does not
    def run(mode):
        topo = lan()
        slow = LinkModel(latency=0.020, jitter=0, loss=0)
        topo.set_link(1, 3, slow)
        topo.set_link(2, 3, slow)
        cfg = FTMPConfig(delivery_mode=mode, heartbeat_interval=0.005,
                         suspect_timeout=5.0)
        c = make_cluster((1, 2, 3), topology=topo, config=cfg, seed=2)
        c.run_for(0.1)
        t0 = c.net.scheduler.now
        c.stacks[1].multicast(1, b"probe")
        c.run_for(0.5)
        d = [d for d in c.listeners[2].deliveries if d.payload == b"probe"][0]
        return d.delivered_at - t0

    agreed = run("agreed")
    safe = run("safe")
    # safe delivery waits for the slow member's ack to make the round trip
    assert safe > agreed + 0.020


def test_safe_holds_visible_in_romp_counters():
    topo = lan()
    topo.set_link(1, 3, LinkModel(latency=0.050, jitter=0, loss=0))
    topo.set_link(2, 3, LinkModel(latency=0.050, jitter=0, loss=0))
    cfg = FTMPConfig(delivery_mode="safe", suspect_timeout=5.0)
    c = make_cluster((1, 2, 3), topology=topo, config=cfg, seed=1)
    c.run_for(0.1)
    c.stacks[1].multicast(1, b"held")
    c.run_for(0.06)  # ordered at 1,2 but not yet stable (3's ack pending)
    g2 = c.stacks[2].group(1)
    held_during = g2.romp.unsafe_held()
    c.run_for(1.0)
    assert held_during >= 1
    assert g2.romp.unsafe_held() == 0
    assert c.listeners[2].payloads(1) == [b"held"]


def test_safe_mode_releases_after_member_crash():
    # a crashed member can never ack: safe delivery must release once the
    # fault view removes it (stability recomputed over survivors)
    cfg = FTMPConfig(delivery_mode="safe", suspect_timeout=0.060)
    c = make_cluster((1, 2, 3), config=cfg, seed=3)
    c.run_for(0.05)
    c.net.crash(3)
    c.run_for(0.005)
    c.stacks[1].multicast(1, b"stuck-until-view")
    c.run_for(2.0)
    assert b"stuck-until-view" in c.listeners[1].payloads(1)
    assert b"stuck-until-view" in c.listeners[2].payloads(1)
    assert c.orders(1)[1] == c.orders(1)[2]


def test_safe_mode_agreement_under_loss():
    cfg = FTMPConfig(delivery_mode="safe", suspect_timeout=10.0)
    c = make_cluster((1, 2, 3), topology=lan(loss=0.1), config=cfg, seed=7)
    for i in range(20):
        for pid in (1, 2, 3):
            c.net.scheduler.at(0.002 * i, c.stacks[pid].multicast, 1,
                               f"{pid}:{i}".encode())
    c.run_for(4.0)
    orders = c.orders(1)
    assert len(orders[1]) == 60
    assert orders[1] == orders[2] == orders[3]


def test_long_safe_hold_queue_releases_in_fifo_order():
    # the safe-mode hold queue is a deque (popleft), not a list with
    # O(n) pop(0): a long hold released in one stability step must come
    # out in timestamp order and drain completely
    from collections import deque

    topo = lan()
    slow = LinkModel(latency=0.050, jitter=0, loss=0)
    topo.set_link(1, 3, slow)
    topo.set_link(2, 3, slow)
    cfg = FTMPConfig(delivery_mode="safe", suspect_timeout=5.0)
    c = make_cluster((1, 2, 3), topology=topo, config=cfg, seed=4)
    c.run_for(0.1)
    for i in range(60):  # a burst that all lands before 3's acks return
        c.net.scheduler.at(c.net.scheduler.now + 0.0002 * i,
                           c.stacks[1].multicast, 1, b"h%d" % i)
    g2 = c.stacks[2].group(1)
    assert isinstance(g2.romp._unsafe, deque)
    # sample the hold depth across the whole ordered-but-unstable window
    # (ordering needs 3's clock past the burst: ~ one one-way latency;
    # stability needs 3's acks back: ~ a full round trip)
    depths = []
    for k in range(150):
        c.net.scheduler.at(c.net.scheduler.now + 0.002 * k,
                           lambda: depths.append(g2.romp.unsafe_held()))
    c.run_for(2.0)
    assert max(depths) >= 30  # a genuinely long hold built up
    assert depths[-1] == 0
    assert g2.romp.unsafe_held() == 0
    payloads = c.listeners[2].payloads(1)
    assert payloads == [b"h%d" % i for i in range(60)]
    assert c.orders(1)[2] == c.orders(1)[1]
