"""Unit tests for the simulated multicast network."""

import pytest

from repro.simnet import LinkModel, Network, Topology, lan, two_site_wan


def collect(net: Network, pid: int):
    inbox = []
    ep = net.endpoint(pid)
    ep.set_receiver(inbox.append)
    return ep, inbox


def test_multicast_reaches_all_members_including_sender():
    net = Network(lan(), seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2, 3):
        eps[pid], boxes[pid] = collect(net, pid)
        eps[pid].join(100)
    eps[1].multicast(100, b"hello")
    net.run_for(0.01)
    assert boxes[1] == [b"hello"]  # IP multicast loopback
    assert boxes[2] == [b"hello"]
    assert boxes[3] == [b"hello"]


def test_non_members_do_not_receive():
    net = Network(lan(), seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2):
        eps[pid], boxes[pid] = collect(net, pid)
    eps[1].join(100)
    eps[1].multicast(100, b"x")
    net.run_for(0.01)
    assert boxes[2] == []


def test_sender_need_not_be_member():
    # FTMP's ConnectRequest relies on open-group sends.
    net = Network(lan(), seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2):
        eps[pid], boxes[pid] = collect(net, pid)
    eps[2].join(100)
    eps[1].multicast(100, b"req")
    net.run_for(0.01)
    assert boxes[2] == [b"req"]
    assert boxes[1] == []  # not joined: no loopback


def test_leave_stops_delivery():
    net = Network(lan(), seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2):
        eps[pid], boxes[pid] = collect(net, pid)
        eps[pid].join(100)
    eps[2].leave(100)
    eps[1].multicast(100, b"x")
    net.run_for(0.01)
    assert boxes[2] == []


def test_loss_drops_packets_deterministically():
    topo = Topology(default=LinkModel(latency=0.001, jitter=0, loss=1.0))
    net = Network(topo, seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2):
        eps[pid], boxes[pid] = collect(net, pid)
        eps[pid].join(100)
    eps[1].multicast(100, b"x")
    net.run_for(0.01)
    assert boxes[2] == []  # lossy link
    assert boxes[1] == [b"x"]  # loopback never drops
    assert net.trace.drops == 1


def test_crashed_node_neither_sends_nor_receives():
    net = Network(lan(), seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2):
        eps[pid], boxes[pid] = collect(net, pid)
        eps[pid].join(100)
    net.crash(2)
    eps[1].multicast(100, b"a")
    eps[2].multicast(100, b"b")
    net.run_for(0.01)
    assert boxes[2] == []
    assert boxes[1] == [b"a"]  # own loopback only; node 2 sent nothing


def test_crash_blocks_in_flight_delivery():
    net = Network(lan(), seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2):
        eps[pid], boxes[pid] = collect(net, pid)
        eps[pid].join(100)
    eps[1].multicast(100, b"x")
    net.crash(2)  # crash before the propagation delay elapses
    net.run_for(0.01)
    assert boxes[2] == []


def test_partition_blocks_cross_component_traffic():
    net = Network(lan(), seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2, 3):
        eps[pid], boxes[pid] = collect(net, pid)
        eps[pid].join(100)
    net.partition({1, 2}, {3})
    eps[1].multicast(100, b"x")
    net.run_for(0.01)
    assert boxes[2] == [b"x"]
    assert boxes[3] == []
    net.heal()
    eps[1].multicast(100, b"y")
    net.run_for(0.01)
    assert boxes[3] == [b"y"]


def test_trace_counters():
    net = Network(lan(), seed=0)
    eps = {}
    for pid in (1, 2, 3):
        eps[pid], _ = collect(net, pid)
        eps[pid].join(100)
    eps[1].multicast(100, b"abcd")
    net.run_for(0.01)
    assert net.trace.sends == 1
    assert net.trace.deliveries == 3
    assert net.trace.bytes_sent == 4
    assert net.trace.bytes_delivered == 12


def test_two_site_wan_latency_split():
    topo = two_site_wan((1, 2), (3, 4), wan_latency=0.040, lan_latency=0.0001)
    net = Network(topo, seed=0)
    eps, arrivals = {}, {}
    for pid in (1, 2, 3):
        ep = net.endpoint(pid)
        arrivals[pid] = []
        ep.set_receiver(lambda data, p=pid: arrivals[p].append(net.scheduler.now))
        ep.join(100)
        eps[pid] = ep
    eps[1].multicast(100, b"x")
    net.run_for(0.2)
    assert arrivals[2][0] < 0.001  # same site: LAN latency
    assert arrivals[3][0] >= 0.040  # cross-site: WAN latency


def test_link_override_and_set_loss():
    topo = lan()
    topo.set_link(1, 2, LinkModel(latency=0.5, jitter=0, loss=0))
    net = Network(topo, seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2):
        eps[pid], boxes[pid] = collect(net, pid)
        eps[pid].join(100)
    eps[1].multicast(100, b"x")
    net.run_for(0.1)
    assert boxes[2] == []  # still in flight on the slow link
    net.run_for(0.5)
    assert boxes[2] == [b"x"]
    topo.set_loss(0.25)
    assert topo.default.loss == 0.25
    assert topo.link(1, 2).loss == 0.25


def test_noop_join_leave_do_not_rebuild_fanout():
    # a re-join (or a leave by a non-member) leaves the receiver set
    # unchanged, so the cached fan-out tuple must survive identically —
    # rebuilding it on every no-op churns an allocation per heartbeat
    net = Network(lan(), seed=0)
    eps = {pid: net.endpoint(pid) for pid in (1, 2, 3)}
    for pid in (1, 2, 3):
        eps[pid].join(100)
    fanout = net._fanout[100]
    eps[2].join(100)       # no-op: already a member
    net.leave(9, 100)      # no-op: never joined
    assert net._fanout[100] is fanout  # same tuple object, not rebuilt
    eps[3].leave(100)      # real change: rebuild expected
    assert net._fanout[100] == (1, 2)


@pytest.mark.parametrize("unicast_fanout", [False, True], ids=["flat", "unicast"])
def test_bounded_egress_queue_tail_drops(unicast_fanout):
    # with egress_queue_limit set, offered load beyond the backlog bound
    # is dropped at the sender instead of queueing without bound
    topo = Topology(default=LinkModel(latency=0.0001),
                    egress_bandwidth=10_000.0,   # 1 kB costs 100 ms
                    egress_queue_limit=0.150,
                    unicast_fanout=unicast_fanout)
    net = Network(topo, seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2):
        eps[pid], boxes[pid] = collect(net, pid)
        eps[pid].join(100)
    own = []
    eps[1].set_receiver(lambda data: own.append(net.scheduler.now))
    for _ in range(5):  # 500 ms of serialization against a 150 ms bound
        eps[1].multicast(100, b"x" * 1000)
    net.run_for(1.0)
    assert net.egress_drops == {1: 3}
    assert len(boxes[2]) == 2
    # multicast loopback is cloned before the NIC queue: the sender gets
    # every one of its own datagrams at once, the tail-dropped ones too
    assert own == [topo.self_delay] * 5


def test_unbounded_egress_queue_is_legacy_default():
    topo = Topology(default=LinkModel(latency=0.0001),
                    egress_bandwidth=10_000.0)  # no queue limit
    net = Network(topo, seed=0)
    eps, boxes = {}, {}
    for pid in (1, 2):
        eps[pid], boxes[pid] = collect(net, pid)
        eps[pid].join(100)
    for _ in range(5):
        eps[1].multicast(100, b"x" * 1000)
    net.run_for(1.0)
    assert net.egress_drops == {}
    assert len(boxes[2]) == 5  # everything queues and eventually lands
