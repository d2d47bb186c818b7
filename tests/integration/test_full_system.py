"""Cross-module integration: the full Figure 1 stack under faults."""

from repro.core import FTMPConfig
from repro.giop import UserException
from repro.replication import FaultInjector, MessageLog, ReplicaManager
from repro.simnet import Network, lan


class Warehouse:
    """A stateful servant with user exceptions (realistic workload)."""

    def __init__(self):
        self.stock = {}

    def receive(self, item, qty):
        self.stock[item] = self.stock.get(item, 0) + qty
        return self.stock[item]

    def ship(self, item, qty):
        have = self.stock.get(item, 0)
        if have < qty:
            raise UserException("OutOfStock", f"{item}: have {have}, want {qty}")
        self.stock[item] = have - qty
        return self.stock[item]

    def get_state(self):
        return dict(self.stock)

    def set_state(self, s):
        self.stock = dict(s)


def build(server_pids=(1, 2, 3), seed=0, topology=None, config=None):
    net = Network(topology if topology is not None else lan(), seed=seed)
    mgr = ReplicaManager(net, config=config)
    ref = mgr.create_server_group(domain=7, object_group=100, object_key=b"wh",
                                  factory=Warehouse, pids=server_pids)
    client = mgr.create_client(8, client_domain=3, client_group=200)
    return net, mgr, ref, client, mgr.proxy(8, ref)


def test_replicated_service_full_lifecycle():
    net, mgr, ref, client, proxy = build()
    orb = client.orb
    assert orb.call(proxy, "receive", "widget", 100) == 100
    assert orb.call(proxy, "ship", "widget", 30) == 70
    try:
        orb.call(proxy, "ship", "widget", 1000)
        raise AssertionError("expected OutOfStock")
    except UserException as e:
        assert e.name == "OutOfStock"
    net.run_for(0.3)
    states = [mgr.servant(p, 7, 100).get_state() for p in (1, 2, 3)]
    assert states[0] == states[1] == states[2] == {"widget": 70}


def test_service_survives_minority_crashes():
    net, mgr, ref, client, proxy = build(server_pids=(1, 2, 3))
    orb = client.orb
    orb.call(proxy, "receive", "a", 10)
    inj = FaultInjector(net)
    inj.crash_at(net.scheduler.now + 0.01, 3)
    net.run_for(1.5)
    assert orb.call(proxy, "receive", "a", 5) == 15
    net.run_for(0.3)
    assert mgr.servant(1, 7, 100).stock == mgr.servant(2, 7, 100).stock == {"a": 15}


def test_sequential_crashes_down_to_one_replica():
    net, mgr, ref, client, proxy = build(server_pids=(1, 2, 3))
    orb = client.orb
    orb.call(proxy, "receive", "x", 1)
    net.crash(3)
    net.run_for(1.5)
    orb.call(proxy, "receive", "x", 1)
    net.crash(2)
    net.run_for(1.5)
    assert orb.call(proxy, "receive", "x", 1) == 3
    assert mgr.replicas_of(7, 100) == {1}


def test_lossy_network_end_to_end():
    net, mgr, ref, client, proxy = build(
        topology=lan(loss=0.10), seed=5,
        config=FTMPConfig(suspect_timeout=10.0),
    )
    orb = client.orb
    total = 0
    for i in range(10):
        total = orb.call(proxy, "receive", "item", 1, timeout=10.0)
    assert total == 10
    net.run_for(1.0)
    states = [mgr.servant(p, 7, 100).stock for p in (1, 2, 3)]
    assert states[0] == states[1] == states[2] == {"item": 10}


def test_message_log_pairs_all_traffic():
    net, mgr, ref, client, proxy = build()
    log = MessageLog()
    client.adapter.downstream = log
    # route deliveries into the log by chaining: adapter forwards only
    # unmatched traffic; hook the stack listener chain instead
    orig = client.adapter.on_deliver

    def tee(delivery):
        log.record(delivery)
        orig(delivery)

    client.stack.listener.on_deliver = tee
    orb = client.orb
    for i in range(5):
        orb.call(proxy, "receive", "w", 1)
    net.run_for(0.3)
    assert len(log) == 5
    assert log.unanswered() == []


def test_two_independent_object_groups():
    net = Network(lan(), seed=0)
    mgr = ReplicaManager(net)
    ref_a = mgr.create_server_group(domain=7, object_group=100, object_key=b"a",
                                    factory=Warehouse, pids=(1, 2))
    ref_b = mgr.create_server_group(domain=7, object_group=101, object_key=b"b",
                                    factory=Warehouse, pids=(1, 2))
    client = mgr.create_client(8, client_domain=3, client_group=200)
    pa, pb = mgr.proxy(8, ref_a), mgr.proxy(8, ref_b)
    orb = client.orb
    assert orb.call(pa, "receive", "ita", 1) == 1
    assert orb.call(pb, "receive", "itb", 2) == 2
    net.run_for(0.3)
    assert mgr.servant(1, 7, 100).stock == {"ita": 1}
    assert mgr.servant(1, 7, 101).stock == {"itb": 2}
