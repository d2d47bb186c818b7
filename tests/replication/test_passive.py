"""Warm-passive replication tests."""

from repro.core import FTMPConfig, FTMPStack
from repro.giop import GroupRef
from repro.orb import ORB, ClientIdentity, FTMPAdapter
from repro.replication.passive import PassiveReplicaController
from repro.simnet import Network, lan

REF = GroupRef("IDL:Counter:1.0", domain=7, object_group=100, object_key=b"ctr")


class Counter:
    def __init__(self):
        self.n = 0
        self.executions = 0

    def incr(self, by):
        self.n += by
        self.executions += 1
        return self.n

    def get_state(self):
        return self.n

    def set_state(self, s):
        self.n = s


class Journal:
    """Order-sensitive servant: the entries list IS the execution order."""

    def __init__(self):
        self.entries = []

    def append(self, tag):
        self.entries.append(tag)
        return len(self.entries)

    def get_state(self):
        return list(self.entries)

    def set_state(self, s):
        self.entries = list(s)


def build(server_pids=(1, 2, 3), seed=0, suspect_timeout=0.060,
          factory=Counter):
    net = Network(lan(), seed=seed)
    cfg = FTMPConfig(suspect_timeout=suspect_timeout)
    servants, controllers, adapters = {}, {}, {}
    for pid in server_pids:
        orb = ORB(pid, net.scheduler)
        stack = FTMPStack(net.endpoint(pid), cfg)
        adapter = FTMPAdapter(orb, stack)
        servant = factory()
        orb.poa.activate(REF.object_key, servant)
        adapter.export(REF.domain, REF.object_group, tuple(server_pids))
        controllers[pid] = PassiveReplicaController(
            adapter, REF.object_key, tuple(server_pids)
        )
        servants[pid], adapters[pid] = servant, adapter
    corb = ORB(8, net.scheduler)
    cstack = FTMPStack(net.endpoint(8), cfg)
    cadapter = FTMPAdapter(corb, cstack)
    cadapter.set_client(ClientIdentity(3, 200, (8,)))
    return net, corb, servants, controllers, adapters


def test_only_primary_executes():
    net, corb, servants, controllers, _ = build()
    proxy = corb.proxy(REF)
    assert corb.call(proxy, "incr", 5) == 5
    assert corb.call(proxy, "incr", 3) == 8
    net.run_for(0.3)
    assert servants[1].executions == 2  # primary executed
    assert servants[2].executions == 0  # backups did not
    assert servants[3].executions == 0


def test_backups_track_state_through_updates():
    net, corb, servants, controllers, _ = build()
    proxy = corb.proxy(REF)
    for i in range(4):
        corb.call(proxy, "incr", 1)
    net.run_for(0.3)
    assert servants[2].n == 4
    assert servants[3].n == 4
    assert controllers[2].stats_updates_applied >= 1
    # buffered requests were discarded once covered by state updates
    assert all(
        b.request_num > 0 for b in controllers[2]._buffered
    )
    assert len(controllers[2]._buffered) == 0


def test_failover_promotes_backup_and_preserves_state():
    net, corb, servants, controllers, _ = build()
    proxy = corb.proxy(REF)
    assert corb.call(proxy, "incr", 10) == 10
    net.run_for(0.2)
    net.crash(1)
    net.run_for(1.5)
    assert controllers[2].is_primary
    # service continues with the promoted backup holding the state
    assert corb.call(proxy, "incr", 5) == 15
    net.run_for(0.3)
    assert servants[2].executions >= 1
    assert servants[3].n == 15  # remaining backup keeps tracking


def test_failover_replays_unconfirmed_suffix():
    # pipeline a burst: the requests get ordered at the backups before the
    # primary's state updates catch up; crash the primary mid-burst.  The
    # promoted backup must re-execute the uncovered suffix from its buffer
    # and answer every still-pending client future.
    net, corb, servants, controllers, _ = build(seed=3)
    proxy = corb.proxy(REF)
    assert corb.call(proxy, "incr", 1) == 1  # connection warm, n == 1
    net.run_for(0.2)
    futs = [proxy.incr(1) for _ in range(5)]  # pipelined, no waiting
    # crash the primary just after the burst reaches it (before all of its
    # state updates are ordered at the backups)
    net.scheduler.schedule(0.0002, net.crash, 1)
    net.run_for(2.5)
    assert all(f.done for f in futs)
    assert sorted(f.result() for f in futs) == [2, 3, 4, 5, 6]
    assert servants[2].n == 6
    # the whole suffix was recovered — via replay-at-promotion for what
    # was already buffered, via primary execution for what was ordered
    # after the view change (which path depends on timing)
    assert (controllers[2].stats_failover_replays
            + controllers[2].stats_executed) >= 5


def test_promotion_replays_buffered_requests_unit():
    """Pin the replay-at-promotion path deterministically: stuff the
    backup's buffer by hand, then deliver the fault view."""
    from repro.core import ConnectionId, ViewChange
    from repro.giop import GIOPHeader, GIOPMessageType, RequestMessage, encode_values
    from repro.replication.passive import _BufferedRequest

    net, corb, servants, controllers, adapters = build()
    proxy = corb.proxy(REF)
    corb.call(proxy, "incr", 1)  # warm up; n == 1 everywhere
    net.run_for(0.3)

    ctl = controllers[2]
    cid = ConnectionId(3, 200, 7, 100)
    binding = adapters[2].stack.connection_binding(cid)
    group = binding.group_id if binding is not None else 1
    for num in (7, 8):
        msg = RequestMessage(
            header=GIOPHeader(GIOPMessageType.REQUEST),
            request_id=num,
            response_expected=False,
            object_key=REF.object_key,
            operation="incr",
            body=encode_values([10]),
        )
        ctl._buffered.append(_BufferedRequest(cid, group, num, msg))

    view = ViewChange(group=group, membership=(2, 3, 8), view_timestamp=99,
                      added=(), removed=(1,), reason="fault", installed_at=0.0)
    ctl._on_view(view)
    assert ctl.is_primary
    assert ctl.stats_failover_replays == 2
    assert servants[2].n == 21  # 1 + 10 + 10 replayed in order
    assert ctl._buffered == []


def test_promotion_replays_two_connections_in_delivery_order():
    """Regression: the promoted backup must replay its buffered suffix in
    *delivery* (total) order.  Request numbers are per-connection, so a
    request_num sort would replay b1, b2, a5 when the agreed order was
    b1, a5, b2 — diverging the new primary's state from every backup that
    already saw the updates.  One state publication must cover the whole
    replayed suffix."""
    from repro.core import ConnectionId, ViewChange
    from repro.giop import (
        GIOPHeader,
        GIOPMessageType,
        RequestMessage,
        encode_values,
    )
    from repro.replication.passive import _BufferedRequest

    net, corb, servants, controllers, adapters = build(factory=Journal)
    proxy = corb.proxy(REF)
    corb.call(proxy, "append", "w")  # warm up the connection group
    net.run_for(0.3)

    ctl = controllers[2]
    cid_a = ConnectionId(3, 200, 7, 100)
    cid_b = ConnectionId(4, 201, 7, 100)
    binding = adapters[2].stack.connection_binding(cid_a)
    group = binding.group_id if binding is not None else 1

    def request(cid, num, tag):
        msg = RequestMessage(
            header=GIOPHeader(GIOPMessageType.REQUEST),
            request_id=num,
            response_expected=False,
            object_key=REF.object_key,
            operation="append",
            body=encode_values([tag]),
        )
        return _BufferedRequest(cid, group, num, msg)

    # buffered (= delivered total) order interleaves the connections and
    # is NOT the request_num order: b#1, a#5, b#2
    ctl._buffered.extend([
        request(cid_b, 1, "b1"),
        request(cid_a, 5, "a5"),
        request(cid_b, 2, "b2"),
    ])
    published_before = ctl.stats_updates_published

    view = ViewChange(group=group, membership=(2, 3, 8), view_timestamp=99,
                      added=(), removed=(1,), reason="fault",
                      installed_at=0.0)
    ctl._on_view(view)

    assert ctl.is_primary
    assert servants[2].entries == ["w", "b1", "a5", "b2"]  # delivery order
    assert ctl.stats_failover_replays == 3
    # the whole suffix converges remaining backups in ONE publication
    assert ctl.stats_updates_published == published_before + 1
    assert ctl._applied["3:200:7:100"] == 5
    assert ctl._applied["4:201:7:100"] == 2
    assert ctl._buffered == []


def test_sequential_failovers_down_to_last_replica():
    net, corb, servants, controllers, _ = build(seed=4)
    proxy = corb.proxy(REF)
    corb.call(proxy, "incr", 1)
    net.crash(1)
    net.run_for(1.5)
    assert corb.call(proxy, "incr", 1) == 2
    net.crash(2)
    net.run_for(1.5)
    assert controllers[3].is_primary
    assert corb.call(proxy, "incr", 1) == 3
    assert servants[3].executions >= 1


def test_execution_savings_vs_active():
    # the headline economics: R replicas, N requests -> active executes
    # R*N times, passive executes N (plus publishes N updates)
    net, corb, servants, controllers, _ = build()
    proxy = corb.proxy(REF)
    for _ in range(10):
        corb.call(proxy, "incr", 1)
    net.run_for(0.3)
    total_executions = sum(s.executions for s in servants.values())
    assert total_executions == 10  # not 30
    assert controllers[1].stats_updates_published == 10
