"""Replicated client × replicated server: the oracles and answer-once.

The ``giop3x2`` shape: every client replica issues the same invocation
stream over one logical connection.  Nothing is waived — in particular
not the GIOP clause of ``no-duplicates`` — and one logical invocation
costs R + S Regular multicasts: R Request copies, S Replies, no more.

The second half pins both sides of the rule that gets it there: a
duplicate Request is answered from the reply cache only when its sender
had delivered the first Reply when it stamped the copy (the copy's
acknowledgement timestamp is at or past that Reply's).
"""

import pytest

from repro.core import FTMPConfig, FTMPStack, Listener, RecordingListener
from repro.giop import GroupRef
from repro.orb import ORB, ClientIdentity, FTMPAdapter
from repro.replication.oracles import run_history_oracles
from repro.replication.passive import PassiveReplicaController
from repro.simnet import Network, lan

REF = GroupRef("IDL:Store:1.0", domain=7, object_group=100, object_key=b"store")
INVOCATIONS = 50
BLOB = 2048


class Store:
    def __init__(self):
        self.puts = 0

    def put(self, key, blob):
        self.puts += 1
        return self.puts

    def get_state(self):
        return self.puts

    def set_state(self, state):
        self.puts = state


class Tee(Listener):
    """Record every upcall, then hand it to the adapter."""

    def __init__(self, recorder, adapter):
        self.targets = (recorder, adapter)

    def on_deliver(self, delivery):
        for t in self.targets:
            t.on_deliver(delivery)

    def on_view_change(self, view):
        for t in self.targets:
            t.on_view_change(view)

    def on_fault_report(self, report):
        for t in self.targets:
            t.on_fault_report(report)

    def on_connection(self, event):
        for t in self.targets:
            t.on_connection(event)


def build(n_clients, n_servers, seed, config=None):
    net = Network(lan(), seed=seed)
    config = config if config is not None else FTMPConfig()
    servers = tuple(range(1, n_servers + 1))
    clients = tuple(range(8, 8 + n_clients))
    orbs, stacks, adapters, recorders, servants = {}, {}, {}, {}, {}
    for pid in servers + clients:
        orbs[pid] = ORB(pid, net.scheduler)
        stacks[pid] = FTMPStack(net.endpoint(pid), config)
        adapters[pid] = FTMPAdapter(orbs[pid], stacks[pid])
        recorders[pid] = RecordingListener()
        stacks[pid].listener = Tee(recorders[pid], adapters[pid])
    for pid in servers:
        servants[pid] = Store()
        orbs[pid].poa.activate(REF.object_key, servants[pid])
        adapters[pid].export(REF.domain, REF.object_group, servers)
    for pid in clients:
        adapters[pid].set_client(ClientIdentity(3, 200, clients))
    return net, servers, clients, orbs, stacks, adapters, recorders, servants


@pytest.mark.parametrize("n_clients,n_servers", [(2, 3), (3, 3)])
def test_replicated_client_passes_every_oracle(n_clients, n_servers):
    net, servers, clients, orbs, stacks, adapters, recorders, servants = build(
        n_clients, n_servers, seed=10 * n_clients + n_servers)
    results = {pid: [] for pid in clients}
    blob = bytes(range(256)) * (BLOB // 256)
    for i in range(INVOCATIONS):
        # lockstep: every replica issues invocation i, then all of them wait
        for pid in clients:
            fut = orbs[pid].proxy(REF).put(f"key-{i}", blob)
            fut.add_done_callback(lambda f, p=pid: results[p].append(f.result()))
        net.run_for(0.05)
    net.run_for(0.5)

    cid = adapters[clients[0]].connection_id_for(REF)
    group = stacks[clients[0]].connection_binding(cid).group_id

    # nothing waived, the GIOP clause of no-duplicates included
    violations = run_history_oracles(recorders, group)
    assert violations == []

    # exactly one execution per server replica, one resolution per client
    assert [servants[p].puts for p in servers] == [INVOCATIONS] * n_servers
    for pid in clients:
        assert results[pid] == list(range(1, INVOCATIONS + 1))
        assert adapters[pid].stats_replies_matched == INVOCATIONS
    for pid in servers:
        assert adapters[pid].stats_requests_executed == INVOCATIONS
        assert adapters[pid].stats_replies_served_from_cache == 0

    # R Request copies + S Replies per logical invocation, on the wire
    regulars = sum(
        stacks[p].snapshot()[f"group.{group}.send.regulars_sent"]
        for p in servers + clients
    )
    assert regulars == INVOCATIONS * (n_clients + n_servers)
    # and every one of them is delivered once at every member
    members = n_clients + n_servers
    for pid in servers + clients:
        delivered = [d for d in recorders[pid].deliveries if d.group == group]
        assert len(delivered) == INVOCATIONS * members


# ----------------------------------------------------------------------
# both sides of the answer-once rule
# ----------------------------------------------------------------------
def warmed(n_clients=2, n_servers=3, seed=5, config=None):
    """A cluster whose connection is open: invocation 1 done everywhere."""
    built = build(n_clients, n_servers, seed, config)
    net, _servers, clients, orbs = built[:4]
    futs = [orbs[p].proxy(REF).put("warm", b"") for p in clients]
    net.run_for(0.5)
    assert all(f.result() == 1 for f in futs)
    return built


def giop_trail(recorder, group, request_num):
    """(source, GIOP type octet) of one request number's deliveries, in order."""
    return [(d.source, d.payload[7]) for d in recorder.deliveries
            if d.group == group and d.request_num == request_num]


def connection_group(stacks, adapters, pid):
    cid = adapters[pid].connection_id_for(REF)
    return stacks[pid].connection_binding(cid).group_id


def test_simultaneous_replicas_are_never_answered_from_the_cache():
    net, servers, clients, orbs, stacks, adapters, recorders, servants = warmed()
    futs = [orbs[p].proxy(REF).put("k", b"v") for p in clients]
    net.run_for(0.5)
    assert [f.result() for f in futs] == [2, 2]
    assert [adapters[p].stats_replies_served_from_cache for p in servers] == [0, 0, 0]
    group = connection_group(stacks, adapters, 8)
    assert giop_trail(recorders[1], group, 2) == [
        (8, 0), (9, 0), (1, 1), (2, 1), (3, 1)]


def test_late_replica_resolves_from_cached_replies_without_reexecution():
    net, servers, clients, orbs, stacks, adapters, recorders, servants = warmed()
    early = orbs[8].proxy(REF).put("k", b"v")
    net.run_for(0.5)  # the Reply is delivered everywhere, replica 9 included
    assert early.result() == 2
    late = orbs[9].proxy(REF).put("k", b"v")
    net.run_for(0.5)
    assert late.result() == 2  # the original answer
    assert [servants[p].puts for p in servers] == [2, 2, 2]
    assert [adapters[p].stats_replies_served_from_cache for p in servers] == [1, 1, 1]
    group = connection_group(stacks, adapters, 8)
    assert giop_trail(recorders[9], group, 2) == [
        (8, 0), (1, 1), (2, 1), (3, 1), (9, 0), (1, 1), (2, 1), (3, 1)]


def test_copy_ordered_between_request_and_reply_is_suppressed_and_resolves():
    net, servers, clients, orbs, stacks, adapters, recorders, servants = warmed()
    futs = {8: orbs[8].proxy(REF).put("k", b"v")}
    # replica 9 lags by less than the ordering hop: its copy is ordered
    # after replica 8's Request and ahead of every Reply
    net.scheduler.schedule(
        0.00005, lambda: futs.__setitem__(9, orbs[9].proxy(REF).put("k", b"v")))
    net.run_for(0.5)
    group = connection_group(stacks, adapters, 8)
    assert giop_trail(recorders[1], group, 2) == [
        (8, 0), (9, 0), (1, 1), (2, 1), (3, 1)]  # the premise
    assert futs[8].result() == futs[9].result() == 2
    assert [servants[p].puts for p in servers] == [2, 2, 2]
    assert [adapters[p].stats_replies_served_from_cache for p in servers] == [0, 0, 0]
    # every member suppressed replica 9's copy
    assert all(adapters[p].stack.duplicates.seen(
        adapters[8].connection_id_for(REF), 2, "request") for p in servers + clients)


def test_copy_ordered_after_the_reply_but_stamped_before_it_was_delivered():
    # Replica 9 invokes once every Reply has reached it but before the
    # first is delivered there: its copy is ordered after all three
    # Replies, with an acknowledgement short of the first.  Its future is
    # resolved by those Replies, so no server answers it from the cache.
    net, servers, clients, orbs, stacks, adapters, recorders, servants = warmed()
    futs = {8: orbs[8].proxy(REF).put("k", b"v")}
    net.scheduler.schedule(
        0.0003, lambda: futs.__setitem__(9, orbs[9].proxy(REF).put("k", b"v")))
    net.run_for(0.5)
    group = connection_group(stacks, adapters, 8)
    trail = [d for d in recorders[1].deliveries if d.group == group and d.request_num == 2]
    # the premise: ordered after the first Reply, stamped before delivering it
    assert [(d.source, d.payload[7]) for d in trail] == [
        (8, 0), (1, 1), (2, 1), (3, 1), (9, 0)]
    assert trail[4].ack_timestamp < trail[1].timestamp
    assert futs[8].result() == futs[9].result() == 2
    assert [servants[p].puts for p in servers] == [2, 2, 2]
    assert [adapters[p].stats_requests_executed for p in servers] == [2, 2, 2]
    assert [adapters[p].stats_replies_served_from_cache for p in servers] == [0, 0, 0]


def test_passive_primary_crash_after_replying_resolves_both_replicas():
    net, servers, clients, orbs, stacks, adapters, recorders, servants = build(
        2, 3, seed=3, config=FTMPConfig(suspect_timeout=0.060))
    controllers = {p: PassiveReplicaController(adapters[p], REF.object_key, servers)
                   for p in servers}
    warm = [orbs[p].proxy(REF).put("warm", b"") for p in clients]
    net.run_for(0.5)
    assert [f.result() for f in warm] == [1, 1]
    # the primary executes invocation 2, multicasts its Reply and dies
    # before the state update that would cover it is sent
    controllers[1]._publish_state = lambda cid, group: net.crash(1)
    futs = [orbs[p].proxy(REF).put("k", b"v") for p in clients]
    net.run_for(2.5)
    assert servants[1].puts == 2
    assert controllers[2].is_primary
    # the promoted backup replayed the uncovered suffix — invocation 2 —
    # and multicast a second Reply; each replica resolved exactly once
    assert controllers[2].stats_failover_replays == 1
    assert [f.result() for f in futs] == [2, 2]
    assert [adapters[p].stats_replies_matched for p in clients] == [2, 2]
    group = connection_group(stacks, adapters, 8)
    assert giop_trail(recorders[8], group, 2) == [(8, 0), (9, 0), (1, 1), (2, 1)]
    # and the service goes on under the new primary
    futs = [orbs[p].proxy(REF).put("k", b"v") for p in clients]
    net.run_for(0.5)
    assert [f.result() for f in futs] == [3, 3]
    assert servants[2].puts == servants[3].puts == 3
