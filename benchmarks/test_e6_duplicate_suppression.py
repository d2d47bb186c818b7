"""E6 — §4: duplicate detection and suppression on logical connections.

"Each message sent by a client (server) object group ... is delivered to
both groups, which enables duplicate detection and suppression."  With R
client replicas and S server replicas, one logical invocation produces R
Request copies and S Reply copies on the wire — R + S multicasts, never
R + R·S; `(connection id, request number)` suppression makes every server
execute once and every client resolve once.  Sweep R × S and count.
"""

from repro.core import FTMPConfig, FTMPStack
from repro.giop import GroupRef
from repro.orb import ORB, ClientIdentity, FTMPAdapter
from repro.simnet import Network, lan

from repro.analysis import Table

from _report import emit

REF = GroupRef("IDL:Counter:1.0", domain=7, object_group=100, object_key=b"ctr")


class Counter:
    def __init__(self):
        self.executions = 0

    def incr(self, by):
        self.executions += 1
        return self.executions


def run_point(n_clients: int, n_servers: int, invocations: int = 10):
    net = Network(lan(), seed=n_clients * 10 + n_servers)
    server_pids = tuple(range(1, n_servers + 1))
    client_pids = tuple(range(10, 10 + n_clients))
    hosts = {}
    for pid in server_pids:
        orb = ORB(pid, net.scheduler)
        stack = FTMPStack(net.endpoint(pid), FTMPConfig())
        adapter = FTMPAdapter(orb, stack)
        servant = Counter()
        orb.poa.activate(REF.object_key, servant)
        adapter.export(REF.domain, REF.object_group, server_pids)
        hosts[pid] = (orb, stack, adapter, servant)
    for pid in client_pids:
        orb = ORB(pid, net.scheduler)
        stack = FTMPStack(net.endpoint(pid), FTMPConfig())
        adapter = FTMPAdapter(orb, stack)
        adapter.set_client(ClientIdentity(3, 200, client_pids))
        hosts[pid] = (orb, stack, adapter, None)

    # every client replica issues the same invocation stream: identical
    # request numbers, as the paper requires of replicated clients
    results = {pid: [] for pid in client_pids}
    for i in range(invocations):
        for pid in client_pids:
            fut = getattr(hosts[pid][0].proxy(REF), "incr")(1)
            fut.add_done_callback(lambda f, p=pid: results[p].append(f.result()))
    net.run_for(2.0)

    executions = [hosts[p][3].executions for p in server_pids]
    suppressed = sum(hosts[p][2].stats_duplicates_suppressed for p in hosts)
    ok = (
        all(e == invocations for e in executions)
        and all(results[p] == list(range(1, invocations + 1)) for p in client_pids)
    )

    def regulars(pids):
        # Requests and Replies are the only Regular messages on the wire
        return sum(v for p in pids for k, v in hosts[p][1].snapshot().items()
                   if k.endswith(".send.regulars_sent"))

    requests = regulars(client_pids) / invocations
    replies = regulars(server_pids) / invocations
    return executions, suppressed, ok, requests, replies


def test_e6_duplicate_suppression():
    combos = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 3)]

    results = {combo: run_point(*combo) for combo in combos}

    table = Table(
        ["client replicas", "server replicas", "executions per server",
         "duplicates suppressed", "multicasts per invocation", "exactly-once"],
        title="E6 — duplicate suppression with replicated clients and servers "
              "(10 logical invocations)",
    )
    for (r, s), (execs, suppressed, ok, requests, replies) in results.items():
        table.add_row(r, s, execs[0], suppressed,
                      f"{requests:g} + {replies:g}", ok)
    emit("E6_duplicate_suppression", table.render())

    for (r, s), (execs, suppressed, ok, requests, replies) in results.items():
        assert ok, f"not exactly-once for {r}x{s}"
        # a simulated-time count: R Request copies, S Replies, whatever R —
        # no server answers a further client replica's copy a second time
        assert (requests, replies) == (r, s), f"{r}x{s}: {requests} + {replies}"
        # with no replication there is nothing to suppress...
        if r == 1 and s == 1:
            assert suppressed == 0
        # ...and suppression work grows with the replication degree
        if r * s > 1:
            assert suppressed > 0
    assert results[(3, 3)][1] > results[(1, 2)][1]
