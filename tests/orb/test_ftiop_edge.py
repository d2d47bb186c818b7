"""FTMP adapter edge cases: passthrough, downstream chaining, cache bound."""

from repro.core import (
    FTMPConfig,
    FTMPStack,
    RecordingListener,
)
from repro.giop import GroupRef
from repro.orb import ORB, ClientIdentity, FTMPAdapter
from repro.simnet import Network, lan

REF = GroupRef("T", domain=7, object_group=100, object_key=b"svc")


class Servant:
    def ping(self, i=0):
        return i


def build(downstream=None, mtu=None, seed=0):
    net = Network(lan(), seed=seed)
    hosts = {}
    for pid in (1, 2):
        orb = ORB(pid, net.scheduler)
        stack = FTMPStack(net.endpoint(pid), FTMPConfig())
        adapter = FTMPAdapter(orb, stack, giop_mtu=mtu)
        orb.poa.activate(b"svc", Servant())
        adapter.export(7, 100, (1, 2))
        hosts[pid] = (orb, stack, adapter)
    corb = ORB(8, net.scheduler)
    cstack = FTMPStack(net.endpoint(8), FTMPConfig())
    cadapter = FTMPAdapter(corb, cstack, downstream=downstream, giop_mtu=mtu)
    cadapter.set_client(ClientIdentity(3, 200, (8,)))
    return net, corb, cstack, cadapter, hosts


def test_non_giop_group_traffic_passes_to_downstream():
    downstream = RecordingListener()
    net, corb, cstack, cadapter, hosts = build(downstream=downstream)
    # a raw (non-connection) group: plain multicast below the ORB
    cstack.create_group(55, 6055, (8,))
    cstack.multicast(55, b"raw application bytes")
    net.run_for(0.2)
    assert downstream.payloads(55) == [b"raw application bytes"]


def test_non_giop_payload_on_connection_passes_to_downstream():
    downstream = RecordingListener()
    net, corb, cstack, cadapter, hosts = build(downstream=downstream)
    proxy = corb.proxy(REF)
    assert corb.call(proxy, "ping", 1) == 1
    cid = cadapter.connection_id_for(REF)
    cstack.send_on_connection(cid, b"not-giop-at-all", 999)
    net.run_for(0.2)
    assert b"not-giop-at-all" in [d.payload for d in downstream.deliveries]


def test_view_and_fault_events_forwarded_downstream():
    downstream = RecordingListener()
    net, corb, cstack, cadapter, hosts = build(downstream=downstream)
    proxy = corb.proxy(REF)
    corb.call(proxy, "ping", 1)
    net.crash(2)
    net.run_for(1.5)
    assert downstream.views  # connection bootstrap + fault views
    assert downstream.faults
    assert downstream.connections


def test_reply_cache_is_bounded():
    net, corb, cstack, cadapter, hosts = build()
    server_adapter = hosts[1][2]
    server_adapter.reply_cache_size = 5
    proxy = corb.proxy(REF)
    for i in range(12):
        corb.call(proxy, "ping", i)
    net.run_for(0.3)
    assert len(server_adapter._reply_cache) <= 5


def test_fragmented_reply_round_trip():
    net, corb, cstack, cadapter, hosts = build(mtu=256)

    class Bulk:
        def fetch(self, n):
            return b"z" * n

    for pid in (1, 2):
        hosts[pid][0].poa.deactivate(b"svc")
        hosts[pid][0].poa.activate(b"svc", Bulk())
    proxy = corb.proxy(REF)
    out = corb.call(proxy, "fetch", 5000, timeout=10.0)
    assert out == b"z" * 5000


def test_adapter_stats_accumulate():
    net, corb, cstack, cadapter, hosts = build()
    proxy = corb.proxy(REF)
    for i in range(3):
        corb.call(proxy, "ping", i)
    net.run_for(0.3)
    assert hosts[1][2].stats_requests_executed == 3
    assert cadapter.stats_replies_matched == 3
    assert cadapter.stats_duplicates_suppressed >= 3  # second replica's replies


def _fragmenting_cluster(client_pids, mtu=256):
    net = Network(lan(), seed=0)
    cfg = FTMPConfig(suspect_timeout=0.060)
    orbs, adapters = {}, {}
    for pid in (1, 2) + client_pids:
        orbs[pid] = ORB(pid, net.scheduler)
        adapters[pid] = FTMPAdapter(
            orbs[pid], FTMPStack(net.endpoint(pid), cfg), giop_mtu=mtu)
    for pid in (1, 2):
        orbs[pid].poa.activate(b"svc", Servant())
        adapters[pid].export(7, 100, (1, 2))
    for pid in client_pids:
        adapters[pid].set_client(ClientIdentity(3, 200, client_pids))
    futs = [orbs[pid].proxy(REF).ping(1) for pid in client_pids]
    net.run_for(0.5)
    assert all(f.result() == 1 for f in futs)
    return net, adapters


def _send_first_fragment_only(adapter, mtu=256):
    """Put the first piece of a fragmented Request on the connection and
    nothing after it — what the members see when the source stops there."""
    from repro.giop import (
        GIOPHeader,
        GIOPMessageType,
        RequestMessage,
        encode_giop,
        encode_values,
    )
    from repro.giop.fragmentation import fragment_giop

    req = RequestMessage(header=GIOPHeader(GIOPMessageType.REQUEST),
                         request_id=50, object_key=b"svc", operation="ping",
                         body=encode_values([b"z" * 2000]))
    pieces = fragment_giop(encode_giop(req), mtu)
    assert len(pieces) > 2
    adapter.stack.send_on_connection(adapter.connection_id_for(REF), pieces[0], 50)


def test_partial_reassembly_dropped_when_its_source_is_removed():
    """Regression: a source that crashed between two fragments left its
    partial message behind for good (nothing ever dropped one); had the pid
    ever been seen again, its messages would have been rejected as 'new
    message started while a fragmented one was incomplete'."""
    net, adapters = _fragmenting_cluster((8,))
    _send_first_fragment_only(adapters[8])
    net.run_for(0.2)
    assert [adapters[p]._reassembler.pending() for p in (1, 2)] == [1, 1]
    net.crash(8)
    net.run_for(1.5)  # the fault view removing 8 installs
    assert [adapters[p]._reassembler.pending() for p in (1, 2)] == [0, 0]


def test_partial_reassembly_dropped_when_its_connection_closes():
    net, adapters = _fragmenting_cluster((8, 9))
    _send_first_fragment_only(adapters[8])
    net.run_for(0.2)
    assert [adapters[p]._reassembler.pending() for p in (1, 2, 9)] == [1, 1, 1]
    adapters[9].close_connection(REF)
    net.run_for(0.5)
    assert [a._reassembler.pending() for a in adapters.values()] == [0, 0, 0, 0]
