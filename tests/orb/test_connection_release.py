"""Connection release tests (§7 "releasing a logical connection")."""

import pytest

from repro.core import FTMPConfig, FTMPStack
from repro.giop import CommFailure, GroupRef
from repro.orb import ORB, ClientIdentity, FTMPAdapter
from repro.simnet import Network, lan

REF = GroupRef("T", domain=7, object_group=100, object_key=b"svc")
REF2 = GroupRef("T", domain=7, object_group=101, object_key=b"svc2")


class Servant:
    def __init__(self):
        self.count = 0

    def ping(self):
        return "pong"

    def bump(self):
        self.count += 1
        return self.count


def build(seed=0):
    net = Network(lan(), seed=seed)
    hosts = {}
    for pid in (1, 2):
        orb = ORB(pid, net.scheduler)
        stack = FTMPStack(net.endpoint(pid), FTMPConfig())
        adapter = FTMPAdapter(orb, stack)
        orb.poa.activate(b"svc", Servant())
        orb.poa.activate(b"svc2", Servant())
        adapter.export(7, 100, (1, 2))
        adapter.export(7, 101, (1, 2))
        hosts[pid] = (orb, stack, adapter)
    corb = ORB(8, net.scheduler)
    cstack = FTMPStack(net.endpoint(8), FTMPConfig())
    cadapter = FTMPAdapter(corb, cstack)
    cadapter.set_client(ClientIdentity(3, 200, (8,)))
    return net, corb, cstack, cadapter, hosts


def test_close_tears_down_everywhere_and_retires_group():
    net, corb, cstack, cadapter, hosts = build()
    proxy = corb.proxy(REF)
    assert corb.call(proxy, "ping") == "pong"
    cid = cadapter.connection_id_for(REF)
    group_id = cstack.connection_binding(cid).group_id
    cadapter.close_connection(REF)
    net.run_for(0.5)
    # bindings dropped and the group retired on every member
    assert cstack.connection_binding(cid) is None
    assert cstack.group(group_id) is None
    for pid in (1, 2):
        assert hosts[pid][1].connection_binding(cid) is None
        assert hosts[pid][1].group(group_id) is None


def test_shared_group_survives_until_last_connection_released():
    net, corb, cstack, cadapter, hosts = build()
    p1 = corb.proxy(REF)
    p2 = corb.proxy(REF2)
    assert corb.call(p1, "ping") == "pong"
    assert corb.call(p2, "ping") == "pong"
    cid1 = cadapter.connection_id_for(REF)
    cid2 = cadapter.connection_id_for(REF2)
    b1 = cstack.connection_binding(cid1)
    b2 = cstack.connection_binding(cid2)
    assert b1.group_id == b2.group_id  # same processors: shared group (§7)
    cadapter.close_connection(REF)
    net.run_for(0.3)
    assert cstack.connection_binding(cid1) is None
    assert cstack.group(b1.group_id) is not None  # still carrying cid2
    assert corb.call(p2, "ping") == "pong"  # the survivor still works
    cadapter.close_connection(REF2)
    net.run_for(0.3)
    assert cstack.group(b1.group_id) is None


def test_pending_futures_fail_on_close():
    net, corb, cstack, cadapter, hosts = build()
    proxy = corb.proxy(REF)
    assert corb.call(proxy, "ping") == "pong"
    # deactivate servants so a request will never be answered
    for pid in (1, 2):
        hosts[pid][2]._served.discard((7, 100))
    fut = proxy.ping()
    net.run_for(0.1)
    assert not fut.done
    cadapter.close_connection(REF)
    net.run_for(0.3)
    assert fut.done
    with pytest.raises(CommFailure):
        fut.result()


def test_close_unestablished_raises():
    net, corb, cstack, cadapter, hosts = build()
    with pytest.raises(CommFailure):
        cadapter.close_connection(REF)


def test_reconnect_after_release():
    net, corb, cstack, cadapter, hosts = build()
    proxy = corb.proxy(REF)
    assert corb.call(proxy, "ping") == "pong"
    cadapter.close_connection(REF)
    net.run_for(0.5)
    # a fresh invocation re-runs the handshake and works again
    assert corb.call(proxy, "ping", timeout=5.0) == "pong"


def test_reopened_connection_executes_each_request_once():
    # the re-opened cid numbers its requests from 1 again: each must run
    # once, as new, and no request of the released connection again
    net, corb, cstack, cadapter, hosts = build()
    proxy = corb.proxy(REF)
    assert [corb.call(proxy, "bump") for _ in range(3)] == [1, 2, 3]
    cadapter.close_connection(REF)
    net.run_for(0.5)
    assert [corb.call(proxy, "bump", timeout=5.0) for _ in range(3)] == [4, 5, 6]
    net.run_for(0.5)
    for pid in (1, 2):
        assert hosts[pid][0].poa.servant(b"svc").count == 6
