"""E8 — §4: end-to-end GIOP request/reply over FTMP vs point-to-point IIOP.

The paper's mapping replaces IIOP's physical TCP connection with FTMP's
logical connection between object groups.  This experiment measures what
that costs and buys:

* invocation latency: unreplicated IIOP vs FTMP with 1-3 server replicas
  (the ordering wait and duplicate handling are the overhead);
* fault transparency: with replication, a server crash mid-stream is
  invisible to the client; with IIOP, the service is simply gone.
"""

from repro.analysis import Table, summarize
from repro.analysis.workload import RequestReplyDriver
from repro.core import FTMPConfig
from repro.orb import IIOPNetwork, ORB
from repro.replication import ReplicaManager
from repro.simnet import Network, lan

from _report import emit

N_REQUESTS = 40
#: the replicated runs' §5 heartbeat interval
HEARTBEAT = 0.002


class Echo:
    def __init__(self):
        self.count = 0

    def ping(self, i):
        self.count += 1
        return i

    def get_state(self):
        return self.count

    def set_state(self, s):
        self.count = s


def run_iiop():
    net = Network(lan(), seed=1)
    iiop = IIOPNetwork(net.scheduler)
    server = ORB(1, net.scheduler)
    client = ORB(8, net.scheduler)
    server.attach_iiop(iiop)
    client.attach_iiop(iiop)
    ref = server.activate(b"echo", Echo())
    driver = RequestReplyDriver(
        orb=client, proxy=client.proxy(ref), operation="ping",
        make_args=lambda i: (i,), requests=N_REQUESTS,
        now_fn=lambda: net.scheduler.now,
    )
    driver.start()
    net.run_for(3.0)
    assert driver.completed == N_REQUESTS and not driver.errors
    return summarize(driver.latencies)


def run_ftmp(n_replicas: int):
    net = Network(lan(), seed=1)
    mgr = ReplicaManager(net, config=FTMPConfig(heartbeat_interval=HEARTBEAT))
    ref = mgr.create_server_group(domain=7, object_group=100, object_key=b"echo",
                                  factory=Echo, pids=tuple(range(1, n_replicas + 1)))
    client = mgr.create_client(8, client_domain=3, client_group=200)
    proxy = mgr.proxy(8, ref)
    driver = RequestReplyDriver(
        orb=client.orb, proxy=proxy, operation="ping",
        make_args=lambda i: (i,), requests=N_REQUESTS,
        now_fn=lambda: net.scheduler.now,
    )
    driver.start()
    net.run_for(5.0)
    assert driver.completed == N_REQUESTS and not driver.errors
    return summarize(driver.latencies)


def run_fault_transparency():
    net = Network(lan(), seed=2)
    mgr = ReplicaManager(net, config=FTMPConfig(heartbeat_interval=0.005,
                                                suspect_timeout=0.050))
    ref = mgr.create_server_group(domain=7, object_group=100, object_key=b"echo",
                                  factory=Echo, pids=(1, 2, 3))
    client = mgr.create_client(8, client_domain=3, client_group=200)
    proxy = mgr.proxy(8, ref)
    driver = RequestReplyDriver(
        orb=client.orb, proxy=proxy, operation="ping",
        make_args=lambda i: (i,), requests=N_REQUESTS,
        now_fn=lambda: net.scheduler.now, think_time=0.010,
    )
    driver.start()
    net.scheduler.at(0.1, net.crash, 2)  # kill a replica mid-stream
    net.run_for(5.0)
    return driver


def test_e8_giop_end_to_end():
    results, fault_driver = {
        "iiop (unreplicated)": run_iiop(),
        "ftmp, 1 replica": run_ftmp(1),
        "ftmp, 2 replicas": run_ftmp(2),
        "ftmp, 3 replicas": run_ftmp(3),
    }, run_fault_transparency()

    table = Table(
        ["transport", "mean latency (ms)", "p50 (ms)", "p99 (ms)"],
        title=f"E8 — GIOP request/reply latency ({N_REQUESTS} closed-loop requests)",
    )
    for name, lat in results.items():
        table.add_row(name, lat.mean * 1e3, lat.p50 * 1e3, lat.p99 * 1e3)
    table.add_row("ftmp, 3 replicas + crash", "all requests completed:",
                  f"{fault_driver.completed}/{N_REQUESTS}",
                  f"errors={len(fault_driver.errors)}")
    emit("E8_giop_end_to_end", table.render())

    iiop = results["iiop (unreplicated)"]
    ftmp3 = results["ftmp, 3 replicas"]
    # replication costs latency: the logical connection is slower than raw
    # point-to-point, but within a small constant factor on a LAN
    assert ftmp3.mean > iiop.mean
    assert ftmp3.mean < 50 * iiop.mean
    # replication degree barely moves the latency (multicast, not unicast)
    assert results["ftmp, 3 replicas"].mean < 3 * results["ftmp, 1 replica"].mean
    # members heartbeat at once on connection traffic: an invocation does
    # not wait for the periodic tick
    assert ftmp3.p50 < HEARTBEAT
    # fault transparency: the crash cost no requests and raised no errors
    assert fault_driver.completed == N_REQUESTS
    assert not fault_driver.errors
