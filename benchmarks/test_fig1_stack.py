"""F1 — Figure 1: the FTMP protocol stack.

Reproduces the layering diagram as an executable artifact: one GIOP
request/reply traverses ORB -> (ROMP | PGMP) -> RMP -> IP Multicast, and
the per-layer counters prove each layer did its job.
"""

from repro.analysis import Table
from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.simnet import Network, lan

from _report import emit


def traverse_stack(n_messages: int = 200):
    net = Network(lan(), seed=1)
    listeners, stacks = {}, {}
    for pid in (1, 2, 3):
        lst = RecordingListener()
        st = FTMPStack(net.endpoint(pid), FTMPConfig(), lst)
        st.create_group(1, 5001, (1, 2, 3))
        listeners[pid], stacks[pid] = lst, st
    for i in range(n_messages):
        net.scheduler.at(0.0005 * i, stacks[1].multicast, 1, b"x" * 64)
    net.run_for(2.0)
    return net, stacks, listeners


def test_fig1_stack_layering():
    net, stacks, listeners = traverse_stack()

    g = stacks[2].group(1)
    table = Table(["layer (Figure 1)", "evidence", "count"],
                  title="F1 — protocol stack traversal (receiver, processor 2)")
    table.add_row("IP Multicast (simnet)", "datagrams received",
                  stacks[2].stats.datagrams_received)
    table.add_row("RMP", "reliable msgs delivered in source order",
                  g.rmp.stats.delivered)
    table.add_row("ROMP", "messages delivered in total order",
                  g.romp.stats.ordered_deliveries)
    table.add_row("PGMP", "views installed (bootstrap)",
                  len(listeners[2].views))
    table.add_row("application", "payload deliveries", len(listeners[2].deliveries))
    emit("F1_stack", table.render())

    # layering invariants: counts can only shrink moving up the stack
    assert stacks[2].stats.datagrams_received >= g.rmp.stats.delivered
    assert g.rmp.stats.delivered >= g.romp.stats.ordered_deliveries
    assert g.romp.stats.ordered_deliveries >= len(listeners[2].deliveries)
    assert len(listeners[2].deliveries) == 200
    # heartbeats flowed beside the data path (PGMP liveness, §5)
    assert any(stacks[p].group(1).stats.heartbeats_sent > 0 for p in (2, 3))
