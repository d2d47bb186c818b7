"""RMP behaviour: reliable source-ordered delivery, NACKs, retransmission."""

from repro.core import FTMPConfig, RetransmitRequestMessage
from repro.simnet import LinkModel, lan

from repro.analysis.harness import make_cluster


def test_all_messages_delivered_under_heavy_loss():
    c = make_cluster((1, 2, 3), topology=lan(loss=0.25), seed=11,
                     config=FTMPConfig(suspect_timeout=10.0))
    for i in range(30):
        c.net.scheduler.at(0.001 * i, c.stacks[1].multicast, 1, f"m{i}".encode())
    c.run_for(3.0)
    for pid in (1, 2, 3):
        assert c.listeners[pid].payloads(1) == [f"m{i}".encode() for i in range(30)]


def test_source_order_preserved_per_sender():
    c = make_cluster((1, 2, 3), topology=lan(loss=0.15), seed=5,
                     config=FTMPConfig(suspect_timeout=10.0))
    for i in range(20):
        for pid in (1, 2, 3):
            c.net.scheduler.at(0.001 * i, c.stacks[pid].multicast, 1, f"{pid}:{i}".encode())
    c.run_for(3.0)
    for receiver in (1, 2, 3):
        payloads = c.listeners[receiver].payloads(1)
        for sender in (1, 2, 3):
            own = [p for p in payloads if p.startswith(f"{sender}:".encode())]
            assert own == [f"{sender}:{i}".encode() for i in range(20)]


def test_nacks_are_sent_on_gaps():
    c = make_cluster((1, 2), topology=lan(loss=0.3), seed=9,
                     config=FTMPConfig(suspect_timeout=10.0))
    for i in range(20):
        c.net.scheduler.at(0.001 * i, c.stacks[1].multicast, 1, f"m{i}".encode())
    c.run_for(2.0)
    stats = c.stacks[2].group(1).rmp.stats
    assert stats.nacks_sent > 0
    assert c.listeners[2].payloads(1) == [f"m{i}".encode() for i in range(20)]


def test_no_nacks_without_loss():
    c = make_cluster((1, 2, 3), seed=1)
    for i in range(20):
        c.net.scheduler.at(0.001 * i, c.stacks[1].multicast, 1, b"x")
    c.run_for(1.0)
    for pid in (1, 2, 3):
        assert c.stacks[pid].group(1).rmp.stats.nacks_sent == 0


def test_any_holder_may_retransmit():
    # Degrade the 1->3 link to 90% loss: node 3 learns of node 1's
    # messages only from the occasional packet that gets through, and
    # recovery must come mostly from node 2's buffer ("any processor that
    # has received ... may retransmit", §5).
    topo = lan()
    topo.set_link(1, 3, LinkModel(latency=0.0001, jitter=0, loss=0.9), symmetric=False)
    c = make_cluster((1, 2, 3), topology=topo, seed=3,
                     config=FTMPConfig(suspect_timeout=10.0))
    for i in range(10):
        c.net.scheduler.at(0.001 * i, c.stacks[1].multicast, 1, f"m{i}".encode())
    c.run_for(5.0)
    assert c.listeners[3].payloads(1) == [f"m{i}".encode() for i in range(10)]
    # node 2 must have answered at least one NACK
    assert c.stacks[2].group(1).rmp.stats.retransmissions_sent > 0


def test_retransmissions_carry_the_flag_and_are_deduplicated():
    c = make_cluster((1, 2, 3), topology=lan(loss=0.2), seed=21,
                     config=FTMPConfig(suspect_timeout=10.0))
    for i in range(25):
        c.net.scheduler.at(0.001 * i, c.stacks[1].multicast, 1, f"m{i}".encode())
    c.run_for(3.0)
    g2 = c.stacks[2].group(1)
    # duplicates (original + retransmission both arriving) are absorbed
    assert c.listeners[2].payloads(1) == [f"m{i}".encode() for i in range(25)]
    assert g2.rmp.stats.delivered == 25


def test_heartbeat_reveals_gap_when_last_message_lost():
    # Drop everything 1->2 for a while, then stop sending: only node 1's
    # heartbeats tell node 2 it missed messages.
    topo = lan()
    link = LinkModel(latency=0.0001, jitter=0, loss=1.0)
    topo.set_link(1, 2, link, symmetric=False)
    c = make_cluster((1, 2, 3), topology=topo, seed=4,
                     config=FTMPConfig(suspect_timeout=10.0))
    c.stacks[1].multicast(1, b"lost-on-1-to-2")
    # heal after the original transmission + first NACK window
    c.net.scheduler.at(0.005, lambda: setattr(link, "loss", 0.0))
    c.run_for(1.0)
    assert c.listeners[2].payloads(1) == [b"lost-on-1-to-2"]


def test_duplicate_regular_messages_counted_not_redelivered():
    # the buffer keeps what it holds: stable by 0.05 s, the message
    # would be reclaimed, and nothing re-injected
    c = make_cluster((1, 2), seed=2, config=FTMPConfig(buffer_gc_enabled=False))
    g1 = c.stacks[1].group(1)
    c.stacks[1].multicast(1, b"once")
    c.run_for(0.05)
    # re-inject the retained message as a spurious retransmission
    duplicates = c.stacks[2].group(1).rmp.stats.duplicates
    g1.retransmit(g1.buffer.get(1, 1))
    c.run_for(0.05)
    assert c.stacks[2].group(1).rmp.stats.duplicates == duplicates + 1
    assert c.listeners[2].payloads(1) == [b"once"]


def test_retransmit_request_not_answered_for_unknown_messages():
    c = make_cluster((1, 2), seed=2)
    g1 = c.stacks[1].group(1)
    before = g1.rmp.stats.retransmissions_sent
    # ask for messages that never existed
    g2 = c.stacks[2].group(1)
    g2.send(RetransmitRequestMessage, 1, 100, 105)
    c.run_for(0.1)
    assert g1.rmp.stats.retransmissions_sent == before


def test_stats_track_out_of_order_buffering():
    c = make_cluster((1, 2), topology=lan(loss=0.3), seed=17,
                     config=FTMPConfig(suspect_timeout=10.0))
    for i in range(30):
        c.net.scheduler.at(0.0005 * i, c.stacks[1].multicast, 1, b"z")
    c.run_for(2.0)
    s = c.stacks[2].group(1).rmp.stats
    assert s.delivered == 30
    assert s.out_of_order > 0
    assert s.gaps_detected > 0
