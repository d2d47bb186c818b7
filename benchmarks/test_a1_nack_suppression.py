"""A1 — ablation: randomized retransmission backoff with suppression.

DESIGN.md §2 instantiates the paper's "any processor that has received
[the] message ... may retransmit" with a randomized-delay suppression
scheme.  This ablation compares suppression on vs off in a larger group
under loss: without suppression, every holder answers every NACK and
retransmission traffic multiplies with group size (the NACK implosion the
scheme exists to avoid); recovery remains correct either way.
"""

from repro.analysis import Table, make_cluster
from repro.core import FTMPConfig
from repro.simnet import lossy_lan

from _report import emit

GROUP = tuple(range(1, 9))  # 8 processors: plenty of redundant holders


def run_point(suppression: bool):
    cfg = FTMPConfig(suspect_timeout=30.0, retransmit_suppression=suppression)
    c = make_cluster(GROUP, topology=lossy_lan(0.10), config=cfg, seed=17)
    for i in range(40):
        c.net.scheduler.at(0.002 * i, c.stacks[1].multicast, 1, f"m{i}".encode())
    c.run_for(4.0)
    complete = all(
        c.listeners[p].payloads(1) == [f"m{i}".encode() for i in range(40)]
        for p in GROUP
    )
    retrans = sum(c.stacks[p].group(1).rmp.stats.retransmissions_sent for p in GROUP)
    suppressed = sum(
        c.stacks[p].group(1).rmp.stats.retransmissions_suppressed for p in GROUP
    )
    packets = c.net.trace.sends
    return complete, retrans, suppressed, packets


def test_a1_nack_suppression():
    with_s, without_s = run_point(True), run_point(False)

    table = Table(
        ["suppression", "complete", "retransmissions sent",
         "retransmissions suppressed", "total packets"],
        title="A1 — NACK-implosion avoidance ablation "
              "(8 processors, 10% loss, 40 msgs)",
    )
    table.add_row("on (default)", *with_s[:1], with_s[1], with_s[2], with_s[3])
    table.add_row("off", *without_s[:1], without_s[1], without_s[2], without_s[3])
    emit("A1_nack_suppression", table.render())

    assert with_s[0] and without_s[0]  # reliability holds either way
    # without suppression, redundant holders multiply retransmissions
    assert without_s[1] > 2 * with_s[1]
    assert with_s[2] > 0  # the scheme actually suppressed copies
