"""E10 — §7: connection establishment and multicast-address migration.

Measures (a) the ConnectRequest/Connect handshake latency under loss —
the retry loops must converge within a few retry intervals — and (b) the
ordered-Connect migration of a live connection to a new multicast
address, including the §7 quiescence rule, without losing or reordering
any traffic.
"""

from repro.analysis import Table, make_cluster
from repro.core import ConnectionId, FTMPConfig
from repro.core.constants import HANDSHAKE_RESEND_INTERVAL
from repro.simnet import lossy_lan

from _report import emit

CID = ConnectionId(3, 200, 7, 100)
LOSS_RATES = (0.0, 0.1, 0.3)


def run_handshake(loss: float, seed: int = 5):
    cfg = FTMPConfig(suspect_timeout=30.0)
    c = make_cluster((1, 2, 8, 9), create_group=False,
                     topology=lossy_lan(loss), config=cfg, seed=seed)
    for pid in (1, 2):
        c.stacks[pid].serve(domain=7, object_group=100, server_pids=(1, 2))
    t0 = c.net.scheduler.now
    for pid in (8, 9):
        c.stacks[pid].request_connection(CID, client_pids=(8, 9))
    # poll for establishment everywhere
    established_at = {}

    def check():
        for pid in (1, 2, 8, 9):
            if pid not in established_at:
                b = c.stacks[pid].connection_binding(CID)
                if b is not None and b.established:
                    established_at[pid] = c.net.scheduler.now
        if len(established_at) < 4:
            c.net.scheduler.schedule(0.001, check)

    c.net.scheduler.schedule(0.001, check)
    c.run_for(5.0)
    assert len(established_at) == 4, f"handshake incomplete at loss={loss}"
    return max(established_at.values()) - t0


def run_migration():
    cfg = FTMPConfig()
    c = make_cluster((1, 2, 8), create_group=False, config=cfg, seed=6)
    for pid in (1, 2):
        c.stacks[pid].serve(domain=7, object_group=100, server_pids=(1, 2))
    c.stacks[8].request_connection(CID, client_pids=(8,))
    c.run_for(0.2)
    binding = c.stacks[8].connection_binding(CID)

    # traffic before, during and after the migration
    for i in range(30):
        c.net.scheduler.at(0.25 + 0.002 * i,
                           c.stacks[8].send_on_connection, CID,
                           f"m{i}".encode(), i + 1)
    new_addr = binding.address + 7
    c.net.scheduler.at(0.28, c.stacks[1].migrate_connection, CID, new_addr)
    c.run_for(2.0)

    payloads = {p: [d.payload for d in c.listeners[p].deliveries] for p in (1, 2, 8)}
    complete = all(payloads[p] == [f"m{i}".encode() for i in range(30)]
                   for p in (1, 2, 8))
    moved = all(
        c.stacks[p].connection_binding(CID).address == new_addr for p in (1, 2, 8)
    )
    deferred = sum(
        c.stacks[p].group(binding.group_id).stats.ordered_sends_deferred
        for p in (1, 2, 8)
    )
    return complete, moved, deferred


def test_e10_connection_establishment():
    handshakes = {loss: run_handshake(loss) for loss in LOSS_RATES}
    complete, moved, deferred = run_migration()

    table = Table(
        ["scenario", "result"],
        title="E10 — connection establishment and migration",
    )
    for loss in LOSS_RATES:
        table.add_row(f"handshake, loss={loss:.0%}",
                      f"{handshakes[loss] * 1e3:.1f} ms to full establishment")
    table.add_row("address migration",
                  f"complete={complete} moved={moved} "
                  f"quiescence-deferred sends={deferred}")
    emit("E10_connection_establishment", table.render())

    # lossless handshake completes within one retry interval + RTTs
    assert handshakes[0.0] < HANDSHAKE_RESEND_INTERVAL + 0.010
    # lossy handshakes converge within a handful of retry intervals
    assert handshakes[0.3] < 20 * HANDSHAKE_RESEND_INTERVAL
    assert handshakes[0.0] <= handshakes[0.3]
    # migration preserved completeness, order and moved every member
    assert complete and moved
