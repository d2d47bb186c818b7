"""E5 — §7.2: fault detection, conviction and membership reconfiguration.

"If one or more processors are faulty, the ordering of messages stops
until those processors are removed from the membership."

Measures, per suspect-timeout setting: the time from crash to fault
report (detection + conviction + virtual-synchrony sync + view install)
and the ordering-stall window seen by the application.  Shape asserted:
reconfiguration time tracks the suspect timeout, order agreement holds,
and ordering resumes after the view change.
"""

from repro.analysis import Table, make_cluster
from repro.core import FTMPConfig

from _report import emit

TIMEOUTS_MS = (30, 60, 120, 240)
CRASH_AT = 0.100


def run_point(suspect_timeout_s: float):
    cfg = FTMPConfig(heartbeat_interval=0.005, suspect_timeout=suspect_timeout_s)
    cluster = make_cluster((1, 2, 3, 4), config=cfg, seed=3)
    for i in range(120):
        for s in (1, 2, 3, 4):
            cluster.net.scheduler.at(0.004 * i, cluster.stacks[s].multicast, 1,
                                     f"{s}:{i}".encode())
    cluster.net.scheduler.at(CRASH_AT, cluster.net.crash, 4)
    cluster.run_for(3.0)

    survivor = cluster.listeners[1]
    report_at = survivor.faults[0].reported_at
    times = [d.delivered_at for d in survivor.deliveries]
    stall = max(b - a for a, b in zip(times, times[1:]))
    orders = cluster.orders(1)
    agree = orders[1] == orders[2] == orders[3]
    resumed = times[-1] > report_at  # deliveries continued after the view
    return report_at - CRASH_AT, stall, agree, resumed, len(times)


def test_e5_membership_fault():
    results = {ms: run_point(ms / 1e3) for ms in TIMEOUTS_MS}

    table = Table(
        ["suspect timeout (ms)", "crash→fault report (ms)",
         "max ordering stall (ms)", "survivors agree", "deliveries"],
        title="E5 — crash fault: detection + reconfiguration latency",
    )
    for ms in TIMEOUTS_MS:
        detect, stall, agree, resumed, n = results[ms]
        table.add_row(ms, detect * 1e3, stall * 1e3, agree, n)
    emit("E5_membership_fault", table.render())

    for ms in TIMEOUTS_MS:
        detect, stall, agree, resumed, n = results[ms]
        assert agree and resumed
        # detection happens after the timeout but within a few scan periods
        assert detect >= ms / 1e3 * 0.9
        assert detect <= ms / 1e3 + 0.100
        # the ordering stall is dominated by the detection delay
        assert stall >= ms / 1e3 * 0.8
    # shape: reconfiguration time grows with the suspect timeout
    detects = [results[ms][0] for ms in TIMEOUTS_MS]
    assert all(a < b for a, b in zip(detects, detects[1:]))
