"""E14 (extension) — membership-operation latency vs group size.

§7's membership machinery involves every member (AddProcessor must be
ordered by all; a fault view needs Membership messages from every
survivor).  This experiment measures how the two reconfiguration paths
scale with group size:

* **join**: AddProcessor initiation → new member's view installation;
* **fault recovery**: crash → fault report at a survivor.

Expected shape: both grow only mildly with group size — ordering one
AddProcessor costs the same coverage wait as any message, and the fault
path is dominated by the (size-independent) suspect timeout; the
Membership exchange itself is one concurrent round, not a sequential one.
"""

from repro.analysis import Table, make_cluster
from repro.core import FTMPConfig, FTMPStack, RecordingListener

from _report import emit, emit_json

GROUP_SIZES = (3, 5, 8, 12)
CFG = FTMPConfig(heartbeat_interval=0.005, suspect_timeout=0.060)


def run_join(n: int):
    pids = tuple(range(1, n + 1))
    c = make_cluster(pids, config=CFG, seed=n)
    c.run_for(0.05)
    new_pid = n + 1
    lst = RecordingListener()
    st = FTMPStack(c.net.endpoint(new_pid), CFG, lst)
    t0 = c.net.scheduler.now
    st.join_as_new_member(1, 5001)
    c.stacks[1].add_processor(1, new_pid)
    c.run_for(1.0)
    views = [v for v in lst.views if v.reason == "add"]
    assert views, f"join failed at n={n}"
    # and the established members agree
    assert c.listeners[1].current_membership(1) == tuple(sorted(pids + (new_pid,)))
    return views[0].installed_at - t0


def run_fault(n: int):
    pids = tuple(range(1, n + 1))
    c = make_cluster(pids, config=CFG, seed=n + 100)
    c.run_for(0.05)
    t0 = c.net.scheduler.now
    c.net.crash(pids[-1])
    c.run_for(2.0)
    report = c.listeners[1].faults[0]
    assert c.listeners[1].current_membership(1) == pids[:-1]
    return report.reported_at - t0


def test_e14_membership_scaling():
    results = {n: (run_join(n), run_fault(n)) for n in GROUP_SIZES}

    table = Table(
        ["group size", "join latency (ms)", "crash→fault report (ms)"],
        title="E14 — membership reconfiguration latency vs group size",
    )
    for n in GROUP_SIZES:
        join_ms, fault_ms = results[n][0] * 1e3, results[n][1] * 1e3
        table.add_row(n, join_ms, fault_ms)
    emit("E14_membership_scaling", table.render())
    emit_json("e14_membership_scaling", {
        "series": [
            {
                "group_size": n,
                "join_latency_ms": round(results[n][0] * 1e3, 3),
                "fault_report_latency_ms": round(results[n][1] * 1e3, 3),
            }
            for n in GROUP_SIZES
        ],
    })

    joins = [results[n][0] for n in GROUP_SIZES]
    faults = [results[n][1] for n in GROUP_SIZES]
    # join completes within a few retransmission/heartbeat rounds at any size
    assert all(j < 0.100 for j in joins)
    # fault recovery is dominated by the suspect timeout, not group size:
    # even at 4x the members it stays within ~2x of the smallest group
    assert max(faults) < 2 * min(faults)
    assert all(CFG.suspect_timeout * 0.9 <= f < CFG.suspect_timeout + 0.15
               for f in faults)
