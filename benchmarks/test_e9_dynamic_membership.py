"""E9 — §7.1: non-faulty membership changes leave the ordering undisturbed.

"These mechanisms depend on the ordering of messages, which continues
unaffected by the adding and removing of processors, provided that no
processor is faulty."

Under a steady message stream, processors join and leave.  Measured: the
largest inter-delivery gap with and without membership churn (the
"disturbance"), agreement among continuous members, and the suffix
property for joiners.
"""

from repro.analysis import Table, make_cluster
from repro.core import FTMPConfig, FTMPStack, RecordingListener

from _report import emit

STREAM_MSGS = 150
INTERVAL = 0.002


def stream(cluster, senders):
    for i in range(STREAM_MSGS):
        for s in senders:
            cluster.net.scheduler.at(0.01 + INTERVAL * i,
                                     cluster.stacks[s].multicast, 1,
                                     f"{s}:{i}".encode())


def max_gap(listener):
    times = [d.delivered_at for d in listener.deliveries]
    return max(b - a for a, b in zip(times, times[1:]))


def run_baseline():
    cluster = make_cluster((1, 2, 3), seed=4)
    stream(cluster, (1, 2))
    cluster.run_for(2.0)
    return max_gap(cluster.listeners[1])


def run_with_churn():
    cluster = make_cluster((1, 2, 3), seed=4)
    stream(cluster, (1, 2))

    def join(pid):
        lst = RecordingListener()
        st = FTMPStack(cluster.net.endpoint(pid), FTMPConfig(), lst)
        cluster.stacks[pid] = st
        cluster.listeners[pid] = lst
        st.join_as_new_member(1, 5001)
        cluster.stacks[1].add_processor(1, pid)

    # a join and a graceful leave in the middle of the stream
    cluster.net.scheduler.at(0.08, join, 4)
    cluster.net.scheduler.at(0.20, cluster.stacks[1].remove_processor, 1, 3)
    cluster.run_for(2.0)

    gap = max_gap(cluster.listeners[1])
    orders = cluster.orders(1)
    agree = orders[1] == orders[2]
    joiner = orders[4]
    suffix_ok = joiner == orders[1][-len(joiner):] if joiner else False
    complete = len(cluster.listeners[1].payloads(1)) == 2 * STREAM_MSGS
    views = [v.reason for v in cluster.listeners[1].views]
    return gap, agree, suffix_ok, complete, views


def test_e9_dynamic_membership():
    baseline_gap = run_baseline()
    churn_gap, agree, suffix_ok, complete, views = run_with_churn()

    table = Table(
        ["scenario", "max inter-delivery gap (ms)", "notes"],
        title="E9 — ordering disturbance from non-faulty membership changes "
              f"({2 * STREAM_MSGS} msgs streaming)",
    )
    table.add_row("static membership", baseline_gap * 1e3, "baseline")
    table.add_row("join + leave mid-stream", churn_gap * 1e3,
                  f"views: {views}")
    emit("E9_dynamic_membership", table.render())

    assert agree and suffix_ok and complete
    assert "add" in views and "remove" in views
    # "continues unaffected": the churn run's worst gap stays within the
    # same regime as the static run (a few heartbeat intervals), nothing
    # like the suspect-timeout stalls a fault causes (E5)
    assert churn_gap < baseline_gap + 0.050
