"""E19 — wall-clock throughput of the real multi-process cluster runtime.

Every other experiment in this suite measures *simulated* time: the
discrete-event scheduler is the semantic truth, and its numbers are
machine-independent.  E19 is the one exception, kept here until
``perf/`` has a multi-process workload (ROADMAP item 5) — the identical
FTMP stack (same ``repro.core`` bytes, selected purely by swapping the
``Endpoint`` implementation) runs across real OS processes over the
asyncio UDP fabric, and we measure what the wall clock actually says:
ordered msgs/s and send→own-ordered-delivery latency percentiles per
process count.

Correctness is not inferred from the numbers: each run cross-checks
every process's delivery log with the chaos-campaign oracles (total
order, per-source FIFO, no duplicates), and the bench fails on any
violation or shortfall.  The *performance* figures, by contrast, are the
most machine-dependent in the whole report, so they land in the
``wallclock`` section that the bench diff soft-warns on and never gates
(see ``_report.GATED_METRICS``).
"""

from repro.analysis import Table
from repro.runtime.cluster import ClusterSpec, run_cluster

from _report import emit, emit_json, wallclock_section

PROCESS_COUNTS = (3, 5)
MESSAGES_PER_PROCESS = 1500
PAYLOAD_SIZE = 64


def test_e19_wallclock_cluster():
    results = {
        n: run_cluster(ClusterSpec(
            processes=n,
            messages_per_process=MESSAGES_PER_PROCESS,
            payload_size=PAYLOAD_SIZE,
            run_timeout=180.0,
        ))
        for n in PROCESS_COUNTS
    }

    table = Table(
        ["processes", "mode", "ordered deliveries", "msgs/s",
         "latency p50 (ms)", "p99 (ms)", "oracle"],
        title=f"E19 — wall-clock cluster throughput "
              f"({MESSAGES_PER_PROCESS} x {PAYLOAD_SIZE} B multicasts "
              f"per process, real OS processes + UDP sockets)",
    )
    for n, r in sorted(results.items()):
        table.add_row(
            n, r.mode, r.total_delivered, round(r.msgs_s),
            r.latency_p50_ms, r.latency_p99_ms,
            "clean" if not r.violations else f"{len(r.violations)} VIOLATIONS",
        )
    emit("E19_wallclock_cluster", table.render())
    emit_json("e19_wallclock_cluster", {
        "messages_per_process": MESSAGES_PER_PROCESS,
        "payload_size": PAYLOAD_SIZE,
        "wallclock": wallclock_section(results),
    })

    for n, r in sorted(results.items()):
        assert r.ok, (
            f"{n}-process cluster not clean: violations={r.violations} "
            f"errors={r.worker_errors} delivered={r.delivered}"
        )
