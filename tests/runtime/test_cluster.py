"""End-to-end cluster smoke: real processes, real sockets, real clock.

A deliberately small run (3 worker processes, a few dozen multicasts
each) of the full supervisor → worker → oracle pipeline.  The
acceptance-scale run (≥10k multicasts) lives in the wall-clock bench
tier and the CI ``cluster-smoke`` job; this test only pins the
machine-independent facts — every process delivers every message, the
cross-process total order verifies, and the spec/result plumbing
round-trips.
"""

import json

from repro.runtime.cluster import ClusterSpec, run_cluster


def test_three_process_cluster_totally_ordered():
    spec = ClusterSpec(
        processes=3,
        messages_per_process=40,
        payload_size=48,
        mode="auto",
        seed=3,
        run_timeout=90.0,
    )
    result = run_cluster(spec)
    assert result.worker_errors == [], result.worker_errors
    assert result.violations == [], result.violations
    expected = spec.messages_per_process * spec.processes
    for pid, delivered in result.delivered.items():
        assert delivered == expected, (pid, delivered, expected)
    assert result.ok

    # the report dict must serialize (CI uploads it as an artifact)
    blob = json.loads(json.dumps(result.as_dict()))
    assert blob["ok"] is True
    assert blob["processes"] == 3


def test_cluster_result_surfaces_worker_shortfall():
    """A run that cannot finish reports not-ok instead of hanging."""
    spec = ClusterSpec(
        processes=2,
        messages_per_process=100_000,
        mode="loopback",
        run_timeout=0.5,  # far too short on any host: 400k deliveries/s
    )
    result = run_cluster(spec)
    assert not result.ok
