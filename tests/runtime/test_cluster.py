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


def test_sharded_cluster_totally_ordered_over_rings():
    """Same smoke over the sharded datapath: I/O-shard subprocesses own
    the sockets, peer traffic rides the shm rings — the oracles must
    hold and the ring path must have actually carried frames."""
    spec = ClusterSpec(
        processes=3,
        messages_per_process=40,
        payload_size=48,
        mode="loopback",
        seed=3,
        io_shards=1,
        run_timeout=90.0,
    )
    result = run_cluster(spec)
    assert result.worker_errors == [], result.worker_errors
    assert result.violations == [], result.violations
    assert result.ok
    assert result.io_shards == 1
    assert result.net.get("ring_ingest", 0) > 0, result.net
    assert result.net.get("shard_failovers", 0) == 0, result.net


def test_sharded_cluster_survives_shard_kill():
    """Chaos: SIGKILL one worker's only I/O shard mid-run — once that
    worker has delivered a quarter of the run, however fast the machine.
    The core binds the data port itself (failover) and the run still
    completes with clean oracles.  ``peer_rings=False`` keeps the data
    traffic on the shard sockets so the killed shard actually mattered."""
    spec = ClusterSpec(
        processes=3,
        messages_per_process=40,
        payload_size=48,
        mode="loopback",
        seed=3,
        io_shards=1,
        peer_rings=False,
        chaos_kill_shard=True,
        run_timeout=90.0,
    )
    result = run_cluster(spec)
    assert result.worker_errors == [], result.worker_errors
    assert result.violations == [], result.violations
    assert result.ok
    assert result.net.get("shard_failovers", 0) >= 1, result.net


def test_cluster_result_surfaces_worker_shortfall():
    """A run that cannot finish reports not-ok instead of hanging."""
    spec = ClusterSpec(
        processes=2,
        messages_per_process=100_000,
        mode="loopback",
        run_timeout=0.5,  # far too short on any host: 400k deliveries/s
        warmup_timeout=30.0,
    )
    result = run_cluster(spec)
    assert not result.ok
