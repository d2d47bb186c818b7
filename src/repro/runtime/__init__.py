"""Real asyncio multi-process cluster runtime for the FTMP stack.

The discrete-event simulator (:mod:`repro.simnet`) is the *semantic*
truth — deterministic, oracle-checked, explorable.  This package is the
*wall-clock* truth: the identical protocol stack (flow control, adaptive
batching, NACK deduplication included) running over real OS
processes, one asyncio event loop per processor, with datagrams on real
UDP sockets.

* :mod:`repro.runtime.aio` — :class:`AioFabric` / :class:`AioEndpoint`:
  the :class:`~repro.transport.Endpoint` seam over an asyncio loop
  (monotonic clock, ``loop.call_later`` timers, UDP datagram endpoints),
  with real IP-multicast or a loopback unicast fan-out fallback;
* :mod:`repro.runtime.worker` — one processor process: stack + workload
  + delivery log, reporting to the supervisor over a control socket;
* :mod:`repro.runtime.cluster` — the supervisor: spawns N processor
  processes, barrier-starts the workload, collects delivery logs and
  ``FTMPStack.snapshot()`` stats, and cross-checks total order with the
  chaos-campaign oracles.
"""

from .aio import AioEndpoint, AioFabric
from .cluster import ClusterResult, ClusterSpec, run_cluster

__all__ = [
    "AioEndpoint",
    "AioFabric",
    "ClusterSpec",
    "ClusterResult",
    "run_cluster",
]
