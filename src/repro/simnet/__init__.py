"""Simulated IP-Multicast substrate for FTMP.

Public surface:

* :class:`Scheduler` — discrete-event engine (simulated seconds);
* :class:`Network` / :class:`SimEndpoint` — deterministic multicast fabric
  with loss, jitter, partitions and crash faults;
* :class:`Topology` / :class:`LinkModel` and the :func:`lan`, :func:`wan`,
  :func:`lossy_lan`, :func:`two_site_wan` presets;
* :class:`Endpoint` — the abstract transport the protocol stacks target
  (its real-socket implementation is :mod:`repro.runtime.aio`).
"""

from ..transport import Endpoint, TimerHandle
from .scheduler import Event, Scheduler, SimTimeError
from .schedules import (
    FifoPolicy,
    PCTPolicy,
    RandomPolicy,
    ReplayPolicy,
    Schedule,
    SchedulePolicy,
)
from .topology import LinkModel, Topology, lan, lossy_lan, two_site_wan, wan
from .trace import NetworkTrace, PacketRecord
from .network import Network, SimEndpoint

__all__ = [
    "Event",
    "Scheduler",
    "SimTimeError",
    "SchedulePolicy",
    "FifoPolicy",
    "RandomPolicy",
    "PCTPolicy",
    "ReplayPolicy",
    "Schedule",
    "LinkModel",
    "Topology",
    "lan",
    "lossy_lan",
    "wan",
    "two_site_wan",
    "NetworkTrace",
    "PacketRecord",
    "Endpoint",
    "TimerHandle",
    "Network",
    "SimEndpoint",
]
