"""LLFT replication mode — the public face of the leader-follower path.

The ordering engine itself lives in :mod:`repro.core.llft` (it is a
datapath concern, wired under ROMP when ``FTMPConfig.ordering`` is
``"leader"``).  This module is the replication-layer entry point: a
helper to ask a running stack who leads a group, and the re-exported
engine types for tests and tooling.

Semantics in one paragraph: the leader's reliable FIFO stream *is* the
total order.  The leader delivers its own sends at send time and
announces everyone else's via OrderInfo Regulars inside its stream;
followers replay that stream one hop behind.  §6 stability (buffer GC,
flow-control credits) advances asynchronously off cover timestamps, and
the §7.2 view-change drain plus a takeover batch from the successor
leader preserve virtual synchrony across leader failure — the full
chaos-oracle battery runs against the mode unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..core import FTMPStack
from ..core.llft import ORDER_INFO_CID, LeaderOrdering, LLFTStats

__all__ = [
    "current_leader",
    "ORDER_INFO_CID",
    "LeaderOrdering",
    "LLFTStats",
]


def current_leader(stack: FTMPStack, group_id: int) -> Optional[int]:
    """The pid currently ordering ``group_id`` at this stack, or None.

    None when the stack does not have the group or runs in legacy active
    mode (symmetric ordering — no processor is special).  During a view
    change the answer is this processor's deterministic projection from
    its current membership; every member converges on it with the view.
    """
    g = stack.group(group_id)
    return None if g is None else g.romp.leader()
