"""Heartbeat-based processor fault detection (paper §2, §5, §7.2).

"The Heartbeat messages also monitor the liveness of the processors and
serve as a processor fault detector."  Every received datagram from a
member refreshes its liveness; a member silent for ``suspect_timeout``
becomes locally suspected, and PGMP is told so it can multicast a Suspect
message.  Suspicion is withdrawn automatically if the member is heard from
again before conviction (the "heuristic algorithms to increase the accuracy
of the processor fault detectors" the paper alludes to).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set

if TYPE_CHECKING:  # pragma: no cover
    from .datapath import GroupContext

__all__ = ["FaultDetector", "FaultDetectorStats"]


@dataclass
class FaultDetectorStats:
    suspicions_raised: int = 0
    suspicions_withdrawn: int = 0


class FaultDetector:
    """Per-group liveness monitor driving PGMP suspicion.

    One timer, armed at the earliest deadline ``last heard +
    suspect_timeout`` over the unsuspected members (a grace period is a
    later ``last heard``), so a member is suspected the moment it has been
    silent for ``suspect_timeout``.  A datagram writes its source's entry
    and leaves the timer alone — it then fires early, finds nobody due and
    re-arms at the new earliest deadline — unless the entry moved earlier
    than the armed one: a member heard inside its grace period.
    """

    def __init__(self, group: "GroupContext"):
        self._g = group
        self._last_heard: Dict[int, float] = {}
        self._suspected: Set[int] = set()
        self._timer: Optional[object] = None
        #: the ``last heard`` whose deadline the timer is armed for
        #: (-inf while none is armed)
        self._armed = -math.inf
        self.stats = FaultDetectorStats()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin monitoring: arm the deadline timer."""
        if self._timer is None:
            self._arm()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._armed = -math.inf

    def _arm(self) -> None:
        """Arm the timer at the earliest deadline over the unsuspected
        members, starting the clock of any never heard; with none, a
        timeout from now (a pass that only purges non-members)."""
        now = self._g.now()
        me = self._g.pid
        last_heard = self._last_heard
        earliest = None
        for pid in self._g.membership:
            if pid == me or pid in self._suspected:
                continue
            last = last_heard.get(pid)
            if last is None:
                last = last_heard[pid] = now
            if earliest is None or last < earliest:
                earliest = last
        self._armed = now if earliest is None else earliest
        delay = self._armed + self._g.config.suspect_timeout - now
        self._timer = self._g.schedule(max(delay, 0.0), self._expire)

    def _rearm(self) -> None:
        self._timer.cancel()
        self._arm()

    # ------------------------------------------------------------------
    def note_alive(self, pid: int) -> None:
        """Record that a datagram was received from ``pid``."""
        now = self._last_heard[pid] = self._g.now()
        if pid in self._suspected:
            # heard from a suspect again: withdraw the suspicion
            self._suspected.discard(pid)
            self.stats.suspicions_withdrawn += 1
            self._g.pgmp_withdraw_suspicion(pid)
        if now < self._armed:
            self._rearm()

    def watch(self, pid: int, grace: float = 0.0) -> None:
        """Start monitoring a (possibly new) member, with a grace period."""
        last = self._last_heard[pid] = self._g.now() + grace
        if last < self._armed:
            self._rearm()

    def forget(self, pid: int) -> None:
        """Stop monitoring a departed member."""
        self._last_heard.pop(pid, None)
        self._suspected.discard(pid)

    @property
    def suspected(self) -> Set[int]:
        """Members currently under local suspicion."""
        return set(self._suspected)

    # ------------------------------------------------------------------
    def _expire(self) -> None:
        self._timer = None
        armed, self._armed = self._armed, -math.inf
        late = self._g.now() - self._g.config.suspect_timeout
        membership = self._g.membership
        # note_alive records *every* datagram source (any processor may
        # send to the group address), so liveness entries accumulate for
        # non-members; purge them here or the map grows without bound
        # under connection/churn traffic.
        for pid in [p for p in self._last_heard if p not in membership]:
            del self._last_heard[pid]
            self._suspected.discard(pid)
        for pid in membership:
            if pid == self._g.pid or pid in self._suspected:
                continue
            last = self._last_heard.get(pid)
            # due: the entry the timer was armed for (exactly, whatever
            # float the scheduler fired at), or one older than a timeout
            if last is not None and (last <= armed or last <= late):
                self._suspected.add(pid)
                self.stats.suspicions_raised += 1
                self._g.pgmp_raise_suspicion(pid)
        self._arm()
