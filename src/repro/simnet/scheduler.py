"""Discrete-event scheduler.

The simulator is a single-threaded discrete-event loop: every network
delivery, protocol timer and workload action is an :class:`Event` on a heap
keyed by simulated time.  Determinism matters more than raw speed here (the
same seed must produce the same protocol run so experiments are
reproducible), so ties are broken by a monotonically increasing insertion
counter rather than by object identity.  The heap holds ``(time, seq,
event)`` tuples: ``seq`` is unique, so ``heapq`` orders entries on the
first two fields in C and never compares two events.

Simulated time is a ``float`` in **seconds**.

A :class:`~repro.simnet.schedules.SchedulePolicy` can be installed to
delegate the tie-break among *ready* (same-time) events to an exploration
policy; with no policy installed (the default) the hot path is exactly the
historical O(1) heap pop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

from .schedules import SchedulePolicy

__all__ = ["Event", "Scheduler", "SimTimeError"]


class SimTimeError(Exception):
    """Raised when an event is scheduled in the past."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Scheduler.schedule` / :meth:`at`;
    user code only ever needs :meth:`cancel` and :attr:`time`.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sched")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sched: Optional["Scheduler"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: owning scheduler while the event sits on its heap (detached when
        #: popped, so a late cancel() of an already-fired event is a no-op
        #: for the live counter)
        self._sched = sched

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        sched = self._sched
        if sched is not None:
            self._sched = None
            sched._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {getattr(self.fn, '__name__', self.fn)} {state}>"


class Scheduler:
    """Heap-based discrete-event scheduler.

    >>> sched = Scheduler()
    >>> hits = []
    >>> _ = sched.schedule(1.0, hits.append, "a")
    >>> _ = sched.schedule(0.5, hits.append, "b")
    >>> sched.run()
    >>> hits
    ['b', 'a']
    """

    #: cancelled-entry slack tolerated on the heap before compaction; kept
    #: generous so steady re-arm/cancel timer churn never triggers an O(n)
    #: rebuild, while a burst of cancellations (mass teardown) is reclaimed
    _COMPACT_MIN_GARBAGE = 1024

    def __init__(self, policy: Optional[SchedulePolicy] = None) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._events_processed = 0
        self._live = 0  #: uncancelled events currently on the heap
        self._policy: Optional[SchedulePolicy] = None
        self._decisions: List[int] = []
        if policy is not None:
            self.set_policy(policy)

    # ------------------------------------------------------------------
    # schedule exploration (see repro.simnet.schedules)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> Optional[SchedulePolicy]:
        """The installed schedule policy (None = plain FIFO tie-break)."""
        return self._policy

    @property
    def decision_log(self) -> List[int]:
        """Chosen index at each contested choice point so far.

        Only populated while a policy is installed; replaying the same
        scenario with a :class:`~repro.simnet.schedules.ReplayPolicy`
        over this list reproduces the run byte-exactly.
        """
        return self._decisions

    def set_policy(self, policy: Optional[SchedulePolicy]) -> None:
        """Install (or clear) the schedule policy and reset the log."""
        self._policy = policy
        self._decisions = []

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (uncancelled) events still on the heap.

        O(1): a counter maintained on push / pop / cancel, instead of the
        historical linear scan over the heap.
        """
        return self._live

    def _on_cancel(self) -> None:
        """Bookkeeping for a cancellation of an event still on the heap."""
        self._live -= 1
        # lazy compaction: cancelled entries are normally discarded when
        # they surface at the heap top, but a cancellation-heavy workload
        # (mass timer teardown) may strand arbitrarily many dead entries
        # below live ones — rebuild once garbage dominates
        garbage = len(self._heap) - self._live
        if garbage > self._COMPACT_MIN_GARBAGE and garbage > self._live:
            # in place: the run loops hold the list while callbacks cancel
            self._heap[:] = [e for e in self._heap if not e[2].cancelled]
            heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimTimeError(f"negative delay {delay!r}")
        return self.at(self._now + delay, fn, *args)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimTimeError(f"cannot schedule at {time} < now {self._now}")
        seq = next(self._counter)
        ev = Event(time, seq, fn, args, sched=self)
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _step_policy(self, limit_time: Optional[float]) -> bool:
        """One policy-arbitrated step: collect the ready set (every live
        event at the earliest pending timestamp, in insertion order), let
        the policy pick, record contested choices, run the pick, and push
        the rest back.  O(k log n) per step — exploration runs accept the
        overhead; the policy-free path never comes through here.
        """
        heap = self._heap
        ready: list[Event] = []
        while heap:
            t, _seq, top = heap[0]
            if top.cancelled:
                heapq.heappop(heap)
                continue
            if limit_time is not None and t > limit_time:
                return False
            while heap and heap[0][0] == t:
                ev = heapq.heappop(heap)[2]
                if not ev.cancelled:
                    ready.append(ev)  # heap pops arrive in seq order
            if ready:
                break
        if not ready:
            return False
        if len(ready) == 1:
            idx = 0  # forced: not a choice point, not recorded
        else:
            idx = self._policy.choose(ready)
            if not 0 <= idx < len(ready):
                idx = 0
            self._decisions.append(idx)
        ev = ready.pop(idx)
        for other in ready:
            heapq.heappush(heap, (other.time, other.seq, other))
        ev._sched = None
        self._live -= 1
        self._now = ev.time
        self._events_processed += 1
        ev.fn(*ev.args)
        return True

    def step(self) -> bool:
        """Run the next pending event.  Returns False when the heap is empty."""
        if self._policy is not None:
            return self._step_policy(None)
        while self._heap:
            ev = heapq.heappop(self._heap)[2]
            if ev.cancelled:
                continue
            ev._sched = None
            self._live -= 1
            self._now = ev.time
            self._events_processed += 1
            ev.fn(*ev.args)
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the heap drains (or ``max_events`` callbacks ran).

        Returns the number of callbacks executed by this call.
        """
        ran = 0
        while self.step():
            ran += 1
            if max_events is not None and ran >= max_events:
                break
        return ran

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run every event with timestamp <= ``time``; advance now to ``time``.

        Periodic protocol timers (heartbeats) re-arm themselves forever, so
        plain :meth:`run` would never terminate on a live stack — bounded
        runs are the normal way to drive a protocol experiment.
        """
        ran = 0
        if self._policy is not None:
            while self._step_policy(time):
                ran += 1
                if max_events is not None and ran >= max_events:
                    return ran
            if time > self._now:
                self._now = time
            return ran
        heap = self._heap
        while heap:
            t, _seq, ev = heap[0]
            if ev.cancelled:
                heapq.heappop(heap)
                continue
            if t > time:
                break
            heapq.heappop(heap)
            ev._sched = None
            self._live -= 1
            self._now = t
            self._events_processed += 1
            ev.fn(*ev.args)
            ran += 1
            if max_events is not None and ran >= max_events:
                return ran
        if time > self._now:
            self._now = time
        return ran

