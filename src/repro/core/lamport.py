"""Message-ordering clocks (paper §6).

ROMP derives message timestamps from logical Lamport clocks: "A processor
advances its Lamport clock so that it is always greater than the timestamp
of any message that it has received or sent."  The paper adds that "better
performance can be achieved through the use of clock synchronization
software, or synchronized physical clocks (e.g., using GPS)".

Two implementations share the :class:`OrderingClock` interface:

* :class:`LamportClock` — a pure logical counter;
* :class:`SynchronizedClock` — a hybrid logical clock seeded from (skewed)
  physical time.  It still takes the max with every observed timestamp, so
  causality is never violated even under skew; its benefit is that an
  otherwise-quiet processor's heartbeats carry *current* timestamps, letting
  receivers order remote messages after one one-way delay instead of a
  round trip (the wide-area effect experiment E2 measures).

Timestamps are integers.  Both clocks are strictly monotonic per processor
(every ``tick`` returns a strictly larger value), which the total-order
delivery rule relies on.
"""

from __future__ import annotations

import abc
from typing import Callable

__all__ = ["OrderingClock", "LamportClock", "SynchronizedClock", "make_clock"]

#: the largest timestamp a clock adopts from a received message.  A
#: timestamp is a u64 on the wire: one nearer 2**64 - 1 than this (from
#: a corrupt or hostile datagram) would leave the clock no tick for our
#: next message, so the clock stops here and keeps 2**32 ticks in hand
CEILING = 2**64 - 2**32


class OrderingClock(abc.ABC):
    """Interface shared by both timestamp sources."""

    @abc.abstractmethod
    def tick(self) -> int:
        """Advance and return the timestamp for a message about to be sent."""

    @abc.abstractmethod
    def observe(self, timestamp: int) -> None:
        """Fold in the timestamp of a received message."""

    @property
    @abc.abstractmethod
    def time(self) -> int:
        """Current clock value (timestamp of the last event)."""


class LamportClock(OrderingClock):
    """Classic Lamport logical clock."""

    __slots__ = ("_time",)

    def __init__(self, initial: int = 0):
        self._time = initial

    def tick(self) -> int:
        self._time += 1
        return self._time

    def observe(self, timestamp: int) -> None:
        if timestamp > self._time:
            self._time = timestamp if timestamp < CEILING else max(self._time, CEILING)

    @property
    def time(self) -> int:
        return self._time

    def __repr__(self) -> str:  # pragma: no cover
        return f"LamportClock({self._time})"


class SynchronizedClock(OrderingClock):
    """Hybrid clock: physical time merged Lamport-style.

    ``now_fn`` returns this processor's seconds — imperfect
    synchronization between processors is whatever offset its ``now_fn``
    carries — counted in ticks of :attr:`RESOLUTION`.
    """

    __slots__ = ("_time", "_now_fn")

    #: seconds per tick
    RESOLUTION = 1e-6

    def __init__(self, now_fn: Callable[[], float], initial: int = 0):
        self._now_fn = now_fn
        self._time = initial

    def _physical(self) -> int:
        return int(self._now_fn() / self.RESOLUTION)

    def tick(self) -> int:
        self._time = max(self._time + 1, self._physical())
        return self._time

    def observe(self, timestamp: int) -> None:
        if timestamp > self._time:
            self._time = timestamp if timestamp < CEILING else max(self._time, CEILING)

    @property
    def time(self) -> int:
        return self._time

    def __repr__(self) -> str:  # pragma: no cover
        return f"SynchronizedClock({self._time})"


def make_clock(mode: str, now_fn: Callable[[], float]) -> OrderingClock:
    """Factory selecting the clock implementation from an FTMPConfig."""
    from .config import ClockMode

    if mode == ClockMode.LAMPORT:
        return LamportClock()
    if mode == ClockMode.SYNCHRONIZED:
        return SynchronizedClock(now_fn)
    raise ValueError(f"unknown clock mode {mode!r}")
