"""Runtime-neutral transport seam between protocol stacks and a network.

FTMP (and every baseline protocol) is written against :class:`Endpoint`:
a processor-local handle that can join multicast groups, send datagrams,
read a clock and arm timers.  Two implementations exist:

* :class:`repro.simnet.network.SimEndpoint` — deterministic discrete-event
  simulation (the semantic truth: tests, chaos, schedule exploration);
* :class:`repro.runtime.aio.AioEndpoint` — asyncio event loop per
  processor process, real UDP multicast or loopback fan-out across OS
  processes (the wall-clock truth: cluster runtime and benchmarks).

This module sits *below* every runtime: ``repro.core`` and
``repro.baselines`` import only this seam, never ``repro.simnet`` or
``repro.runtime`` (the layering is guard-tested), so the identical
protocol stack runs unmodified on both substrates.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Callable, Protocol, runtime_checkable

__all__ = ["Endpoint", "TimerHandle", "NamedTimerSet"]


@runtime_checkable
class TimerHandle(Protocol):
    """Anything returned by :meth:`Endpoint.schedule`; only needs cancel()."""

    def cancel(self) -> None: ...


class Endpoint(abc.ABC):
    """A processor's interface to the (real or simulated) network."""

    @property
    @abc.abstractmethod
    def processor_id(self) -> int:
        """The processor identifier this endpoint belongs to."""

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (simulated or monotonic wall clock)."""

    @abc.abstractmethod
    def schedule(self, delay: float, fn: Callable[..., None], *args) -> TimerHandle:
        """Arm a one-shot timer; returns a cancellable handle."""

    @abc.abstractmethod
    def set_receiver(self, cb: Callable[[bytes], None]) -> None:
        """Register the datagram receive callback for this processor."""

    @abc.abstractmethod
    def join(self, group_addr: int) -> None:
        """Subscribe to a multicast group address."""

    @abc.abstractmethod
    def leave(self, group_addr: int) -> None:
        """Unsubscribe from a multicast group address."""

    @abc.abstractmethod
    def multicast(self, group_addr: int, data: bytes) -> None:
        """Best-effort multicast ``data`` to every subscriber of the group."""

    @abc.abstractmethod
    def random(self) -> random.Random:
        """RNG for protocol-internal randomization (NACK backoff)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Detach from the network; no further callbacks fire."""


class NamedTimerSet:
    """Cancellable named one-shot timers over any ``schedule`` function.

    Arming a name cancels its previous timer, so a name always has at most
    one pending firing — the semantics a coalescing window wants (the
    datapath uses this for its batch-flush timer).  Works over
    :meth:`~repro.simnet.scheduler.Scheduler.schedule` and over any
    :class:`Endpoint` ``schedule`` alike: the only requirement is that the
    returned handle has ``cancel()``.
    """

    def __init__(self, schedule: Callable[..., Any]):
        self._schedule = schedule
        self._timers: dict = {}

    def arm(self, name: str, delay: float, fn: Callable[..., Any], *args: Any):
        """(Re-)arm ``name`` to run ``fn(*args)`` after ``delay`` seconds."""
        self.cancel(name)

        def fire() -> None:
            self._timers.pop(name, None)
            fn(*args)

        handle = self._schedule(delay, fire)
        self._timers[name] = handle
        return handle

    def is_armed(self, name: str) -> bool:
        return name in self._timers

    def cancel(self, name: str) -> bool:
        """Cancel ``name`` if armed; True if a timer was actually cancelled."""
        handle = self._timers.pop(name, None)
        if handle is None:
            return False
        handle.cancel()
        return True

    def cancel_all(self) -> None:
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
