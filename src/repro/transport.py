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
from typing import Callable, Protocol, runtime_checkable

__all__ = ["Endpoint", "TimerHandle"]


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

