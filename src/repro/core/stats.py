"""Unified stats registry for the FTMP stack.

Every layer keeps its counters in a plain dataclass (``RMPStats``,
``ROMPStats``, ``PGMPStats``, ...).  Historically each consumer (the
analysis harness, the baseline wrapper, the benchmarks) reached into the
layer objects ad hoc; the :class:`StatsRegistry` replaces that plumbing
with one tree of dotted names:

    stack.datagrams_sent
    group.1.send.regulars_sent
    group.1.rmp.nacks_sent
    group.1.batch.messages_batched
    connections.duplicates_suppressed

A source is either a dataclass instance (every numeric field becomes a
counter) or a zero-argument callable returning a ``{field: value}`` dict
(for gauges computed on demand).  ``snapshot()`` flattens the registered
sources into a single ``{dotted_name: value}`` dict; layers register at
construction and unregister when their group is retired, so the snapshot
always reflects the live stack.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Dict, Iterable, List, Tuple, Union

__all__ = ["StatsRegistry", "StackStats", "GroupStats"]

StatsSource = Union[object, Callable[[], Dict[str, float]]]


@dataclass
class StackStats:
    """Datagram-level counters of one :class:`~repro.core.stack.FTMPStack`."""

    datagrams_received: int = 0
    datagrams_sent: int = 0
    decode_errors: int = 0
    unknown_group_drops: int = 0


@dataclass
class GroupStats:
    """Send-side counters of one processor group."""

    regulars_sent: int = 0
    heartbeats_sent: int = 0
    #: of ``heartbeats_sent``: sent by a cover rule rather than the idle
    #: clock, to cover received Regulars (``SendPath.cover``,
    #: ``cover_head``, ``cover_late``)
    cover_heartbeats: int = 0
    ordered_sends_deferred: int = 0


class StatsRegistry:
    """Registry of per-layer counter sources under dotted names."""

    def __init__(self) -> None:
        self._sources: Dict[str, StatsSource] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, source: StatsSource) -> StatsSource:
        """Register ``source`` under ``name``; returns the source.

        ``source`` is a dataclass of numeric counters, or a callable
        returning a ``{field: value}`` dict.  Re-registering a name
        replaces the previous source (a recreated group reuses its slot).
        """
        self._sources[name] = source
        return source

    def unregister(self, name: str) -> None:
        self._sources.pop(name, None)

    def unregister_prefix(self, prefix: str) -> None:
        """Drop every source whose name is ``prefix`` or under it."""
        doomed = [
            n for n in self._sources if n == prefix or n.startswith(prefix + ".")
        ]
        for n in doomed:
            del self._sources[n]

    def names(self) -> List[str]:
        """Registered source names, in registration order."""
        return list(self._sources)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flatten every registered source into ``{dotted_name: value}``."""
        out: Dict[str, float] = {}
        for name, source in self._sources.items():
            for key, value in self._items(source):
                if isinstance(value, bool):
                    value = int(value)
                if isinstance(value, (int, float)):
                    out[f"{name}.{key}"] = value
        return out

    def get(self, dotted: str, default: float = 0.0) -> float:
        """One counter by its full dotted name (``0.0`` if absent)."""
        return self.snapshot().get(dotted, default)

    def total(self, suffix: str) -> float:
        """Sum of every counter whose dotted name ends with ``.suffix``.

        ``total("nacks_sent")`` aggregates the counter across groups.
        """
        tail = "." + suffix
        return sum(v for k, v in self.snapshot().items() if k.endswith(tail))

    @staticmethod
    def _items(source: StatsSource) -> Iterable[Tuple[str, object]]:
        if callable(source):
            return source().items()
        if is_dataclass(source):
            return ((f.name, getattr(source, f.name)) for f in fields(source))
        raise TypeError(
            f"stats source must be a dataclass or callable, got {type(source)!r}"
        )
