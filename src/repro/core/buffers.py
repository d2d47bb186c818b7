"""Retransmission buffer with ack-timestamp garbage collection (paper §6).

Every reliable message a processor sends *or receives* is retained so that
"any processor that has the message" can answer a RetransmitRequest (§5).
ROMP "determines when the processor no longer needs to retain a message in
its buffer, because all of the processor group members have received the
message" — concretely, a buffered message with timestamp ``ts`` is
reclaimable once every member's advertised ack timestamp is >= ``ts``
(then nobody can ever NACK it).

It holds the message itself (encoded only when a NACK asks; nothing
rewrites a message once stamped or decoded), and counts occupancy for
experiment E4 in the length of its encoding, ``header.message_size``.

Hot-path engineering: :meth:`RetransmissionBuffer.collect` runs on every
ack advance (per received datagram under load), so it must not rescan the
store.  A min-heap of ``(timestamp, key)`` entries, one per retained
message, makes it O(1) when nothing is reclaimable — the common case —
and O(log n) per reclaimed message.  Nothing else removes a message: a
departed member's copies stay to answer laggards until they are stable.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Tuple

from .messages import FTMPMessage

__all__ = ["RetransmissionBuffer"]


class RetransmissionBuffer:
    """Per-group store of reliable messages keyed by (source, seq)."""

    def __init__(self, gc_enabled: bool = True):
        self._store: Dict[Tuple[int, int], FTMPMessage] = {}
        # reclaim index: (timestamp, source, seq) pushed on add
        self._ts_heap: List[Tuple[int, int, int]] = []
        self.gc_enabled = gc_enabled
        self.high_water_messages = 0
        self.high_water_bytes = 0
        self._bytes = 0
        self.total_added = 0
        self.total_reclaimed = 0

    # ------------------------------------------------------------------
    def add(self, source: int, seq: int, msg: FTMPMessage) -> None:
        """Retain ``msg``, the reliable message ``seq`` of ``source``
        (idempotent per (source, seq))."""
        key = (source, seq)
        if key in self._store:
            return
        self._store[key] = msg
        heapq.heappush(self._ts_heap, (msg.header.timestamp, source, seq))
        self._bytes += msg.header.message_size
        self.total_added += 1
        if len(self._store) > self.high_water_messages:
            self.high_water_messages = len(self._store)
        if self._bytes > self.high_water_bytes:
            self.high_water_bytes = self._bytes

    def get(self, source: int, seq: int) -> Optional[FTMPMessage]:
        """Look up a retained message for retransmission."""
        return self._store.get((source, seq))

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

    @property
    def bytes(self) -> int:
        """Current occupancy in wire bytes."""
        return self._bytes

    def range_for(self, source: int, start: int, stop: int) -> Iterator[FTMPMessage]:
        """All retained messages of ``source`` with start <= seq <= stop."""
        for seq in range(start, stop + 1):
            m = self._store.get((source, seq))
            if m is not None:
                yield m

    # ------------------------------------------------------------------
    def collect(self, stable_timestamp: int) -> int:
        """Drop every message with timestamp <= ``stable_timestamp``.

        ``stable_timestamp`` must be min over group members of their
        advertised ack timestamps.  Returns the number reclaimed.  A
        disabled buffer (E4's ablation) never reclaims.
        """
        if not self.gc_enabled:
            return 0
        heap = self._ts_heap
        store = self._store
        reclaimed = 0
        while heap and heap[0][0] <= stable_timestamp:
            _, source, seq = heapq.heappop(heap)
            self._bytes -= store.pop((source, seq)).header.message_size
            reclaimed += 1
        self.total_reclaimed += reclaimed
        return reclaimed
