"""Calibration kernel and the chunked cost estimator built on it.

A fixed pure-Python loop swings by about 15 % between multi-second fast
and slow phases of a shared host, and there is no PMU here, so a raw
``perf_counter`` rate does not repeat within a tenth.  What does repeat
is a processor-time cost *normalised chunk by chunk against an
interleaved kernel*: the kernel below has the operation mix of the protocol hot path, one kernel
run precedes every measured chunk, and a chunk's cost is expressed as a
fraction of its neighbouring kernel run.

The kernel is part of the benchmark's definition: a **normalised
microsecond** (``norm_us``) is one microsecond on a core where
``kernel()`` takes exactly 25.0 ms.  Changing the kernel redefines every
``*_norm_*`` metric.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import statistics
import struct
import time
from typing import Iterator, List, Optional, Tuple

__all__ = ["kernel", "calibrate", "Meter", "quiet_gc",
           "REFERENCE_KERNEL_S", "KERNEL_ITERATIONS"]

#: one normalised second is this many kernel runs
REFERENCE_KERNEL_S = 0.025
KERNEL_ITERATIONS = 20_000

_HEADER = struct.Struct("<4sBBBBIIIIQQ")  # the 40-byte FTMP header layout
_PAYLOAD = b"\xa5" * 64


class _Record:
    __slots__ = ("source", "seq", "ts")

    def __init__(self, source: int, seq: int, ts: int):
        self.source = source
        self.seq = seq
        self.ts = ts


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """The operation mix of the protocol hot path, at a fixed size.

    Per iteration: pack and unpack a 40-byte header in front of a 64-byte
    payload, allocate a 3-field ``__slots__`` object, insert it in a
    tuple-keyed dict with FIFO eviction at 256 entries, and push/pop a
    heap bounded at 64.  Returns a checksum so nothing is optimised away.
    """
    pack = _HEADER.pack
    unpack_from = _HEADER.unpack_from
    push = heapq.heappush
    pop = heapq.heappop
    table: dict = {}
    heap: list = []
    check = 0
    for i in range(iterations):
        raw = pack(b"FTMP", 1, 0, 1, 2, 104, i & 7, 1, i, i << 1, i) + _PAYLOAD
        fields = unpack_from(raw)
        rec = _Record(fields[5], fields[8], fields[9])
        table[(rec.source, rec.seq)] = rec
        if len(table) > 256:
            del table[next(iter(table))]
        push(heap, (rec.ts, rec.source))
        if len(heap) > 64:
            check += pop(heap)[0]
    return check + len(table)


#: Costs are processor time, not wall time: on a shared host a process
#: is descheduled for milliseconds at a time (stolen time showed as wall
#: = 2 x cpu on the kernel), which processor time does not count, while
#: the host's fast and slow phases scale chunk and kernel alike.
clock = time.process_time


def calibrate() -> float:
    """Processor seconds one kernel run takes right now."""
    t0 = clock()
    kernel()
    return clock() - t0


@contextlib.contextmanager
def quiet_gc() -> Iterator[None]:
    """Collect, then freeze and disable the collector while measuring."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


class Meter:
    """Collects (calibration, processor time, operations) per chunk.

    With ``calibrated=False`` (traced and profiled passes, which report
    raw time only) the kernel is skipped.
    """

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.chunks: List[Tuple[float, float, int]] = []
        #: wall seconds inside chunks (what spans, which are timed on the
        #: wall clock, are compared with)
        self.wall = 0.0
        self._cal = REFERENCE_KERNEL_S
        self._t0 = 0.0
        self._wall0 = 0.0

    def start(self, cal: Optional[float] = None) -> None:
        """Run the chunk's calibration kernel, then start its clock.

        A caller that calibrates itself passes ``cal``: the processor
        seconds one kernel run takes under the chunk's own conditions.
        """
        if cal is not None:
            self._cal = cal
        elif self.calibrated:
            self._cal = calibrate()
        self._wall0 = time.perf_counter()
        self._t0 = clock()

    def stop(self, ops: int) -> float:
        """End the chunk; returns the processor time it took."""
        elapsed = clock() - self._t0
        self.wall += time.perf_counter() - self._wall0
        self.chunks.append((self._cal, elapsed, ops))
        return elapsed

    def scale(self) -> float:
        """Factor turning the last chunk's seconds into normalised seconds."""
        return REFERENCE_KERNEL_S / self._cal

    @property
    def ops(self) -> int:
        return sum(c[2] for c in self.chunks)

    @property
    def elapsed(self) -> float:
        return sum(c[1] for c in self.chunks)

    def raw_us_per_op(self) -> float:
        return self.elapsed / max(1, self.ops) * 1e6

    def norm_us_per_op(self) -> float:
        """Median over chunks of chunk cost per op in normalised µs.

        A chunk is set against the mean of the kernel runs on either side
        of it (the next chunk's kernel is also this one's second
        neighbour), so a change of the host's speed inside the chunk is
        met halfway.
        """
        cals = [cal for cal, _elapsed, _ops in self.chunks]
        costs = [
            elapsed / ops / ((cal + after) / 2) * REFERENCE_KERNEL_S * 1e6
            for (cal, elapsed, ops), after in zip(self.chunks, cals[1:] + cals[-1:])
            if ops > 0
        ]
        return statistics.median(costs)
