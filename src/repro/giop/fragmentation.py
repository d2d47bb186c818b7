"""GIOP message fragmentation (GIOP 1.1 Fragment semantics).

IP datagrams have an MTU; GIOP 1.1 introduced the Fragment message so one
large Request/Reply can cross several transport frames: the initial
message carries a "more fragments follow" flag, and FragmentMessages carry
the continuation, the last one with the flag clear.

On the wire we use header byte 6 as a flags octet (bit 0 = little endian,
bit 1 = more fragments) — exactly GIOP 1.1's layout, and backward
compatible with the 1.0 boolean byte-order octet this codebase otherwise
emits (bit 1 is simply zero for unfragmented messages).

Fragments of one message travel FIFO from one source, which FTMP's RMP
layer guarantees, so reassembly needs only a per-source accumulator.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from .cdr import MarshalError
from .messages import GIOP_MAGIC

__all__ = ["fragment_giop", "Reassembler", "more_fragments_flag", "FragmentationError"]

_HEADER_LEN = 12
_FLAG_MORE = 0x02
_FRAGMENT_TYPE = 7


class FragmentationError(MarshalError):
    """Raised on inconsistent fragment streams."""


def more_fragments_flag(data: bytes) -> bool:
    """Read the 'more fragments follow' bit of an encoded GIOP message."""
    if len(data) < _HEADER_LEN or data[:4] != GIOP_MAGIC:
        raise FragmentationError("not a GIOP message")
    return bool(data[6] & _FLAG_MORE)


def _with_flags_and_size(header: bytes, more: bool, mtype: Optional[int],
                         size: int, little: bool) -> bytes:
    out = bytearray(header)
    if more:
        out[6] |= _FLAG_MORE
    else:
        out[6] &= ~_FLAG_MORE & 0xFF
    if mtype is not None:
        out[7] = mtype
    out[8:12] = size.to_bytes(4, "little" if little else "big")
    return bytes(out)


def fragment_giop(data: bytes, mtu: int) -> List[bytes]:
    """Split an encoded GIOP message into <=``mtu``-byte wire messages.

    Returns ``[data]`` unchanged when it already fits.  Otherwise the
    first piece keeps the original message type with the more-fragments
    flag set, and the continuation travels as Fragment messages (the
    last with the flag clear).
    """
    if len(data) <= mtu:
        return [data]
    if mtu <= _HEADER_LEN:
        raise FragmentationError(f"mtu {mtu} leaves no room for a body")
    if len(data) < _HEADER_LEN or data[:4] != GIOP_MAGIC:
        raise FragmentationError("not a GIOP message")
    little = bool(data[6] & 0x01)
    header = data[:_HEADER_LEN]
    body = data[_HEADER_LEN:]
    chunk = mtu - _HEADER_LEN

    pieces: List[bytes] = []
    first_body = body[:chunk]
    pieces.append(
        _with_flags_and_size(header, True, None, len(first_body), little)
        + first_body
    )
    offset = len(first_body)
    while offset < len(body):
        part = body[offset : offset + chunk]
        offset += len(part)
        more = offset < len(body)
        pieces.append(
            _with_flags_and_size(header, more, _FRAGMENT_TYPE, len(part), little)
            + part
        )
    return pieces


class Reassembler:
    """Per-source reassembly of fragmented GIOP messages.

    Feed every received GIOP wire message through :meth:`push`; it returns
    the complete message bytes once available (immediately for
    unfragmented messages) or ``None`` while a message is still partial.
    """

    def __init__(self) -> None:
        #: source key -> (original header, accumulated body chunks)
        self._partial: Dict[Hashable, tuple] = {}

    def push(self, source: Hashable, data: bytes) -> Optional[bytes]:
        if len(data) < _HEADER_LEN or data[:4] != GIOP_MAGIC:
            raise FragmentationError("not a GIOP message")
        more = bool(data[6] & _FLAG_MORE)
        mtype = data[7]

        if source not in self._partial:
            if mtype == _FRAGMENT_TYPE:
                raise FragmentationError("Fragment without an initial message")
            if not more:
                return data  # common case: unfragmented, nothing copied
            self._partial[source] = (data[:_HEADER_LEN], [data[_HEADER_LEN:]])
            return None

        header, chunks = self._partial[source]
        if mtype != _FRAGMENT_TYPE:
            # fragments are FIFO per source, so the interrupted message can
            # never complete: drop it, or every later message is rejected
            del self._partial[source]
            raise FragmentationError(
                "new message started while a fragmented one was incomplete"
            )
        chunks.append(data[_HEADER_LEN:])
        if more:
            return None
        del self._partial[source]
        little = bool(header[6] & 0x01)
        full_body = b"".join(chunks)
        return _with_flags_and_size(header, False, None, len(full_body), little) + full_body

    def pending(self) -> int:
        """Number of sources with an incomplete message."""
        return len(self._partial)

    def abort_where(self, doomed: Callable[[Hashable], bool]) -> None:
        """Drop the partial message of every source key ``doomed`` accepts
        (its source left the membership, its connection closed)."""
        for source in [s for s in self._partial if doomed(s)]:
            del self._partial[source]
