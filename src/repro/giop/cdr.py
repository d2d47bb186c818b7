"""CDR — Common Data Representation marshaling (CORBA 2.2, chapter 13).

The subset of CDR that GIOP 1.0/1.1 needs: primitive types aligned to
their natural boundary *relative to the start of the stream*, strings
(length-prefixed, NUL-terminated), octet sequences, and encapsulations
(a nested CDR stream prefixed by its own byte-order octet).

Both byte orders are supported; the decoder is told the stream's order by
the caller (GIOP carries it in the message header, encapsulations carry
their own leading octet).
"""

from __future__ import annotations

import struct
from typing import List, Sequence

__all__ = ["CDREncoder", "CDRDecoder", "MarshalError"]


class MarshalError(Exception):
    """Raised on malformed CDR data or unencodable values."""


#: the decoder's primitive readers, compiled once: byte order + format code
_PRIMITIVES = {e + f: struct.Struct(e + f) for e in "<>" for f in "BhHiIqQfd"}


class CDREncoder:
    """Append-only CDR stream writer."""

    def __init__(self, little_endian: bool = True):
        self.little_endian = little_endian
        self._e = "<" if little_endian else ">"
        self._buf = bytearray()

    # -- alignment ------------------------------------------------------
    def align(self, boundary: int) -> None:
        """Pad with zero octets to a multiple of ``boundary``."""
        rem = len(self._buf) % boundary
        if rem:
            self._buf.extend(b"\x00" * (boundary - rem))

    def _pack(self, fmt: str, value, boundary: int) -> None:
        self.align(boundary)
        try:
            self._buf.extend(struct.pack(self._e + fmt, value))
        except struct.error as exc:
            raise MarshalError(f"cannot marshal {value!r} as {fmt}") from exc

    # -- primitives -------------------------------------------------------
    def octet(self, v: int) -> None:
        self._pack("B", v, 1)

    def boolean(self, v: bool) -> None:
        self._pack("B", 1 if v else 0, 1)

    def char(self, v: str) -> None:
        if len(v) != 1:
            raise MarshalError("char must be a single character")
        self._pack("B", ord(v), 1)

    def short(self, v: int) -> None:
        self._pack("h", v, 2)

    def ushort(self, v: int) -> None:
        self._pack("H", v, 2)

    def long(self, v: int) -> None:
        self._pack("i", v, 4)

    def ulong(self, v: int) -> None:
        self._pack("I", v, 4)

    def longlong(self, v: int) -> None:
        self._pack("q", v, 8)

    def ulonglong(self, v: int) -> None:
        self._pack("Q", v, 8)

    def double(self, v: float) -> None:
        self._pack("d", v, 8)

    def enum(self, v: int) -> None:
        self.ulong(v)

    # -- constructed ------------------------------------------------------
    def string(self, v: str) -> None:
        """CORBA string: ulong length (including NUL), bytes, NUL."""
        data = v.encode("utf-8")
        self.ulong(len(data) + 1)
        self._buf.extend(data)
        self._buf.append(0)

    def octets(self, v: bytes) -> None:
        """sequence<octet>: ulong length then raw bytes."""
        self.ulong(len(v))
        self._buf.extend(v)

    def raw(self, v: bytes) -> None:
        """Unaligned raw bytes (already-encoded material)."""
        self._buf.extend(v)

    def ulong_seq(self, vs: Sequence[int]) -> None:
        self.ulong(len(vs))
        for v in vs:
            self.ulong(v)

    def encapsulation(self, inner: "CDREncoder") -> None:
        """Embed a nested CDR stream (own byte-order octet, as octet seq)."""
        payload = bytes([1 if inner.little_endian else 0]) + inner.getvalue()
        self.octets(payload)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class CDRDecoder:
    """Sequential CDR stream reader with bounds checking."""

    def __init__(self, data: bytes, little_endian: bool = True, offset: int = 0):
        self._data = data
        self._pos = offset
        self.little_endian = little_endian
        self._e = "<" if little_endian else ">"

    # -- alignment ------------------------------------------------------
    def align(self, boundary: int) -> None:
        rem = self._pos % boundary
        if rem:
            self._pos += boundary - rem

    def _unpack(self, fmt: str, boundary: int):
        pos = self._pos
        rem = pos % boundary
        if rem:
            pos += boundary - rem
        s = _PRIMITIVES[self._e + fmt]
        end = pos + s.size
        if end > len(self._data):
            raise MarshalError("truncated CDR stream")
        (v,) = s.unpack_from(self._data, pos)
        self._pos = end
        return v

    # -- primitives -------------------------------------------------------
    def octet(self) -> int:
        return self._unpack("B", 1)

    def boolean(self) -> bool:
        return bool(self._unpack("B", 1))

    def char(self) -> str:
        return chr(self._unpack("B", 1))

    def short(self) -> int:
        return self._unpack("h", 2)

    def ushort(self) -> int:
        return self._unpack("H", 2)

    def long(self) -> int:
        return self._unpack("i", 4)

    def ulong(self) -> int:
        return self._unpack("I", 4)

    def longlong(self) -> int:
        return self._unpack("q", 8)

    def ulonglong(self) -> int:
        return self._unpack("Q", 8)

    def double(self) -> float:
        return self._unpack("d", 8)

    def enum(self) -> int:
        return self.ulong()

    # -- constructed ------------------------------------------------------
    def string(self) -> str:
        n = self.ulong()
        if n == 0:
            return ""
        end = self._pos + n
        if end > len(self._data):
            raise MarshalError("truncated string")
        raw = self._data[self._pos : end - 1]  # strip trailing NUL
        self._pos = end
        return raw.decode("utf-8")

    def octets(self) -> bytes:
        n = self.ulong()
        end = self._pos + n
        if end > len(self._data):
            raise MarshalError("truncated octet sequence")
        raw = self._data[self._pos : end]
        self._pos = end
        return raw

    def ulong_seq(self) -> List[int]:
        n = self.ulong()
        return [self.ulong() for _ in range(n)]

    def encapsulation(self) -> "CDRDecoder":
        payload = self.octets()
        if not payload:
            raise MarshalError("empty encapsulation")
        little = payload[0] == 1
        return CDRDecoder(payload[1:], little_endian=little)

    def remaining(self) -> bytes:
        """Everything not yet consumed (e.g. a request body)."""
        return self._data[self._pos :]

    @property
    def position(self) -> int:
        return self._pos
