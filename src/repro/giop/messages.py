"""GIOP message model (CORBA 2.2 chapter 13; paper §3.1).

"CORBA's Generalized Inter-ORB Protocol (GIOP) specification defines eight
message types: Request, Reply, CancelRequest, LocateRequest, LocateReply,
CloseConnection, MessageError and Fragment."  All eight are implemented
with GIOP 1.0 header/body layouts (the byte-order octet form), and each is
what FTMP encapsulates inside a Regular message (Figure 2).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import List, Tuple, Union

from .cdr import CDRDecoder, CDREncoder, MarshalError

__all__ = [
    "GIOP_MAGIC",
    "GIOPMessageType",
    "ReplyStatus",
    "LocateStatus",
    "ServiceContext",
    "GIOPHeader",
    "RequestMessage",
    "ReplyMessage",
    "CancelRequestMessage",
    "LocateRequestMessage",
    "LocateReplyMessage",
    "CloseConnectionMessage",
    "MessageErrorMessage",
    "FragmentMessage",
    "GIOPMessage",
    "encode_giop",
    "decode_giop",
    "giop_header",
    "peek_request",
]

GIOP_MAGIC = b"GIOP"
_HEADER_LEN = 12
#: ulong readers by byte order (index: little endian?)
_ULONG = (struct.Struct(">I").unpack_from, struct.Struct("<I").unpack_from)


class GIOPMessageType(enum.IntEnum):
    """The eight GIOP message types (CORBA 2.2 §13.2.1)."""

    REQUEST = 0
    REPLY = 1
    CANCEL_REQUEST = 2
    LOCATE_REQUEST = 3
    LOCATE_REPLY = 4
    CLOSE_CONNECTION = 5
    MESSAGE_ERROR = 6
    FRAGMENT = 7


_LAST_TYPE = int(GIOPMessageType.FRAGMENT)


class ReplyStatus(enum.IntEnum):
    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2
    LOCATION_FORWARD = 3


class LocateStatus(enum.IntEnum):
    UNKNOWN_OBJECT = 0
    OBJECT_HERE = 1
    OBJECT_FORWARD = 2


@dataclass(frozen=True)
class ServiceContext:
    """One entry of a GIOP service context list."""

    context_id: int
    context_data: bytes


@dataclass
class GIOPHeader:
    """The 12-byte GIOP message header."""

    message_type: GIOPMessageType
    little_endian: bool = True
    version: Tuple[int, int] = (1, 0)
    message_size: int = 0  #: body size; filled in at encode time


@dataclass
class RequestMessage:
    header: GIOPHeader
    service_context: List[ServiceContext] = field(default_factory=list)
    request_id: int = 0
    response_expected: bool = True
    object_key: bytes = b""
    operation: str = ""
    requesting_principal: bytes = b""
    body: bytes = b""  #: CDR-encoded in/inout parameters


@dataclass
class ReplyMessage:
    header: GIOPHeader
    service_context: List[ServiceContext] = field(default_factory=list)
    request_id: int = 0
    reply_status: ReplyStatus = ReplyStatus.NO_EXCEPTION
    body: bytes = b""  #: CDR-encoded results / exception


@dataclass
class CancelRequestMessage:
    header: GIOPHeader
    request_id: int = 0


@dataclass
class LocateRequestMessage:
    header: GIOPHeader
    request_id: int = 0
    object_key: bytes = b""


@dataclass
class LocateReplyMessage:
    header: GIOPHeader
    request_id: int = 0
    locate_status: LocateStatus = LocateStatus.UNKNOWN_OBJECT


@dataclass
class CloseConnectionMessage:
    header: GIOPHeader


@dataclass
class MessageErrorMessage:
    header: GIOPHeader


@dataclass
class FragmentMessage:
    """GIOP 1.1 continuation of a fragmented message."""

    header: GIOPHeader
    data: bytes = b""


GIOPMessage = Union[
    RequestMessage,
    ReplyMessage,
    CancelRequestMessage,
    LocateRequestMessage,
    LocateReplyMessage,
    CloseConnectionMessage,
    MessageErrorMessage,
    FragmentMessage,
]


def _encode_service_context(enc: CDREncoder, ctxs: List[ServiceContext]) -> None:
    enc.ulong(len(ctxs))
    for c in ctxs:
        enc.ulong(c.context_id)
        enc.octets(c.context_data)


def _decode_service_context(dec: CDRDecoder) -> List[ServiceContext]:
    return [ServiceContext(dec.ulong(), dec.octets()) for _ in range(dec.ulong())]


def encode_giop(msg: GIOPMessage) -> bytes:
    """Serialize a GIOP message: 12-byte header + CDR body."""
    h = msg.header
    body = CDREncoder(h.little_endian)
    # Body alignment is relative to the start of the message; account for
    # the 12-byte header so multiples-of-8 land correctly.
    body.raw(b"\x00" * _HEADER_LEN)

    if isinstance(msg, RequestMessage):
        _encode_service_context(body, msg.service_context)
        body.ulong(msg.request_id)
        body.boolean(msg.response_expected)
        body.octets(msg.object_key)
        body.string(msg.operation)
        body.octets(msg.requesting_principal)
        body.raw(msg.body)
    elif isinstance(msg, ReplyMessage):
        _encode_service_context(body, msg.service_context)
        body.ulong(msg.request_id)
        body.enum(int(msg.reply_status))
        body.raw(msg.body)
    elif isinstance(msg, CancelRequestMessage):
        body.ulong(msg.request_id)
    elif isinstance(msg, LocateRequestMessage):
        body.ulong(msg.request_id)
        body.octets(msg.object_key)
    elif isinstance(msg, LocateReplyMessage):
        body.ulong(msg.request_id)
        body.enum(int(msg.locate_status))
    elif isinstance(msg, (CloseConnectionMessage, MessageErrorMessage)):
        pass
    elif isinstance(msg, FragmentMessage):
        body.raw(msg.data)
    else:  # pragma: no cover - exhaustive
        raise MarshalError(f"unknown GIOP message {type(msg).__name__}")

    payload = body.getvalue()[_HEADER_LEN:]
    h.message_size = len(payload)

    head = CDREncoder(h.little_endian)
    head.raw(GIOP_MAGIC)
    head.octet(h.version[0])
    head.octet(h.version[1])
    head.boolean(h.little_endian)  # GIOP 1.0 byte_order octet
    head.octet(int(h.message_type))
    head.ulong(h.message_size)
    return head.getvalue() + payload


def giop_header(data: bytes) -> Tuple[int, bool]:
    """Validate the 12-byte header of an encoded GIOP message.

    Returns ``(type octet, little endian)``; raises :class:`MarshalError`
    on a bad magic, an unknown type octet or a size field that disagrees
    with the length.  This is every check :func:`decode_giop` makes before
    it opens the body, so a receiver that only needs the message type
    (duplicate suppression, logging) need not walk the CDR stream.
    """
    if len(data) < _HEADER_LEN or data[:4] != GIOP_MAGIC:
        raise MarshalError("not a GIOP message")
    mtype = data[7]
    if mtype > _LAST_TYPE:
        raise MarshalError(f"unknown GIOP message type {mtype}")
    little = data[6] == 1
    (size,) = _ULONG[little](data, 8)
    if size != len(data) - _HEADER_LEN:
        raise MarshalError(
            f"GIOP size field {size} != body length {len(data) - _HEADER_LEN}"
        )
    return mtype, little


def peek_request(data: bytes, little_endian: bool) -> Tuple[bool, bytes, str]:
    """``(response_expected, object_key, operation)`` of an encoded Request.

    For a message that passed :func:`giop_header`.  Reads the Request
    header the way :func:`decode_giop` does and stops before the
    principal and the body, which it never touches.
    """
    dec = CDRDecoder(data, little_endian=little_endian, offset=_HEADER_LEN)
    try:
        _decode_service_context(dec)
        dec.ulong()  # request id: the FTMP header carries the number that matters
        return dec.boolean(), dec.octets(), dec.string()
    except ValueError as exc:  # an operation name that is not UTF-8
        raise MarshalError(f"malformed GIOP Request: {exc}") from exc


def decode_giop(data: bytes) -> GIOPMessage:
    """Deserialize a GIOP message."""
    octet, little = giop_header(data)
    h = GIOPHeader(message_type=GIOPMessageType(octet), little_endian=little,
                   version=(data[4], data[5]),
                   message_size=len(data) - _HEADER_LEN)
    dec = CDRDecoder(data, little_endian=little, offset=_HEADER_LEN)
    try:
        return _decode_body(h, dec)
    except ValueError as exc:  # an enum out of range, a string not UTF-8
        raise MarshalError(f"malformed GIOP body: {exc}") from exc


def _decode_body(h: GIOPHeader, dec: CDRDecoder) -> GIOPMessage:
    mtype = h.message_type
    if mtype == GIOPMessageType.REQUEST:
        ctx = _decode_service_context(dec)
        return RequestMessage(
            header=h,
            service_context=ctx,
            request_id=dec.ulong(),
            response_expected=dec.boolean(),
            object_key=dec.octets(),
            operation=dec.string(),
            requesting_principal=dec.octets(),
            body=dec.remaining(),
        )
    if mtype == GIOPMessageType.REPLY:
        ctx = _decode_service_context(dec)
        return ReplyMessage(
            header=h,
            service_context=ctx,
            request_id=dec.ulong(),
            reply_status=ReplyStatus(dec.enum()),
            body=dec.remaining(),
        )
    if mtype == GIOPMessageType.CANCEL_REQUEST:
        return CancelRequestMessage(header=h, request_id=dec.ulong())
    if mtype == GIOPMessageType.LOCATE_REQUEST:
        return LocateRequestMessage(header=h, request_id=dec.ulong(),
                                    object_key=dec.octets())
    if mtype == GIOPMessageType.LOCATE_REPLY:
        return LocateReplyMessage(header=h, request_id=dec.ulong(),
                                  locate_status=LocateStatus(dec.enum()))
    if mtype == GIOPMessageType.CLOSE_CONNECTION:
        return CloseConnectionMessage(header=h)
    if mtype == GIOPMessageType.MESSAGE_ERROR:
        return MessageErrorMessage(header=h)
    if mtype == GIOPMessageType.FRAGMENT:
        return FragmentMessage(header=h, data=dec.remaining())
    raise MarshalError(f"unhandled GIOP type {mtype}")  # pragma: no cover
