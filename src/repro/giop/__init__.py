"""GIOP — General Inter-ORB Protocol messages and CDR marshaling.

The eight GIOP message types (paper §3.1), CDR primitive/constructed
marshaling, the tagged-value convention used for invocation parameters,
object references, and the CORBA system-exception hierarchy.
"""

from .cdr import CDRDecoder, CDREncoder, MarshalError
from .errors import (
    BadOperation,
    CommFailure,
    CORBAException,
    Marshal,
    ObjectNotExist,
    SystemException,
    Transient,
    UserException,
    system_exception_by_name,
)
from .ior import GroupRef, ObjectRef, decode_ref
from .messages import (
    GIOP_MAGIC,
    CancelRequestMessage,
    CloseConnectionMessage,
    FragmentMessage,
    GIOPHeader,
    GIOPMessage,
    GIOPMessageType,
    LocateReplyMessage,
    LocateRequestMessage,
    LocateStatus,
    MessageErrorMessage,
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    ServiceContext,
    decode_giop,
    encode_giop,
    giop_header,
    peek_request,
)
from .values import decode_value, decode_values, encode_value, encode_values

__all__ = [
    "CDREncoder",
    "CDRDecoder",
    "MarshalError",
    "GIOP_MAGIC",
    "GIOPMessageType",
    "GIOPHeader",
    "GIOPMessage",
    "RequestMessage",
    "ReplyMessage",
    "CancelRequestMessage",
    "LocateRequestMessage",
    "LocateReplyMessage",
    "CloseConnectionMessage",
    "MessageErrorMessage",
    "FragmentMessage",
    "ReplyStatus",
    "LocateStatus",
    "ServiceContext",
    "encode_giop",
    "decode_giop",
    "giop_header",
    "peek_request",
    "encode_value",
    "decode_value",
    "encode_values",
    "decode_values",
    "ObjectRef",
    "GroupRef",
    "decode_ref",
    "CORBAException",
    "SystemException",
    "ObjectNotExist",
    "BadOperation",
    "CommFailure",
    "Transient",
    "Marshal",
    "UserException",
    "system_exception_by_name",
]
