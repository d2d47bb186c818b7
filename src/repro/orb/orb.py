"""The miniature ORB.

One :class:`ORB` per processor.  It owns a :class:`~repro.orb.poa.POA`,
can be attached to an IIOP network (point-to-point GIOP over a TCP-like
channel) and/or to an FTMP stack (via
:class:`~repro.orb.ftiop.FTMPAdapter`), and gives out proxies whose method
calls return :class:`~repro.orb.futures.InvocationFuture`.

The paper's architecture (Figure 1) puts the ORB *above* FTMP with no ORB
modification: the adapter intercepts GIOP messages at the transport
boundary, exactly like the Eternal system the authors built.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..giop import (
    CommFailure,
    GIOPHeader,
    GIOPMessage,
    GIOPMessageType,
    GroupRef,
    LocateReplyMessage,
    LocateRequestMessage,
    LocateStatus,
    Marshal,
    MessageErrorMessage,
    MarshalError,
    ObjectRef,
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    UserException,
    decode_giop,
    decode_values,
    encode_giop,
    encode_values,
    system_exception_by_name,
)
from ..simnet.scheduler import Scheduler
from .futures import FutureError, InvocationFuture
from .iiop import IIOPNetwork
from .poa import POA

__all__ = ["ORB", "Proxy"]


class _Operation:
    """A bound remote operation; calling it returns a future."""

    __slots__ = ("_proxy", "_name")

    def __init__(self, proxy: "Proxy", name: str):
        self._proxy = proxy
        self._name = name

    def __call__(self, *args: Any) -> InvocationFuture:
        return self._proxy._invoke(self._name, args, response_expected=True)


class Proxy:
    """Client stub for a remote object (singleton or group reference)."""

    def __init__(self, orb: "ORB", ref):
        self._orb = orb
        self._ref = ref

    def __getattr__(self, name: str) -> _Operation:
        if name.startswith("_"):
            raise AttributeError(name)
        return _Operation(self, name)

    def _invoke(self, operation: str, args: Tuple[Any, ...],
                response_expected: bool = True) -> InvocationFuture:
        return self._orb.invoke(self._ref, operation, args, response_expected)

    def _oneway(self, operation: str, *args: Any) -> None:
        """Fire-and-forget invocation (no Reply expected)."""
        self._orb.invoke(self._ref, operation, args, response_expected=False)

    @property
    def ref(self):
        return self._ref


class ORB:
    """One processor's Object Request Broker."""

    def __init__(self, pid: int, scheduler: Optional[Scheduler] = None,
                 little_endian: bool = True):
        self.pid = pid
        self.poa = POA()
        self._sched = scheduler
        self._little = little_endian
        self._iiop: Optional[IIOPNetwork] = None
        self._ftmp_adapter = None  # set by FTMPAdapter.attach
        self._next_request_id = 1
        #: IIOP pending replies: request_id -> future
        self._pending: Dict[int, InvocationFuture] = {}

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------
    def attach_iiop(self, network: IIOPNetwork) -> None:
        """Join a point-to-point IIOP fabric."""
        self._iiop = network
        network.attach(self.pid, self._on_iiop_data)

    def _set_ftmp_adapter(self, adapter) -> None:
        self._ftmp_adapter = adapter

    # ------------------------------------------------------------------
    # references & proxies
    # ------------------------------------------------------------------
    def activate(self, object_key: bytes, servant: Any, type_id: str = "") -> ObjectRef:
        """Register a servant and return its singleton reference."""
        self.poa.activate(object_key, servant, type_id)
        return ObjectRef(type_id=type_id, processor=self.pid, object_key=object_key)

    def proxy(self, ref) -> Proxy:
        """Create a client stub for a singleton or group reference."""
        return Proxy(self, ref)

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------
    def invoke(self, ref, operation: str, args: Tuple[Any, ...],
               response_expected: bool = True) -> InvocationFuture:
        """Marshal and send one GIOP Request along the right transport."""
        if isinstance(ref, GroupRef):
            if self._ftmp_adapter is None:
                raise CommFailure("no FTMP adapter attached for group reference")
            return self._ftmp_adapter.invoke(ref, operation, args, response_expected)
        if isinstance(ref, ObjectRef):
            return self._invoke_iiop(ref, operation, args, response_expected)
        raise TypeError(f"not an object reference: {ref!r}")

    def _invoke_iiop(self, ref: ObjectRef, operation: str, args: Tuple[Any, ...],
                     response_expected: bool) -> InvocationFuture:
        if self._iiop is None:
            raise CommFailure("no IIOP network attached")
        request_id = self._next_request_id
        self._next_request_id += 1
        req = RequestMessage(
            header=GIOPHeader(GIOPMessageType.REQUEST, little_endian=self._little),
            request_id=request_id,
            response_expected=response_expected,
            object_key=ref.object_key,
            operation=operation,
            body=encode_values(args, self._little),
        )
        fut = InvocationFuture()
        if response_expected:
            self._pending[request_id] = fut
        else:
            fut.set_result(None)
        self._iiop.send(self.pid, ref.processor, encode_giop(req))
        return fut

    def locate(self, ref: ObjectRef) -> InvocationFuture:
        """Send a GIOP LocateRequest; future resolves to a LocateStatus."""
        if self._iiop is None:
            raise CommFailure("no IIOP network attached")
        request_id = self._next_request_id
        self._next_request_id += 1
        msg = LocateRequestMessage(
            header=GIOPHeader(GIOPMessageType.LOCATE_REQUEST, little_endian=self._little),
            request_id=request_id,
            object_key=ref.object_key,
        )
        fut = InvocationFuture()
        self._pending[request_id] = fut
        self._iiop.send(self.pid, ref.processor, encode_giop(msg))
        return fut

    # ------------------------------------------------------------------
    # IIOP receive path
    # ------------------------------------------------------------------
    def _on_iiop_data(self, src: int, data: bytes) -> None:
        try:
            msg = decode_giop(data)
        except MarshalError:
            err = MessageErrorMessage(
                header=GIOPHeader(GIOPMessageType.MESSAGE_ERROR, little_endian=self._little)
            )
            self._iiop.send(self.pid, src, encode_giop(err))
            return
        self._handle_giop(src, msg)

    def _handle_giop(self, src: int, msg: GIOPMessage) -> None:
        if isinstance(msg, RequestMessage):
            reply = self.poa.dispatch(msg)
            if reply is not None:
                self._iiop.send(self.pid, src, encode_giop(reply))
        elif isinstance(msg, ReplyMessage):
            fut = self._pending.pop(msg.request_id, None)
            if fut is not None:
                self.complete_from_reply(fut, msg)
        elif isinstance(msg, LocateRequestMessage):
            status = (
                LocateStatus.OBJECT_HERE
                if self.poa.servant(msg.object_key) is not None
                else LocateStatus.UNKNOWN_OBJECT
            )
            reply = LocateReplyMessage(
                header=GIOPHeader(GIOPMessageType.LOCATE_REPLY, little_endian=self._little),
                request_id=msg.request_id,
                locate_status=status,
            )
            self._iiop.send(self.pid, src, encode_giop(reply))
        elif isinstance(msg, LocateReplyMessage):
            fut = self._pending.pop(msg.request_id, None)
            if fut is not None:
                fut.set_result(msg.locate_status)
        # CancelRequest: dispatch here is synchronous, nothing to cancel.
        # CloseConnection / MessageError / Fragment: accepted and ignored.

    # ------------------------------------------------------------------
    # reply unmarshaling (shared with the FTMP adapter)
    # ------------------------------------------------------------------
    def complete_from_reply(self, fut: InvocationFuture, reply: ReplyMessage) -> None:
        """Resolve a future from a decoded GIOP Reply."""
        little = reply.header.little_endian
        try:
            values = decode_values(reply.body, little)
            if reply.reply_status == ReplyStatus.NO_EXCEPTION:
                (result,) = values
                raised = None
            elif reply.reply_status == ReplyStatus.USER_EXCEPTION:
                name, detail = values
                raised = UserException(name, detail)
            else:
                repo_id, detail = values
                raised = system_exception_by_name(repo_id)(detail)
        except (MarshalError, ValueError, TypeError) as exc:
            # a body that is not the values its status promises: the
            # invocation ends with MARSHAL, as a server's does in the POA
            raised = Marshal(f"cannot unmarshal reply: {exc}")
        if raised is None:
            fut.set_result(result)
        else:
            fut.set_exception(raised)

    # ------------------------------------------------------------------
    # synchronous convenience (simulation only)
    # ------------------------------------------------------------------
    def wait(self, fut: InvocationFuture, timeout: float = 5.0) -> Any:
        """Pump the scheduler until the future completes; return its value."""
        if self._sched is None:
            raise FutureError("ORB has no scheduler; use callbacks instead")
        deadline = self._sched.now + timeout
        while not fut.done and self._sched.now < deadline:
            if not self._sched.step():
                break
        if not fut.done:
            raise CommFailure(f"no reply within {timeout}s")
        return fut.result()

    def call(self, proxy: Proxy, operation: str, *args: Any, timeout: float = 5.0) -> Any:
        """Synchronous invocation helper: invoke then wait."""
        return self.wait(getattr(proxy, operation)(*args), timeout=timeout)
