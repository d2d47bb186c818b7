"""The layered FTMP datapath (paper Figure 1, made explicit).

This module is the seam between the protocol machines and the wire:

* :class:`GroupContext` — the narrow protocol the RMP / ROMP / PGMP /
  fault-detector machines are written against.  The machines never import
  a concrete group class; they receive "some GroupContext" and use only
  this surface (timers, tracing, upward delivery, the one stamped-send
  service and clock access).
* :class:`SendPath` — the downward pipeline: header stamping (sequence
  number, clock tick, piggybacked ack timestamp), retransmission
  retention, the heartbeat generator, and the optional coalescing window
  that packs small Regular messages into one Batch datagram.
* :class:`ReceivePath` — the upward pipeline: Batch unpacking, new-member
  join gating, then RMP with the message and its wire bytes.  The layers
  above never see a Batch: at most its Regulars as one in-order run
  (``RMP.on_run``), where today's per-message path would have taken
  each of them through its shortcuts anyway.
* :class:`ProcessorGroup` — the composition root wiring one group's
  machines through the two pipelines; it implements ``GroupContext`` and
  keeps the membership/view state that *is* the group.  Its
  :meth:`~ProcessorGroup.send` is the one way a stamped message leaves:
  Figure 3's two tables decide there what its type entails.  Its constructor
  is the one place that chooses the group's ordering discipline (a
  :class:`~repro.core.romp.ROMP`) and its
  :class:`~repro.core.dissemination.Dissemination`; everything else calls
  their hooks unconditionally (DESIGN.md, "Two seams").

Batching (``FTMPConfig.batch_window``) is off by default, in which case
the send path is bit-identical to the historical unbatched stack: every
message goes out the moment it is stamped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    Type,
)

from ..transport import NamedTimerSet
from .buffers import RetransmissionBuffer
from .config import FTMPConfig
from .constants import JOIN_GRACE, RELIABLE_TYPES, TOTALLY_ORDERED_TYPES, MessageType
from .dissemination import LOOPBACK, Dissemination
from .events import Delivery, FaultReport, ViewChange
from .fault_detector import FaultDetector
from .llft import LeaderOrdering
from .messages import (
    AddProcessorMessage,
    BatchMessage,
    ConnectionId,
    ConnectMessage,
    FTMPHeader,
    FTMPMessage,
    HeartbeatMessage,
    RegularMessage,
)
from .multigroup import SkeenOrdering
from .overlay import OverlayDissemination
from .pgmp import PGMP
from .rmp import RMP
from .romp import ROMP
from .stats import GroupStats
from .wire import CodecError, decode, encode, mark_retransmission, peek_header

if TYPE_CHECKING:  # pragma: no cover
    from random import Random

    from .lamport import OrderingClock
    from .stack import FTMPStack

__all__ = [
    "GroupContext",
    "SendPath",
    "ReceivePath",
    "BatchStats",
    "FlowControlStats",
    "FlowController",
    "FlowControlSaturated",
    "ProcessorGroup",
]

#: Minimum expected messages per window for the adaptive window
#: (``batch_adaptive``) to engage coalescing: the break-even batch size.
BATCH_MIN_FILL = 4

#: the interned connection id of Regulars outside any logical connection
_NO_CONNECTION = ConnectionId.none()


class FlowControlSaturated(RuntimeError):
    """A multicast exceeded ``flow_queue_limit`` backpressured sends.

    Raised instead of queueing so the application gets a synchronous
    load-shedding signal; the send was *not* accepted and will not be
    transmitted later.
    """


class GroupContext(Protocol):
    """The group surface the protocol machines need — and nothing more.

    RMP / ROMP / PGMP / :class:`~repro.core.fault_detector.FaultDetector`
    are typed against this protocol instead of any concrete group class,
    so they can be driven by the real :class:`ProcessorGroup` or by a test
    double without touching the stack.
    """

    group_id: int
    membership: Tuple[int, ...]
    view_timestamp: int
    joining: bool
    #: the group has been shut down (we left, were evicted, or the stack
    #: stopped): nothing further may be delivered into it
    stopped: bool
    #: (timestamp, source) of the AddProcessor admitting this processor
    join_barrier: Optional[Tuple[int, int]]
    #: (timestamp, source) keys grandfathered by a fault view — queued
    #: ordered messages from removed members that remain deliverable
    legacy_keys: Set[Tuple[int, int]]
    buffer: RetransmissionBuffer
    rmp: RMP
    romp: ROMP
    pgmp: PGMP
    fault_detector: FaultDetector
    #: stability-driven credit window; ROMP reports stability advances to it
    flow: FlowController
    dissemination: Dissemination

    # -- identity / environment ----------------------------------------
    @property
    def pid(self) -> int: ...

    @property
    def config(self) -> FTMPConfig: ...

    @property
    def rng(self) -> "Random": ...

    @property
    def clock(self) -> "OrderingClock": ...

    @property
    def last_sent_seq(self) -> int: ...

    def now(self) -> float: ...

    def schedule(self, delay: float, fn: Callable, *args): ...

    def trace(self, kind: str, **detail) -> None: ...

    # -- liveness bookkeeping ------------------------------------------
    def note_alive(self, src: int) -> None: ...

    def has_heard_from(self, src: int) -> bool: ...

    def forget_member(self, pid: int) -> None: ...

    # -- upward delivery ------------------------------------------------
    def pgmp_raise_suspicion(self, pid: int) -> None: ...

    def pgmp_withdraw_suspicion(self, pid: int) -> None: ...

    def pgmp_receive_ordered(self, msg: FTMPMessage) -> None: ...

    def deliver_regular(self, msg: RegularMessage) -> None: ...

    # -- send services --------------------------------------------------
    def send(self, cls: Type[FTMPMessage], *body,
             address: Optional[int] = None) -> bytes: ...

    def retransmit_raw(self, raw: bytes, address: Optional[int] = None) -> None: ...

    # -- membership transitions -----------------------------------------
    def install_view(self, membership: Tuple[int, ...], view_timestamp: int,
                     added: Tuple[int, ...], removed: Tuple[int, ...],
                     reason: str) -> None: ...

    def install_fault_view(self, membership: Tuple[int, ...], view_timestamp: int,
                           removed: Tuple[int, ...],
                           sync_targets: Optional[Dict[int, int]] = None) -> None: ...

    def evict_self(self, reason: str, view_timestamp: int) -> None: ...

    def seed_provisional_join(self, membership: Tuple[int, ...], view_timestamp: int,
                              join_barrier: Tuple[int, int]) -> None: ...

    def complete_join(self, membership: Tuple[int, ...], view_timestamp: int,
                      join_barrier: Tuple[int, int]) -> None: ...

    def apply_connect_migration(self, msg: ConnectMessage) -> None: ...

    def on_send_barrier_cleared(self) -> None: ...


@dataclass
class BatchStats:
    """Batching-efficiency counters of one group's send/receive paths."""

    batches_sent: int = 0
    messages_batched: int = 0
    batches_received: int = 0
    messages_unbatched: int = 0
    flushes_on_timer: int = 0
    flushes_on_size: int = 0
    flushes_on_order: int = 0  #: a non-batchable send forced the flush
    heartbeats_suppressed: int = 0
    batch_decode_errors: int = 0
    #: adaptive window: sends that skipped the window because the recent
    #: rate would not fill it (low-load latency restored to unbatched)
    adaptive_bypasses: int = 0


@dataclass
class FlowControlStats:
    """Credit-window counters of one group's sender (flow control)."""

    sends_admitted: int = 0  #: Regulars that consumed a credit and went out
    sends_queued: int = 0  #: application sends held back (no credits)
    sends_released: int = 0  #: queued sends later admitted by stability
    sends_rejected: int = 0  #: multicasts refused at ``flow_queue_limit``
    credit_stalls: int = 0  #: transitions into the fully blocked state
    max_queue_depth: int = 0


class FlowController:
    """Per-sender credit window driven by the §6 stability signal.

    The ROMP layer already computes, from the piggybacked positive
    acknowledgement timestamps, the *stability timestamp* — the highest
    ordering timestamp every member has acknowledged (the same signal
    that bounds the retransmission buffers, §5/§6).  The flow controller
    feeds it back to the sender: at most ``flow_control_window`` of this
    processor's own Regular messages may be in flight (sent but not yet
    stable) at once.  Application sends beyond the window queue here —
    backpressure — and drain as stability advances, so a sender can never
    run further ahead of the group than the window, no matter the offered
    load.  Control traffic (membership, NACKs, heartbeats) is never
    subject to credits: it is exactly what makes stability advance.
    """

    def __init__(self, group: "ProcessorGroup", stats: FlowControlStats):
        self._g = group
        self.stats = stats
        #: ordering timestamps of our own in-flight (unstable) Regulars;
        #: timestamps are per-source monotonic, so this deque is sorted
        self._inflight: Deque[int] = deque()
        self._queue: Deque[Tuple[bytes, ConnectionId, int]] = deque()
        #: true while :meth:`drain` hands a queued send to the send path
        self.releasing = False
        #: a :meth:`_release` is scheduled for the next scheduler turn
        self._release_armed = False

    @property
    def enabled(self) -> bool:
        return self._g.config.flow_control_window > 0

    @property
    def inflight(self) -> int:
        """Own Regulars sent but not yet covered by the stability timestamp."""
        return len(self._inflight)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def credits(self) -> int:
        """Sends the window still allows before backpressure engages."""
        if not self.enabled:
            return 0
        return max(0, self._g.config.flow_control_window - len(self._inflight))

    @property
    def blocked(self) -> bool:
        """True while application sends are queued on exhausted credits."""
        return bool(self._queue)

    def submit(self, payload: bytes, cid: ConnectionId, request_num: int,
               enforce_limit: bool = True) -> bool:
        """Admit a send now (True) or queue it on backpressure (False).

        With ``flow_queue_limit`` set, a send beyond the cap raises
        :class:`FlowControlSaturated` instead of queueing.  Internal
        re-submissions of already-accepted sends (the §7 barrier drain)
        pass ``enforce_limit=False`` — they must never be dropped.
        """
        if not self.enabled:
            return True
        if not self._queue and len(self._inflight) < self._g.config.flow_control_window:
            return True
        limit = self._g.config.flow_queue_limit
        if enforce_limit and limit > 0 and len(self._queue) >= limit:
            self.stats.sends_rejected += 1
            raise FlowControlSaturated(
                f"flow-control queue full ({limit} sends already backpressured)"
            )
        if not self._queue:
            self.stats.credit_stalls += 1
        self._queue.append((payload, cid, request_num))
        self.stats.sends_queued += 1
        if len(self._queue) > self.stats.max_queue_depth:
            self.stats.max_queue_depth = len(self._queue)
        return False

    def note_sent(self, timestamp: int) -> None:
        """Record an admitted Regular's ordering timestamp (one credit)."""
        if self.enabled:
            self._inflight.append(timestamp)
            self.stats.sends_admitted += 1

    def on_stability(self, stable: int) -> None:
        """Stability advanced: recycle credits now, release queued sends
        on the next scheduler turn.

        Most advances are read off a datagram's header, before that
        datagram's messages are delivered.  A send released at once
        would carry the acknowledgement from before the deliveries the
        same datagram makes possible, and its peers' stability, and so
        their credits, would wait for the next one.
        """
        inflight = self._inflight
        while inflight and inflight[0] <= stable:
            inflight.popleft()
        if self._queue and not self._release_armed:
            self._release_armed = True
            self._g.schedule(0.0, self._release)

    def _release(self) -> None:
        self._release_armed = False
        if not self._g.stopped:
            self.drain()

    def drain(self) -> None:
        """Release queued sends while credits last — never past a barrier.

        A stability advance can arrive while a §7 Connect quiescence
        barrier is pending (heartbeats keep flowing precisely so a
        blocked sender's credits refill); releasing ordered Regulars
        then would violate the join-quiescence invariant, so the queue
        holds until :meth:`ProcessorGroup.on_send_barrier_cleared` kicks
        this drain again.
        """
        if not self._queue or not self._g.romp.can_send_ordered():
            return
        window = self._g.config.flow_control_window
        while self._queue and len(self._inflight) < window:
            payload, cid, request_num = self._queue.popleft()
            self.stats.sends_released += 1
            # the send takes its credit, growing _inflight again
            self.releasing = True
            try:
                self._g._send_regular(payload, cid, request_num)
            finally:
                self.releasing = False


class SendPath:
    """Downward pipeline of one processor group.

    Owns the reliable sequence counter, header stamping (clock tick plus
    the piggybacked ack timestamp), retention of reliable messages for
    NACK answering, the §5 heartbeat generator, and the batching window.
    Protocol machines never build headers or touch the wire; the group's
    :meth:`ProcessorGroup.send` stamps and transmits everything here.
    """

    def __init__(
        self,
        ctx: "ProcessorGroup",
        transmit: Callable[[int, bytes], None],
        ack_supplier: Callable[[], int],
        address_supplier: Callable[[], int],
        stats: GroupStats,
        batch_stats: BatchStats,
    ):
        self._ctx = ctx
        self._transmit = transmit
        self._ack = ack_supplier
        self._address = address_supplier
        self._stats = stats
        self._batch = batch_stats
        self._timers = NamedTimerSet(ctx.schedule)
        #: periodic dissemination traffic stands in for §5 heartbeats
        self._heartbeats_replaced = ctx.dissemination.replaces_heartbeats
        #: connection Regulars are covered at once (:meth:`cover`)
        self._covers = ctx.romp.covers_connections and not self._heartbeats_replaced
        self._seq = 0
        self._last_send_time = -1e9
        #: timestamp of the last stamped reliable message or Heartbeat:
        #: every member hears us past it
        self._stamped = 0
        #: the largest connection Regular timestamp a cover is armed for
        self._cover_due = 0
        self._pending: List[bytes] = []
        self._pending_bytes = 0
        self._stopped = False
        # adaptive batching: EWMA of the gap between batchable sends —
        # the load signal deciding window vs. immediate transmission
        self._gap_ewma = float("inf")
        self._last_batchable = -1e9

    # ------------------------------------------------------------------
    # header stamping
    # ------------------------------------------------------------------
    @property
    def last_sent_seq(self) -> int:
        return self._seq

    def next_header(self, mtype: MessageType) -> FTMPHeader:
        if mtype in RELIABLE_TYPES:
            self._seq += 1
        return FTMPHeader(
            message_type=mtype,
            source=self._ctx.pid,
            group=self._ctx.group_id,
            sequence_number=self._seq,
            timestamp=self._ctx.clock.tick(),
            ack_timestamp=self._ack(),
            little_endian=self._ctx.config.little_endian,
        )

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def send(self, msg: FTMPMessage, address: Optional[int] = None) -> bytes:
        """Stamp-independent egress: retain, trace, then wire (or window)."""
        raw = encode(msg)
        h = msg.header
        mtype = h.message_type
        if mtype in RELIABLE_TYPES:
            self._ctx.buffer.add(h.source, h.sequence_number, h.timestamp, raw)
        if mtype in RELIABLE_TYPES or mtype == MessageType.HEARTBEAT:
            # §5: a Heartbeat is due when no *Regular* (ordered-stream)
            # message went out recently; control traffic such as
            # RetransmitRequests must not starve the heartbeat, because
            # receivers need the stream's timestamps to keep ordering.
            self._last_send_time = self._ctx.now()
            self._stamped = h.timestamp
        if self._ctx._stack.tracer is not None:
            self._ctx.trace("send", type=mtype.name, seq=h.sequence_number,
                            ts=h.timestamp)
        if address is None and self._batchable(mtype, raw):
            if self._adaptive_bypass():
                self._batch.adaptive_bypasses += 1
                self._transmit(self._address(), raw)
            else:
                self._append(raw)
        elif address == LOOPBACK:
            # nothing reaches the wire, so the window's order on it is
            # not at stake: it stays closed
            self._ctx.loop_back(raw)
        else:
            self._flush_pending_first()
            self._transmit(self._address() if address is None else address, raw)
        return raw

    def send_raw(self, raw: bytes, address: Optional[int] = None) -> None:
        """Re-send retained wire bytes with the retransmission flag (§3.2).

        Deliberately does not touch ``last_send_time``: retransmissions
        are not new ordered-stream traffic and must not defer heartbeats.
        """
        self._flush_pending_first()
        self._transmit(self._address() if address is None else address,
                       mark_retransmission(raw))

    def _flush_pending_first(self) -> None:
        """Keep per-source FIFO: drain the window before unbatched sends."""
        if self._pending:
            self._batch.flushes_on_order += 1
            self.flush()

    # ------------------------------------------------------------------
    # batching window
    # ------------------------------------------------------------------
    def _batchable(self, mtype: MessageType, raw: bytes) -> bool:
        cfg = self._ctx.config
        return (
            cfg.batch_window > 0.0
            and mtype == MessageType.REGULAR
            and len(raw) <= cfg.batch_max_bytes
        )

    def _adaptive_bypass(self) -> bool:
        """Decide window vs. immediate send for an eligible Regular.

        The fixed window taxes every low-load send ~``batch_window`` of
        latency for nothing: the window closes with one message in it.
        With ``batch_adaptive`` on, an EWMA of the gap between eligible
        sends estimates how many messages the *next* window would
        coalesce; below ``BATCH_MIN_FILL`` the send bypasses the window
        (latency returns to unbatched), above it the window engages and
        saturation goodput keeps the full coalescing win.  A send never
        bypasses a non-empty window — that would reorder the sender's
        reliable stream on the wire — and a send released by
        :meth:`FlowController.drain` never bypasses at all: a backlog of
        credit-queued sends is observed load that fills the window, while
        the EWMA, fed by the release bursts and reset by the lull before
        each, would send the first ~10 of every burst alone.
        """
        cfg = self._ctx.config
        if not cfg.batch_adaptive:
            return False
        now = self._ctx.now()
        gap = now - self._last_batchable
        self._last_batchable = now
        if gap >= cfg.batch_window * BATCH_MIN_FILL:
            # idle long enough that no plausible rate fills a window:
            # hard-reset the estimate so one stale burst cannot tax the
            # first messages of a quiet period.  Clamped at the engage
            # threshold — an unbounded idle gap would otherwise take ~100
            # EWMA steps to decay, taxing the front of the next burst.
            self._gap_ewma = cfg.batch_window * BATCH_MIN_FILL
        else:
            ewma = self._gap_ewma
            self._gap_ewma = gap if ewma == float("inf") else 0.75 * ewma + 0.25 * gap
        if self._pending or self._ctx.flow.releasing:
            return False
        return self._gap_ewma * BATCH_MIN_FILL > cfg.batch_window

    def _append(self, raw: bytes) -> None:
        self._pending.append(raw)
        self._pending_bytes += len(raw)
        if self._pending_bytes >= self._ctx.config.batch_max_bytes:
            self._batch.flushes_on_size += 1
            self.flush()
        elif not self._timers.is_armed("batch-flush"):
            self._timers.arm("batch-flush", self._ctx.config.batch_window,
                             self._timer_flush)

    def _timer_flush(self) -> None:
        self._batch.flushes_on_timer += 1
        self.flush()

    @property
    def pending_batch(self) -> int:
        """Messages currently held in the coalescing window."""
        return len(self._pending)

    def flush(self) -> None:
        """Transmit the coalesced window now (no-op when empty)."""
        self._timers.cancel("batch-flush")
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_bytes = 0
        if len(pending) == 1:
            self._transmit(self._address(), pending[0])
            return
        envelope = BatchMessage(
            header=FTMPHeader(
                message_type=MessageType.BATCH,
                source=self._ctx.pid,
                group=self._ctx.group_id,
                sequence_number=0,
                timestamp=0,
                ack_timestamp=0,
                little_endian=self._ctx.config.little_endian,
            ),
            parts=tuple(pending),
        )
        self._batch.batches_sent += 1
        self._batch.messages_batched += len(pending)
        self._transmit(self._address(), encode(envelope))

    # ------------------------------------------------------------------
    # heartbeats (paper §5)
    # ------------------------------------------------------------------
    def start_heartbeats(self) -> None:
        self._arm_heartbeat()

    def _arm_heartbeat(self) -> None:
        if self._stopped:
            return
        self._timers.arm("heartbeat", self._ctx.config.heartbeat_interval,
                         self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if self._stopped:
            return
        if self._heartbeats_replaced and not self._ctx.joining:
            # The dissemination's own periodic traffic is the keepalive,
            # so all-member heartbeat fan-out stops.  A *joining* member
            # keeps heartbeating: the dissemination does not reach it
            # yet, and only its own loopbacked heartbeats advance its
            # stream in the ordering gate so the AddProcessor can reach
            # its position (§7.1).
            return  # deliberately without re-arming: the loop ends here
        if self._pending and not self._ctx.flow.blocked:
            # Piggyback suppression: the window flushes within
            # batch_window anyway, carrying fresher timestamps and a
            # fresher ack than a Heartbeat would.  Never while the sender
            # is blocked on credits: a fully backpressured sender cannot
            # produce the Regular traffic this suppression counts on, yet
            # its heartbeats are exactly what advances the peers' view of
            # its clock/ack — and with it the stability timestamp that
            # will refill its credits (liveness).
            self._batch.heartbeats_suppressed += 1
        else:
            idle = self._ctx.now() - self._last_send_time
            if idle >= self._ctx.config.heartbeat_interval * 0.999:
                self._stats.heartbeats_sent += 1
                self._ctx.send(HeartbeatMessage)
        self._arm_heartbeat()

    def cover(self, msg: RegularMessage) -> None:
        """A Regular on a §4 logical connection arrived.

        Connection traffic is request/reply: whoever receives a Request
        or a Reply has nothing to send until it is delivered, and no
        member delivers it until every member is heard past it — by the
        periodic tick, two heartbeat intervals later.  Unless we have
        stamped something since ``msg``'s timestamp, send the §5 null
        message on the next scheduler turn instead: one for however many
        Regulars arrive in the meantime, none if we send anything first.
        """
        ts = msg.header.timestamp
        if (not self._covers or ts <= self._stamped
                or self._ctx._stack.connection_binding(msg.connection_id) is None):
            return
        if ts > self._cover_due:
            self._cover_due = ts
        if not self._timers.is_armed("cover"):
            self._timers.arm("cover", 0.0, self._cover_tick)

    def _cover_tick(self) -> None:
        if self._stopped or self._ctx.joining or self._stamped >= self._cover_due:
            return
        self._stats.heartbeats_sent += 1
        self._stats.cover_heartbeats += 1
        self._ctx.send(HeartbeatMessage)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.flush()
        self._timers.cancel_all()


class ReceivePath:
    """Upward pipeline of one processor group.

    Unpacks Batch envelopes, gates the new-member joining state, and
    feeds RMP — message by message with its wire bytes, or a batch's
    Regulars as one run.  The protocol machines above never see a Batch.
    """

    def __init__(self, group: "ProcessorGroup", batch_stats: BatchStats):
        self._g = group
        self._batch = batch_stats

    def on_datagram(self, msg: FTMPMessage, raw: bytes) -> None:
        g = self._g
        if g.stopped:
            return
        cls = msg.__class__
        if cls is BatchMessage:
            self._on_batch(msg)
            return
        if g.joining:
            # A new member seeds provisional state from the AddProcessor
            # that names it; the message then flows through RMP/ROMP like
            # any other, and the join completes only when it reaches its
            # position in the total order (§7.1).  Before that seed there
            # is nothing to anchor recovery on, so everything else waits
            # for the initiator's periodic retransmission.
            if msg.__class__ is AddProcessorMessage and msg.new_member == g.pid:
                g.pgmp.prepare_join(msg)
            if g.join_barrier is None:
                return
        elif g._stack.tracer is not None:
            g.trace("recv", type=msg.header.message_type.name,
                    src=msg.header.source, seq=msg.header.sequence_number)
        # every datagram carries usable clock / ack / liveness information
        # (RetransmitRequests included); ordering advancement stays gated
        # on contiguity inside ROMP.  This is the datagram's one header
        # observation: ROMP recognises the header again when RMP hands
        # the message up and does not fold it in twice.
        g.romp.observe_header(msg.header)
        g.rmp.on_message(msg, raw)
        if cls is RegularMessage and msg.connection_id is not _NO_CONNECTION:
            g.send_path.cover(msg)

    def _on_batch(self, msg: BatchMessage) -> None:
        """Unpack one envelope.  Its parts are one sender's messages in
        the order it sent them; where the codec decoded them in the
        envelope's pass they are a run of Regulars, which RMP takes as
        one (:meth:`RMP.on_run`) as far as it is the in-order stream —
        the rest, and every batch of anything else, goes part by part
        through :meth:`on_datagram`, the general path."""
        g = self._g
        batch = self._batch
        batch.batches_received += 1
        parts = msg.parts
        run = msg.decoded
        if run is not None:
            batch.messages_unbatched += len(run)
            taken = 0
            # the ``recv`` trace events and the join gate are per part
            if run and not g.joining and g._stack.tracer is None:
                taken = g.rmp.on_run(run, parts)
                for i in range(taken):
                    if run[i].connection_id is not _NO_CONNECTION:
                        g.send_path.cover(run[i])
            for i in range(taken, len(run)):
                self.on_datagram(run[i], parts[i])
            return
        envelope = msg.header
        for part in parts:
            try:
                inner = decode(part)
            except CodecError:
                batch.batch_decode_errors += 1
                continue
            h = inner.header
            if (inner.__class__ is BatchMessage or h.group != envelope.group
                    or h.source != envelope.source):
                # The send path never nests (``_batchable`` admits
                # Regular only), and over a thousand nested envelopes
                # fit one datagram: recursing into them is a stack
                # depth the sender chooses.  Nor does it pack anyone
                # else's message: a verbatim part naming another group or
                # source would be fed to this group, or move another
                # source's sequence numbers, on the envelope's say-so.
                batch.batch_decode_errors += 1
                continue
            batch.messages_unbatched += 1
            self.on_datagram(inner, part)


class ProcessorGroup:
    """One processor's protocol state for one processor group.

    A thin composition root: wires the RMP / ROMP / PGMP machines and the
    fault detector through :class:`SendPath` / :class:`ReceivePath`, and
    implements the :class:`GroupContext` surface they are typed against.
    The membership/view bookkeeping lives here because it *is* the group.
    """

    def __init__(
        self,
        stack: "FTMPStack",
        group_id: int,
        address: int,
        membership: Tuple[int, ...],
        joining: bool = False,
    ):
        self._stack = stack
        # per-group constants, resolved once: the protocol machines read
        # them on every datagram
        self._endpoint = stack.endpoint
        self.pid: int = stack.pid
        self.config: FTMPConfig = stack.config
        self.clock = stack.clock
        self.group_id = group_id
        self.address = address
        self.membership: Tuple[int, ...] = tuple(sorted(membership))
        self.view_timestamp = 0
        self.joining = joining
        #: (timestamp, source) of the AddProcessor that admitted us; ordered
        #: messages strictly before it belong to views we were not part of.
        self.join_barrier: Optional[Tuple[int, int]] = None
        #: keys of queued ordered messages from members removed by a fault
        #: view — still deliverable (virtual synchrony grandfathering)
        self.legacy_keys: Set[Tuple[int, int]] = set()

        self.stopped = False
        self.buffer = RetransmissionBuffer(gc_enabled=stack.config.buffer_gc_enabled)
        self.stats = GroupStats()
        self.batch_stats = BatchStats()
        self.flow = FlowController(self, FlowControlStats())
        self.rmp = RMP(self)
        # The two seams, chosen here and nowhere else (which pairs are
        # legal is config.REJECTED_CELLS's): how bytes and acks travel,
        # and who decides the order.  The defaults are the paper's — flat
        # fan-out, the symmetric §6 rule.
        cfg = stack.config
        disseminations = {"flat": Dissemination, "tree": OverlayDissemination}
        orderings = {"symmetric": ROMP, "leader": LeaderOrdering,
                     "skeen": SkeenOrdering}
        self.dissemination: Dissemination = disseminations[cfg.dissemination](self)
        self.romp: ROMP = orderings[cfg.ordering](
            self, self.dissemination.stability_floor)
        self.pgmp = PGMP(self)
        self.fault_detector = FaultDetector(self)
        self.send_path = SendPath(
            self,
            transmit=self.dissemination.egress(stack.transmit),
            ack_supplier=lambda: self.romp.ack_timestamp,
            address_supplier=lambda: self.address,
            stats=self.stats,
            batch_stats=self.batch_stats,
        )
        self.receive_path = ReceivePath(self, self.batch_stats)
        self._ingress = self.dissemination.ingress(self.receive_path.on_datagram)

        self._pending_ordered: List[Tuple[bytes, ConnectionId, int]] = []
        self._heard: Set[int] = set()
        #: members that left in order -> when we last heard them since
        #: (:meth:`_from_departed`)
        self._departed: Dict[int, float] = {}
        #: after our own ordered removal: (its timestamp, when we stop
        #: anyway, members not yet heard acknowledging past it)
        self._lingering: Optional[Tuple[int, float, Set[int]]] = None
        self._linger_timer = None
        self._register_stats()

        if not joining:
            self._activate()

    def _register_stats(self) -> None:
        reg = self._stack.registry
        prefix = f"group.{self.group_id}"
        for section, stats in (
            ("send", self.stats),
            ("batch", self.batch_stats),
            ("flow", self.flow.stats),
            ("rmp", self.rmp.stats),
            ("romp", self.romp.stats),
            ("pgmp", self.pgmp.stats),
            ("fault_detector", self.fault_detector.stats),
            *self.romp.extra_stats,
            *self.dissemination.extra_stats,
        ):
            reg.register(f"{prefix}.{section}", stats)
        reg.register(
            f"{prefix}.gauges",
            lambda: {
                "queue_depth": self.romp.queued(),
                "ack_timestamp": self.romp.ack_timestamp,
                "stability_timestamp": self.romp.stability_timestamp(),
                "buffer_messages": len(self.buffer),
                "buffer_bytes": self.buffer.bytes,
                "last_sent_seq": self.last_sent_seq,
                "pending_batch": self.send_path.pending_batch,
                "fc_credits": self.flow.credits,
                "fc_inflight": self.flow.inflight,
                "fc_queue_depth": self.flow.queue_depth,
            },
        )

    # ------------------------------------------------------------------
    # context surface used by the protocol layers (GroupContext)
    # ------------------------------------------------------------------
    @property
    def rng(self):
        return self._endpoint.random()

    @property
    def last_sent_seq(self) -> int:
        return self.send_path.last_sent_seq

    def now(self) -> float:
        return self._endpoint.now

    def schedule(self, delay: float, fn: Callable, *args):
        return self._endpoint.schedule(delay, fn, *args)

    def trace(self, kind: str, **detail) -> None:
        tracer = self._stack.tracer
        if tracer is not None:
            tracer.emit(self.now(), self.pid, self.group_id, kind, **detail)

    def note_alive(self, src: int) -> None:
        if src not in self._heard:
            self._heard.add(src)
            # a newly heard processor ends any AddProcessor resend loop
            self.pgmp.cancel_add_resend(src)
        self.fault_detector.note_alive(src)

    def has_heard_from(self, src: int) -> bool:
        return src in self._heard

    def forget_member(self, pid: int) -> None:
        # only graceful (ordered) departures route through here; the
        # fault-view path below shares the purge (:meth:`_purge_member`)
        self.romp.purge_queue_of(pid)
        # Only a graceful (§7.1 ordered) departure hands the member's
        # final clock to the dissemination for re-emission: a laggard
        # that has not ordered the RemoveProcessor yet still gates its
        # cover on that clock, and delivering the removal here required
        # our cover — hence this order timestamp — to reach the removal's
        # timestamp, so the snapshot is exactly the evidence the laggard
        # is missing.  A *convicted* (crashed) member's clock must NOT be
        # re-emitted: the entries would keep refreshing the dead member's
        # liveness at laggards, suppressing the very suspicion that lets
        # them join the §7.2 fault round — their only path to the new view.
        self.dissemination.note_departure(pid, self.romp.order_ts(pid))
        self._purge_member(pid)
        self._departed[pid] = self.now()
        self.schedule(self.config.suspect_timeout, self._expire_departed, pid)

    def _purge_member(self, pid: int) -> None:
        """Drop the per-member state of every layer: the one purge of a
        departure, ordered or convicted."""
        self.fault_detector.forget(pid)
        self.rmp.drop_source(pid)
        self.romp.purge_source(pid)
        self._heard.discard(pid)

    def _from_departed(self, msg: FTMPMessage) -> bool:
        """True for a datagram from a member that left in order.

        It keeps heartbeating after its removal until every member has
        ordered that (:meth:`linger`), and copies of its messages answer
        the laggards' NACKs: here, where the removal is ordered and the
        member forgotten, either would re-create per-source state and
        NACK the departed stream from 1.  Dropped until it has been
        silent for ``suspect_timeout``, or an AddProcessor names it.
        """
        src = msg.header.source
        if src in self._departed:
            self._departed[src] = self.now()
            return True
        if msg.__class__ is AddProcessorMessage:
            self._departed.pop(msg.new_member, None)
        return False

    def _expire_departed(self, pid: int) -> None:
        heard = self._departed.get(pid)
        if heard is None:
            return
        quiet = self.now() - heard
        timeout = self.config.suspect_timeout
        if quiet >= timeout * 0.999:  # float residue must not re-arm at +0
            del self._departed[pid]
        else:
            self.schedule(timeout - quiet, self._expire_departed, pid)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _activate(self) -> None:
        """Join the wire address, start heartbeats and the fault detector."""
        self._endpoint.join(self.address)
        self.fault_detector.start()
        for p in self.membership:
            if p != self.pid:
                self.fault_detector.watch(p, grace=JOIN_GRACE)
        self.send_path.start_heartbeats()
        self.dissemination.activate()

    def stop(self) -> None:
        if self._linger_timer is not None:
            self._linger_timer.cancel()
            self._linger_timer = None
            self._endpoint.leave(self.address)
        if self.stopped:
            return
        self._halt()
        self._endpoint.leave(self.address)

    def _halt(self) -> None:
        """Stop every machine and timer; the address stays joined."""
        self.stopped = True
        self.send_path.stop()
        self.dissemination.stop()
        self.fault_detector.stop()
        self.rmp.stop()
        self.pgmp.stop()
        self._stack.registry.unregister_prefix(f"group.{self.group_id}")

    def linger(self, removal_ts: int) -> None:
        """Our ordered removal (at ``removal_ts``) was delivered here.

        A member that has not ordered it yet needs our stream heard past
        ``removal_ts``, and the heartbeat that showed it may have been
        lost; everyone who has ordered it has forgotten us, so nobody
        could repeat it or convict us.  Halt, then keep heartbeating —
        delivering nothing — until every member acknowledges past
        ``removal_ts`` or ``suspect_timeout`` elapses; the stack then
        stops the group.
        """
        self._halt()
        waiting = set()
        if self.romp.stability_timestamp() < removal_ts:
            waiting = {p for p in self.membership if p != self.pid}
        self._lingering = (removal_ts, self.now() + self.config.suspect_timeout,
                           waiting)
        self._linger_timer = self.schedule(self.config.heartbeat_interval,
                                           self._linger_tick)

    def _linger_tick(self) -> None:
        _, deadline, waiting = self._lingering
        if not waiting or self.now() >= deadline:
            self._stack.end_leaving(self.group_id)
            return
        self.send(HeartbeatMessage)
        self._linger_timer = self.schedule(self.config.heartbeat_interval,
                                           self._linger_tick)

    def hear_while_lingering(self, msg: FTMPMessage) -> None:
        """A datagram for the group we were removed from: note whose
        acknowledgement has passed our removal (a BATCH's parts carry it)."""
        removal_ts, _, waiting = self._lingering
        h = msg.header
        if msg.__class__ is BatchMessage:
            try:
                h = peek_header(msg.parts[-1])
            except (CodecError, IndexError):
                return
        if h.ack_timestamp >= removal_ts:
            waiting.discard(h.source)

    # ------------------------------------------------------------------
    # datagram input (from the stack router)
    # ------------------------------------------------------------------
    def on_datagram(self, msg: FTMPMessage, raw: bytes) -> None:
        if self._departed and self._from_departed(msg):
            return
        self._ingress(msg, raw)

    def loop_back(self, raw: bytes) -> None:
        """Deliver one of our own datagrams through the local receive
        path only — deferred one scheduler turn to keep a loopback's
        event boundary (no re-entrant delivery inside the send call)."""
        self.schedule(0.0, lambda: self.on_datagram(decode(raw), raw))

    # ------------------------------------------------------------------
    # upward delivery plumbing (called by RMP / ROMP)
    # ------------------------------------------------------------------
    def pgmp_raise_suspicion(self, pid: int) -> None:
        self.pgmp.raise_suspicion(pid)
        self.dissemination.on_suspicion_changed()

    def pgmp_withdraw_suspicion(self, pid: int) -> None:
        self.pgmp.withdraw_suspicion(pid)
        self.dissemination.on_suspicion_changed()

    def pgmp_receive_ordered(self, msg: FTMPMessage) -> None:
        if self.stopped:
            return  # the ordering loop runs on past our own removal
        if self.join_barrier is not None:
            key = (msg.header.timestamp, msg.header.source)
            if key < self.join_barrier:
                return  # predates our admission to the group
        self.pgmp.on_ordered(msg)

    def deliver_regular(self, msg: RegularMessage) -> None:
        h = msg.header
        if self.stopped or (self.join_barrier is not None
                            and (h.timestamp, h.source) < self.join_barrier):
            return
        if self.legacy_keys:  # non-empty only after a fault view
            self.legacy_keys.discard((h.timestamp, h.source))
        if self._stack.tracer is not None:
            self.trace("deliver", src=h.source, seq=h.sequence_number,
                       ts=h.timestamp, bytes=len(msg.payload))
        self._stack.listener.on_deliver(
            Delivery(self.group_id, h.source, h.sequence_number, h.timestamp,
                     msg.connection_id, msg.request_num, msg.payload,
                     self._endpoint.now)
        )

    # ------------------------------------------------------------------
    # send paths
    # ------------------------------------------------------------------
    def send(self, cls: Type[FTMPMessage], *body, address: Optional[int] = None,
             credit: bool = False) -> bytes:
        """The stamped-send service: build a ``cls`` message from ``body``
        (its fields after the header, in order), send it to the group —
        or to ``address``, :data:`~repro.core.dissemination.LOOPBACK`
        included — and return its wire bytes.

        Everything the message's type entails is decided here, from the
        two tables of Figure 3: a reliable type takes the next sequence
        number and is retained for NACK answering, a reliable type or a
        Heartbeat restarts the §5 idle clock (both in :class:`SendPath`),
        and the ordering discipline hears of a totally-ordered one once
        it is on the wire.  Every header carries a fresh clock tick and
        the piggybacked ack.  ``credit`` is the one thing the type does
        not decide: an application Regular occupies a flow-control
        credit from the moment it is stamped — before the discipline,
        which may deliver it on the spot, can run a listener that sends.
        """
        mtype = cls.TYPE
        msg = cls(self.send_path.next_header(mtype), *body)
        if credit:
            self.flow.note_sent(msg.header.timestamp)
        raw = self.send_path.send(msg, address)
        if mtype in TOTALLY_ORDERED_TYPES:
            self.romp.on_own_send(msg)
        return raw

    def multicast(self, payload: bytes, connection_id: Optional[ConnectionId] = None,
                  request_num: int = 0) -> bool:
        """Multicast an application (GIOP) payload as a Regular message.

        Returns True when the send went to the wire immediately, False
        when it was accepted but queued (§7 quiescence barrier or
        exhausted flow-control credits) for later release.  With
        ``flow_queue_limit`` set, a send beyond the cap raises
        :class:`FlowControlSaturated` instead of queueing.
        """
        if self.joining:
            raise RuntimeError("cannot multicast before the join completes")
        cid = connection_id if connection_id is not None else ConnectionId.none()
        if not self.romp.can_send_ordered():
            # §7 quiescence after a Connect: hold ordered application
            # traffic until every member is heard past the barrier.
            limit = self.config.flow_queue_limit
            if limit > 0 and len(self._pending_ordered) + self.flow.queue_depth >= limit:
                self.flow.stats.sends_rejected += 1
                raise FlowControlSaturated(
                    f"send queue full ({limit} sends held at the barrier)"
                )
            self.stats.ordered_sends_deferred += 1
            self._pending_ordered.append((payload, cid, request_num))
            return False
        if not self.flow.submit(payload, cid, request_num):
            return False  # backpressured; a stability advance releases it
        self._send_regular(payload, cid, request_num)
        return True

    def _send_regular(self, payload: bytes, cid: ConnectionId, request_num: int) -> None:
        self.stats.regulars_sent += 1
        self.send(RegularMessage, cid, request_num, payload, credit=True)

    def on_send_barrier_cleared(self) -> None:
        # Sends credit-queued before the Connect predate anything the
        # barrier deferred (once a barrier is up, multicast queues there,
        # not in the flow controller): drain them first to keep FIFO.
        # This is also what releases a flow queue held by drain() while
        # the barrier was pending — without it the queue would deadlock
        # if stability never advances again.
        self.flow.drain()
        pending, self._pending_ordered = self._pending_ordered, []
        for payload, cid, request_num in pending:
            if self.flow.submit(payload, cid, request_num, enforce_limit=False):
                self._send_regular(payload, cid, request_num)

    def retransmit_raw(self, raw: bytes, address: Optional[int] = None) -> None:
        """Re-send a retained message unchanged except the retrans flag (§3.2)."""
        self.trace("resend", bytes=len(raw))
        self.send_path.send_raw(raw, address)

    # ------------------------------------------------------------------
    # membership state changes (called by PGMP)
    # ------------------------------------------------------------------
    def install_view(self, membership: Tuple[int, ...], view_timestamp: int,
                     added: Tuple[int, ...], removed: Tuple[int, ...], reason: str) -> None:
        prev_membership = self.membership
        # lets a discipline hold its decisions until on_view_installed
        # below — a send from the view-change listener must not overtake
        # what the discipline does at the install in the delivery order
        self.romp.begin_install()
        self.membership = tuple(sorted(membership))
        self.view_timestamp = view_timestamp
        self.pgmp.reset_after_view()
        self.dissemination.on_view_installed()
        for p in added:
            self.romp.flush_staging(p)
        self.trace("view", reason=reason, membership=self.membership,
                   view_ts=view_timestamp)
        self._stack.listener.on_view_change(
            ViewChange(
                group=self.group_id,
                membership=self.membership,
                view_timestamp=view_timestamp,
                added=tuple(added),
                removed=tuple(removed),
                reason=reason,
                installed_at=self.now(),
            )
        )
        self.romp.on_view_installed(prev_membership, reason)
        self.romp.evaluate()

    def install_fault_view(self, membership: Tuple[int, ...], view_timestamp: int,
                           removed: Tuple[int, ...],
                           sync_targets: Optional[Dict[int, int]] = None) -> None:
        """Install a view that excludes convicted processors (§7.2)."""
        targets = sync_targets or {}
        for r in removed:
            # Anything from the convicted member beyond the synchronized
            # prefix was not received by every survivor: drop it.  The rest
            # is grandfathered — deliverable after the member's removal
            # (virtual synchrony: identical delivery sets at all survivors).
            self.romp.purge_queue_after(r, targets.get(r, 0))
            for key in self.romp.keys_from(r):
                self.legacy_keys.add(key)
            self._purge_member(r)
        for r in removed:
            self.romp.abort_origin(r)
        self.install_view(membership, view_timestamp, added=(), removed=removed,
                          reason="fault")
        self.trace("fault", convicted=tuple(removed))
        self._stack.listener.on_fault_report(
            FaultReport(group=self.group_id, convicted=tuple(removed),
                        reported_at=self.now())
        )

    def evict_self(self, reason: str, view_timestamp: int) -> None:
        """We were removed (RemoveProcessor or exclusion by survivors).
        An ordered removal lingers (:meth:`linger`): the survivors of an
        exclusion have synchronized without us, nobody waits for us."""
        self._stack.listener.on_view_change(
            ViewChange(
                group=self.group_id,
                membership=(),
                view_timestamp=view_timestamp,
                added=(),
                removed=(self.pid,),
                reason=reason,
                installed_at=self.now(),
            )
        )
        if reason == "remove":
            self._stack.retire_group(self.group_id, view_timestamp)
        else:
            self._stack.remove_group(self.group_id)

    def seed_provisional_join(self, membership: Tuple[int, ...], view_timestamp: int,
                              join_barrier: Tuple[int, int]) -> None:
        """Adopt an AddProcessor's snapshot while still joining.

        Provisional: :meth:`complete_join` installs the definitive view
        when the AddProcessor is *ordered*.  Heartbeats start here — the
        ordering gate covers our own pid, and only our loopbacked sends
        advance it — but the fault detector and the view upcall wait for
        completion.  A re-seed (fresh AddProcessor after the first one's
        snapshot went stale) drops sources the new snapshot no longer
        lists, so their unfillable gaps stop generating NACKs.
        """
        starting = self.join_barrier is None
        dropped = set(self.membership) - set(membership)
        self.membership = tuple(sorted(membership))
        self.view_timestamp = view_timestamp
        self.join_barrier = join_barrier
        for gone in dropped:
            self.forget_member(gone)
        if starting:
            self.send_path.start_heartbeats()
        self.dissemination.prepare_join()
        self.romp.evaluate()

    def complete_join(self, membership: Tuple[int, ...], view_timestamp: int,
                      join_barrier: Tuple[int, int]) -> None:
        """Finish the new-member bootstrap once our AddProcessor is ordered."""
        if not self.joining:
            return
        self.joining = False
        self.join_barrier = join_barrier
        self.membership = tuple(sorted(membership))
        self.view_timestamp = view_timestamp
        self._activate()
        # Announce ourselves at once so the initiator stops retransmitting
        # the AddProcessor and the others' ordering includes us promptly.
        self.stats.heartbeats_sent += 1
        self.send(HeartbeatMessage)
        self._stack.listener.on_view_change(
            ViewChange(
                group=self.group_id,
                membership=self.membership,
                view_timestamp=view_timestamp,
                added=(self.pid,),
                removed=(),
                reason="add",
                installed_at=self.now(),
            )
        )
        self.romp.on_join_completed()

    # ------------------------------------------------------------------
    # connection migration (ordered Connect, §7)
    # ------------------------------------------------------------------
    def apply_connect_migration(self, msg: ConnectMessage) -> None:
        # a Connect may bind a *new* logical connection onto this existing
        # group (shared processor group, §7) rather than migrate it
        self._stack.connections.on_ordered_connect(msg)
        new_addr = msg.ip_multicast_address
        migrated = new_addr != self.address
        if migrated:
            # the window is bound to the old address: drain it first
            self.send_path.flush()
            self._endpoint.leave(self.address)
            self.address = new_addr
            self._endpoint.join(new_addr)
            self.dissemination.on_address_changed()
        self.view_timestamp = max(self.view_timestamp, msg.header.timestamp)
        # §7 quiescence: no ordered transmissions until every member is
        # heard past the Connect's timestamp (their heartbeats get us there).
        self.romp.set_send_barrier(msg.header.timestamp)
        self._stack.connections.apply_migration(msg.connection_id, new_addr)
        binding = self._stack.connections.binding(msg.connection_id)
        if binding is not None and migrated:
            self._stack.notify_connection(binding, migrated=True)
